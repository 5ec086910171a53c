"""Batch command-line surface.

Every subcommand reads machine-readable inputs (JSON arguments, one
decimal per line for samples), writes machine-readable output, and exits
0 on success, 1 on a failed acceptance threshold or axiom counterexample,
2 on malformed input. All randomness enters through --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import (
    TYPE_CHECKING, Iterable, List, NoReturn, Optional, Sequence, Tuple)

import numpy as np

from .core import (
    MAX_SIZE,
    MONOTONE_SLACK,
    SCHEMA,
    Mixture,
    RepresentingSet,
    Sample,
    WeightVector,
    json_field,
    t_inverse,
    t_map,
)
from .errors import RiskError
from .estimators import (
    discrete_es,
    l_estimate,
    mixture_estimate,
    recover_comonotonic_weights,
    robust_sup,
)

# every other module is imported by the subcommand that runs it, so a cold
# call loads only what it uses
if TYPE_CHECKING:
    from .asymptotics import RngSpec

#: seconds an oracle process may take over each reply
ORACLE_TIMEOUT_S = 60.0

#: request text an oracle batch holds unsent, beyond one request line
REQUEST_BUFFER_BYTES = 1 << 16

#: bytes an oracle reply line may hold before its newline; a float64
#: needs at most 24
REPLY_MAX_BYTES = 1 << 12


def fmt(value: float) -> str:
    """Shortest decimal that round-trips the float exactly. A non-finite
    value is an error, never a result."""
    v = float(value)
    if not math.isfinite(v):
        raise RiskError(f"result is not finite: {v}")
    return repr(v)


def _request_line(row: np.ndarray) -> bytes:
    """One oracle request line: the shortest round-trip decimal of every
    value, as fmt writes them. A non-finite value is refused."""
    row = np.asarray(row, dtype=np.float64)
    if not np.isfinite(row).all():
        raise RiskError(
            f"oracle request is not finite: a sample of {row.size} values"
        )
    return (" ".join(map(repr, row.tolist())) + "\n").encode()


def read_sample(path: str) -> Sample:
    """One decimal per line; a single leading non-numeric line is treated
    as a header; '-' reads standard input. The input is UTF-8; bytes that
    are not are kept as lone surrogates, so they read as any other
    non-number."""
    if path == "-":
        # a text stdin would decode with the locale's encoding and errors
        stream = getattr(sys.stdin, "buffer", None)
        data = sys.stdin.read() if stream is None else stream.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise RiskError(f"cannot read sample file {path}: {exc}") from exc
    values = _plain_values(data)
    if values is None:
        if isinstance(data, bytes):
            data = data.decode("utf-8", "surrogateescape")
        values = _line_values(data)
    if not len(values):
        raise RiskError(f"sample file {path} contains no values")
    return Sample(values)


def _line_values(text: str) -> List[float]:
    """The sample rules applied line by line: the reader of every input
    _plain_values declines, and the source of every diagnostic."""
    values: List[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            if not values and lineno == 1:
                continue  # header
            raise RiskError(
                f"sample line {lineno} is not a number: {line!r}"
            ) from None
    return values


#: bytes a sample may hold past its header to be read by _plain_values
_PLAIN_BYTES = b"0123456789+-.eE\r\n"

#: bytes of sample text split and converted at once
_PLAIN_CHUNK = 1 << 18


def _plain_values(data: "bytes | str") -> Optional[np.ndarray]:
    """The values of a sample whose value lines hold nothing but a decimal
    and a line break, or None for any other input.

    Such lines are split on their line breaks, and numpy converts each
    token with float(), so every value is the one _line_values would read,
    from the same text. A token float() refuses returns None, which leaves
    the line number of the diagnostic to _line_values."""
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    newline = data.find(b"\n")
    head = data if newline < 0 else data[:newline]
    first = head.decode("utf-8", "surrogateescape")
    if len(first.splitlines()) > 1:
        return None  # another line break ends line 1
    line = first.strip()
    start = 0
    if line:
        try:
            float(line)
        except ValueError:
            start = len(head) + 1  # a header
    pieces = []
    while start < len(data):
        end = data.find(b"\n", start + _PLAIN_CHUNK)
        end = len(data) if end < 0 else end
        chunk = data[start:end]
        if chunk.translate(None, _PLAIN_BYTES):
            return None
        try:
            pieces.append(np.array(chunk.split(), dtype=np.float64))
        except ValueError:
            return None
        start = end
    return np.concatenate(pieces) if pieces else np.empty(0)


#: floats of an array formatted and written at once
_JSON_CHUNK = 1 << 16


def _print_document(**fields: object) -> None:
    """Print one riskcore/1 JSON object holding the schema, then `fields`,
    byte for byte as print(json.dumps(...)) would. A report's to_dict(),
    whose first key is the schema, prints as it is.

    A float array is written in pieces: json writes a float with
    float.__repr__, as str() of a list does, so no list of every value
    and no text of the whole array is ever held. The document is strict
    JSON: a non-finite number in any field, nested ones included, is an
    error, refused before anything is written."""
    fields = {"schema": SCHEMA, **fields}
    texts = {}
    for key, value in fields.items():
        try:
            if not isinstance(value, np.ndarray):
                texts[key] = json.dumps(value, allow_nan=False)
            elif not np.isfinite(value).all():
                raise ValueError
        except ValueError:
            raise RiskError(f"{key} is not finite") from None
    out = sys.stdout
    for i, (key, value) in enumerate(fields.items()):
        out.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
        if key in texts:
            out.write(texts[key])
            continue
        out.write("[")
        for start in range(0, value.size, _JSON_CHUNK):
            piece = str(value[start:start + _JSON_CHUNK].tolist())[1:-1]
            out.write(piece if start == 0 else ", " + piece)
        out.write("]")
    out.write("}\n")


def _parse_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RiskError(f"malformed {what} JSON: {exc}") from exc


def _load_config(arg: str) -> dict:
    """Inline JSON object, or a path to a file holding one."""
    if arg.lstrip().startswith("{"):
        obj = _parse_json(arg, "config")
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                obj = _parse_json(fh.read(), "config")
        except OSError as exc:
            raise RiskError(f"cannot read config {arg}: {exc}") from exc
    if not isinstance(obj, dict):
        raise RiskError("config JSON must be an object")
    return obj


def _json_vector(text: str, key: str) -> Tuple[np.ndarray, dict]:
    """A vector argument, a JSON array or an object holding one as `key`:
    its values, and the object."""
    obj = _parse_json(text, key)
    doc = {key: obj} if isinstance(obj, list) else obj
    if not isinstance(doc, dict):
        raise RiskError(f"expected a JSON array (or object with {key!r})")
    return json_field(doc, key, [float], what=f"{key} JSON"), doc


def _weights(values: np.ndarray) -> WeightVector:
    monotone = bool(np.all(np.diff(values) <= MONOTONE_SLACK))
    return WeightVector(values, monotone=monotone)


def _repset_from_json(text: str) -> RepresentingSet:
    obj = _parse_json(text, "representing set")
    if not isinstance(obj, dict):
        raise RiskError("representing-set JSON needs a 'vertices' field")
    vertices = json_field(obj, "vertices", [[float]],
                          what="representing-set JSON")
    sorted_domain = json_field(obj, "sorted_domain", bool, True)
    return RepresentingSet(vertices, sorted_domain=sorted_domain)


class SubprocessOracle:
    """Line-protocol adapter around an external estimator process: one
    whitespace-separated sample per request line, one decimal per reply.

    The protocol is pipelined: replies must come one per line and in
    request order, and the oracle may receive its next request before its
    last reply is read. A process that takes longer than ORACLE_TIMEOUT_S
    over any one reply, or whose reply line exceeds REPLY_MAX_BYTES, is
    killed. These, and a reply beyond the requests, raise RiskError."""

    def __init__(self, command: str):
        import shlex
        import subprocess

        argv = shlex.split(command)
        if not argv:
            raise RiskError("empty oracle command")
        try:
            self.proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise RiskError(f"cannot start oracle {command!r}: {exc}") from exc
        assert self.proc.stdin is not None and self.proc.stdout is not None
        # raw descriptors: requests go out in pieces while replies come in,
        # and every wait on the process has a deadline
        self._to = self.proc.stdin.fileno()
        self._from = self.proc.stdout.fileno()
        os.set_blocking(self._to, False)
        # reply bytes not yet parsed
        self._pending = bytearray()
        # False while a batch is open and after one failed: replies may
        # then still be owed, so output is not counted as extra
        self._in_step = True

    def __call__(self, values: np.ndarray) -> float:
        return float(self.batch([values])[0])

    def batch(self, rows: Iterable[np.ndarray]) -> np.ndarray:
        """The replies to every row, in order.

        One select loop writes request lines while it reads replies, so
        neither pipe can fill up and stall both processes. Rows are
        formatted as they are needed, about REQUEST_BUFFER_BYTES ahead of
        the pipe. A row holding a non-finite value is refused with a
        RiskError; the rows before it are still answered, so the oracle's
        replies stay in step with later requests."""
        import select

        rows = iter(rows)
        replies: List[float] = []
        unsent = bytearray()
        requested = 0
        refused: Optional[RiskError] = None
        deadline = time.monotonic() + ORACLE_TIMEOUT_S
        self._in_step = False
        try:
            while True:
                while refused is None and len(unsent) < REQUEST_BUFFER_BYTES:
                    row = next(rows, None)
                    if row is None:
                        break
                    try:
                        unsent += _request_line(row)
                    except RiskError as exc:
                        refused = exc
                        break
                    requested += 1
                waiting = len(replies) < requested
                if not (unsent or waiting):
                    break
                remaining = deadline - time.monotonic()
                readable, writable, _ = select.select(
                    [self._from] if waiting else [],
                    [self._to] if unsent else [],
                    [],
                    max(remaining, 0.0),
                )
                if remaining <= 0 or not (readable or writable):
                    self.proc.kill()
                    raise RiskError(
                        f"oracle did not answer within {ORACLE_TIMEOUT_S:g} s"
                    )
                if writable:
                    del unsent[:os.write(self._to, unsent)]
                if readable:
                    before = len(replies)
                    self._read_replies(replies, requested)
                    if len(replies) > before:
                        deadline = time.monotonic() + ORACLE_TIMEOUT_S
        except OSError as exc:
            raise RiskError(f"oracle process failed: {exc}") from exc
        if b"\n" in self._pending:
            raise RiskError("oracle wrote more replies than requests")
        self._in_step = True
        if refused is not None:
            raise refused
        return np.array(replies, dtype=np.float64)

    def _read_replies(self, replies: List[float], requested: int) -> None:
        """Read what the oracle has written and parse every complete reply
        line, up to `requested` replies in all. A pending line longer
        than REPLY_MAX_BYTES is refused, so searching it again from its
        start after each read rescans at most that many bytes."""
        chunk = os.read(self._from, 1 << 16)
        if not chunk:
            if not self._pending:
                raise RiskError("oracle process closed its output stream")
            chunk = b"\n"  # a last reply without its newline
        buf = self._pending
        buf += chunk
        start = 0
        while len(replies) < requested:
            end = buf.find(b"\n", start)
            if (len(buf) if end < 0 else end) - start > REPLY_MAX_BYTES:
                self.proc.kill()
                raise RiskError(
                    f"oracle reply exceeds {REPLY_MAX_BYTES} bytes")
            if end < 0:
                break
            text = buf[start:end].decode("utf-8", "replace").strip()
            try:
                replies.append(float(text))
            except ValueError:
                raise RiskError(
                    f"oracle replied with a non-number: {text!r}"
                ) from None
            start = end + 1
        del buf[:start]

    def close(self) -> None:
        import select
        import subprocess

        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        # unless a batch failed, every reply was read: output left once the
        # process is gone answers no request; select() keeps the read from
        # blocking on a pipe that another process holds open
        extra = self._in_step and (self._pending or bool(select.select(
            [self._from], [], [], 0)[0] and os.read(self._from, 1)))
        self.proc.stdout.close()
        if extra:
            raise RiskError("oracle wrote more replies than requests")

    def __enter__(self) -> "SubprocessOracle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _need_seed(args: argparse.Namespace) -> RngSpec:
    from .asymptotics import RngSpec

    if args.seed is None:
        raise RiskError("this subcommand is stochastic; --seed is required")
    return RngSpec(int(args.seed))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_estimate(args: argparse.Namespace) -> int:
    x = read_sample(args.sample)
    if args.spectrum is not None:
        from .spectra import canonical_weights, spectrum_from_json

        phi = spectrum_from_json(_parse_json(args.spectrum, "spectrum"))
        value = l_estimate(canonical_weights(phi, x.n), x, sorted_domain=True)
        print(fmt(value))
    elif args.weights is not None:
        values, doc = _json_vector(args.weights, "weights")
        sorted_domain = json_field(doc, "sorted_domain", bool, True)
        print(fmt(l_estimate(_weights(values), x, sorted_domain=sorted_domain)))
    elif args.mixture is not None:
        mu = Mixture(_json_vector(args.mixture, "mixture")[0])
        print(fmt(mixture_estimate(mu, x)))
    else:
        M = _repset_from_json(args.repset)
        value, idx = robust_sup(M, x)
        _print_document(value=value, argmax_index=idx)
    return 0


def cmd_weights(args: argparse.Namespace) -> int:
    from .spectra import canonical_weights, spectrum_from_json

    phi = spectrum_from_json(_parse_json(args.spectrum, "spectrum"))
    a = canonical_weights(phi, args.n)
    _print_document(n=args.n, weights=a.weights)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    a = _weights(_json_vector(args.weights, "weights")[0])
    _print_document(mixture=t_map(a).masses)
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    mu = Mixture(_json_vector(args.mixture, "mixture")[0])
    _print_document(weights=t_inverse(mu).weights, monotone=True)
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    with SubprocessOracle(args.oracle) as oracle:
        a = recover_comonotonic_weights(oracle, args.n)
    _print_document(n=args.n, weights=a.weights)
    return 0


def cmd_es(args: argparse.Namespace) -> int:
    x = read_sample(args.sample)
    print(fmt(discrete_es(x, args.k)))
    return 0


def cmd_variance(args: argparse.Namespace) -> int:
    from .asymptotics import asymptotic_variance
    from .population import distribution_from_json
    from .spectra import spectrum_from_json

    phi = spectrum_from_json(_parse_json(args.spectrum, "spectrum"))
    dist = distribution_from_json(_parse_json(args.dist, "distribution"))
    print(fmt(asymptotic_variance(phi, dist)))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run the experiment named by the subcommand on its config, read
    through harness.EXPERIMENT_FIELDS. The driver is looked up on each
    call, so a profiler can rebind it."""
    from . import harness

    rng = _need_seed(args)
    config = _load_config(args.config)
    driver, fields = harness.EXPERIMENT_FIELDS[args.command]
    values = [json_field(config, *field) for field in fields]
    report = getattr(harness, driver)(*values[:4], rng, *values[4:])
    _print_document(**report.to_dict())
    return 0 if report.passed is not False else 1


def cmd_axioms(args: argparse.Namespace) -> int:
    from .harness import check_axioms

    rng = _need_seed(args)
    with SubprocessOracle(args.oracle) as oracle:
        report = check_axioms(
            oracle,
            n=args.n,
            trials=args.trials,
            rng=rng,
            law_invariant=not args.skip_law_invariance,
            comonotonic=not args.skip_comonotonic,
        )
    _print_document(**report.to_dict())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error reported as one `error:` line and exit
    2, as every other malformed input is; its subparsers are built from
    the same class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = _Parser(
        prog="riskcore",
        description="Coherent risk estimation toolkit: estimators, "
        "weight algebra, and asymptotic diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="evaluate a risk estimator on a sample")
    p.add_argument("--sample", required=True, help="sample file, '-' for stdin")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spectrum", help="spectrum JSON (canonical plug-in)")
    group.add_argument("--weights", help="weight-vector JSON (L-estimator)")
    group.add_argument("--mixture", help="mixture JSON (ES-mixture form)")
    group.add_argument("--repset", help="representing-set JSON (robust supremum)")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("weights", help="canonical weights of a spectrum")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_weights)

    p = sub.add_parser("decompose", help="weights -> ES-mixture masses")
    p.add_argument("--weights", required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("compose", help="ES-mixture masses -> weights")
    p.add_argument("--mixture", required=True)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser(
        "recover", help="recover L-estimator weights from an oracle process"
    )
    p.add_argument("--oracle", required=True, help="oracle command line")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("es", help="discrete expected shortfall")
    p.add_argument("--sample", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_es)

    p = sub.add_parser("variance", help="asymptotic variance of a plug-in")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--dist", required=True)
    p.set_defaults(fn=cmd_variance)

    for name in ("clt", "bootstrap", "consistency", "rate"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON object or file path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; ignored")
        p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("axioms", help="randomized coherence-axiom check")
    p.add_argument("--oracle", required=True, help="oracle command line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--skip-law-invariance", action="store_true")
    p.add_argument("--skip-comonotonic", action="store_true")
    p.set_defaults(fn=cmd_axioms)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every --n and --trials option is a size
        for option in ("n", "trials"):
            size = getattr(args, option, 0)
            if size > MAX_SIZE:
                raise RiskError(
                    f"--{option} exceeds the size ceiling {MAX_SIZE}: {size}"
                )
        # an overflow surfaces as a non-finite result, which fmt rejects
        with np.errstate(over="ignore"):
            return args.fn(args)
    except RiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the interpreter's last flush does not fail as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
