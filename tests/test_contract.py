"""The CLI contract on generated inputs (MacIver et al. 2019, hypothesis).

Argument vectors are built from the parser's own subcommands and options,
and experiment configs from the fields harness.EXPERIMENT_FIELDS declares.
JSON values mix plausible numbers with NaN, infinities, extreme floats,
strings, booleans, null, lists and objects. Every run ends in exit 0 or 1
with one strict-JSON document or one finite decimal on stdout and nothing
on stderr, or in exit 2 with one `error:` line on stderr."""

import argparse
import contextlib
import io
import json
import math
import pathlib
import sys
import warnings
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskcore import harness
from riskcore.cli import build_parser, main
from riskcore.core import MAX_SIZE
from conftest import strict_json

ORACLES = pathlib.Path(__file__).parent / "oracles"

#: values no numeric field may take, beside plausible ones
ODD = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324,
       "x", "0.5", True, False, None, [], [1.0], {}, {"a": 1}]
odd = st.sampled_from(ODD)


def sometimes(plausible: st.SearchStrategy, rare: st.SearchStrategy,
              one_in: int = 16) -> st.SearchStrategy:
    """Mostly plausible values, and a rare one once in one_in draws, so
    that many runs get past input checking to the work."""
    # hypothesis leans to the ends of a range, so the rare branch is
    # neither end
    return st.integers(0, one_in).flatmap(
        lambda i: rare if i == one_in // 2 else plausible)


def number(lo: float, hi: float, exclude_min: bool = False
           ) -> st.SearchStrategy:
    return sometimes(st.floats(lo, hi, exclude_min=exclude_min), odd, 32)


def size(hi: int) -> st.SearchStrategy:
    return sometimes(st.integers(1, hi), st.one_of(st.integers(-1, 0), odd))


spectrum = sometimes(
    st.one_of(
        st.just({"type": "uniform"}),
        st.builds(lambda s: {"type": "linear", "slope": s}, number(0.0, 2.0)),
        st.builds(lambda k: {"type": "exponential", "k": k},
                  number(0.0, 50.0, True)),
        st.builds(lambda v: {"type": "piecewise_linear",
                             "knots": [[0, v], [0.5, 1], [1, 2 - v]]},
                  st.floats(1.0, 2.0)),
    ),
    st.one_of(
        st.builds(lambda a: {"type": "es", "alpha": a}, number(0.0, 1.0)),
        st.builds(lambda knots: {"type": "piecewise_linear", "knots": knots},
                  st.lists(st.lists(number(0.0, 2.0), max_size=3),
                           max_size=3)),
        st.just({"type": "nope"}),
        odd,
    ),
    one_in=6,
)

dist = sometimes(
    st.one_of(
        st.builds(lambda a, b: {"type": "uniform", "a": a, "b": b},
                  number(-5.0, 0.0), number(1e-3, 5.0)),
        st.builds(lambda m, s: {"type": "normal", "mean": m, "sd": s},
                  number(-5.0, 5.0), number(0.0, 5.0, True)),
        st.builds(lambda r: {"type": "exponential", "rate": r},
                  number(0.0, 5.0, True)),
        st.builds(lambda c: {"type": "point_mass", "c": c}, number(-5.0, 5.0)),
    ),
    odd,
)

simplex = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6).map(
    lambda v: [x / sum(v) for x in v])
vector = sometimes(
    st.one_of(simplex.map(lambda v: sorted(v, reverse=True)), simplex),
    st.lists(number(-1.0, 1.0), max_size=6), one_in=4)

flag = sometimes(st.booleans(), odd, 4)
sizes = st.lists(st.integers(1, 50), min_size=1, max_size=4)

#: the values of every experiment config field, by its JSON name; sizes
#: stay small (n <= 50, reps and B <= 20)
FIELD_VALUES = {
    "spectrum": spectrum,
    "dist": dist,
    "class": sometimes(st.one_of(st.just("bundled"),
                                 st.lists(spectrum, min_size=1, max_size=3)),
                       st.one_of(st.just([]), odd)),
    "n": size(50),
    "reps": size(20),
    "B": size(20),
    "grid_m": size(50),
    # duplicate and unsorted sizes included
    "n_grid": sometimes(st.one_of(sizes.map(sorted), sizes),
                        st.one_of(st.lists(size(50), max_size=4), odd)),
    "threshold": number(0.0, 1.0),
    "min_pass_fraction": number(0.0, 1.0),
    "slope_band": sometimes(
        st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2).map(sorted),
        st.one_of(st.lists(number(-1.0, 1.0), max_size=3), odd)),
}


@st.composite
def config(draw, experiment: str) -> str:
    doc = {}
    for key, *_ in harness.EXPERIMENT_FIELDS[experiment][1]:
        if draw(st.integers(0, 20)) != 10:  # left out now and then
            doc[key] = draw(FIELD_VALUES[key])
    return json.dumps(doc)


def json_text(values: st.SearchStrategy) -> st.SearchStrategy:
    return values.map(json.dumps)


def option_values(samples: list, experiment: str) -> dict:
    """The values of every option of every subcommand, by its dest."""
    python = sys.executable
    return {
        "sample": st.sampled_from(samples),
        "spectrum": json_text(spectrum),
        "dist": json_text(dist),
        "weights": json_text(st.one_of(vector, st.fixed_dictionaries(
            {"weights": vector}, optional={"sorted_domain": flag}), odd)),
        "mixture": json_text(st.one_of(vector, st.fixed_dictionaries(
            {"mixture": vector}), odd)),
        "repset": json_text(st.one_of(st.fixed_dictionaries(
            {"vertices": st.lists(vector, max_size=3)},
            optional={"sorted_domain": flag}), odd)),
        "config": sometimes(config(experiment), json_text(odd))
        if experiment else st.nothing(),
        "oracle": sometimes(
            st.sampled_from([f"{python} {ORACLES / 'des_oracle.py'}",
                             f"{python} {ORACLES / 'std_oracle.py'}"]),
            st.sampled_from(["", str(ORACLES / "no_such_oracle")]), 8),
        "n": sometimes(st.integers(1, 50),
                       st.sampled_from([-1, 0, MAX_SIZE + 1])),
        "k": sometimes(st.integers(1, 3), st.sampled_from([-1, 0, 10**20])),
        "trials": sometimes(st.integers(1, 50),
                            st.sampled_from([-1, 0, 10**20])),
        "seed": sometimes(st.integers(0, 2**64 - 1),
                          st.sampled_from([-1, 2**64])),
        "threads": st.integers(-1, 4),
    }


def subparsers() -> dict:
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@st.composite
def arguments(draw, command: str, samples: list) -> list:
    """An argv for the subcommand: every required option, one option of
    each required exclusive group, and any of the others."""
    sub = subparsers()[command]
    values = option_values(
        samples, command if command in harness.EXPERIMENT_FIELDS else None)
    grouped = {}
    for group in sub._mutually_exclusive_groups:
        chosen = draw(st.sampled_from(group._group_actions))
        grouped.update((a.dest, a is chosen) for a in group._group_actions)
    argv = [command]
    for action in sub._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0]
        if action.dest in grouped:
            wanted = grouped[action.dest]
        else:
            wanted = action.required or draw(st.integers(0, 8)) != 4
        if not wanted:
            continue
        if isinstance(action, argparse._StoreTrueAction):
            argv.append(flag)
        else:
            argv.append(f"{flag}={draw(values[action.dest])}")
    return argv


#: examples per subcommand; the oracle subcommands start a process each
BUDGET = {"recover": 10, "axioms": 10}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    root = tmp_path_factory.mktemp("samples")
    texts = ["3\n-1\n2\n", "pnl\n1e308\n-1e308\n", "5e-324\n-0.0\n1e-300\n",
             "0.5\r\n0.25\r\n-2\r\n", "1\nx\n", "", "nan\n1\n", "1e400\n"]
    paths = []
    for i, text in enumerate(texts):
        path = root / f"sample{i}.txt"
        path.write_text(text)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("argv", [
    ["weights", "--spectrum", '{"type":"uniform"}', "--n", "abc"],
    ["nope"],
    ["weights", "--n", "3"],
])
def test_a_malformed_argument_vector_is_one_error_line(argv, capsys):
    # argparse printed its usage block before the error line
    with pytest.raises(SystemExit) as exited:
        main(argv)
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", sorted(subparsers()))
def test_every_run_keeps_the_exit_and_stream_contract(command, samples):
    @given(arguments(command, samples))
    @settings(max_examples=BUDGET.get(command, 40), derandomize=True,
              database=None, deadline=timedelta(seconds=10),
              suppress_health_check=[HealthCheck.too_slow])
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 2:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith("error: ")
            return
        assert err == ""
        assert out.count("\n") == 1 and out.endswith("\n")
        doc = strict_json(out)
        if isinstance(doc, dict):
            assert doc["schema"] == "riskcore/1"
        else:
            assert type(doc) in (int, float) and math.isfinite(doc)

    run()
