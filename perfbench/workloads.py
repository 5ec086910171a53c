"""The four workloads: inputs made from the workload seed, fixed job lists,
and the checks each job's output must pass.

A job is a riskcore command line (or, for one oracle job, a library call)
plus a check of its exit code and standard output against an independent
reference. Every job is deterministic in its inputs, so repeated passes
must print byte-identical output.
"""

from __future__ import annotations

import json
import shlex
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import references as ref

WINDOW = 250          # one trading year of daily P&L
BIG = 1_000_000       # the large sample file
STUDENT_DF = 3        # fat-tailed P&L
ES_TOL = 1e-12        # relative, estimator values against numpy
WEIGHT_TOL = 1e-13    # absolute, weights against the closed-form primitive
VARIANCE_REL_TOL = 1e-6
RISK_TOL = 1e-8       # relative (absolute below 1), population risk against numpy
AXIOM_CALLS_PER_TRIAL = 14   # 2+2+2+3+2+3 oracle calls over the six axioms


@dataclass
class Job:
    name: str
    argv: Optional[List[str]]             # riskcore CLI arguments
    check: Callable[[int, str], Optional[str]]   # -> problem, or None
    stdin: Optional[Path] = None          # file fed to standard input
    cold: bool = False                    # untraced: fresh interpreter per call
    call: Optional[Callable[[], tuple]] = None   # library job -> (rc, stdout)
    expect: Dict[str, float] = field(default_factory=dict)  # traced counters
    same_as: Optional[str] = None         # stdout must equal this job's
    timeout: Optional[float] = None       # job must hit this timeout


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    setup: Callable[[], None]             # in-process set-up and warm-up
    probe_argv: Optional[List[str]] = None  # cli: a cold call is the set-up
    verify: List[Job] = field(default_factory=list)  # run cold after the timed passes
    # run the benchmark and every process it starts on one CPU. The vCPUs of
    # a shared host differ in speed from minute to minute, so a cold job is
    # scaled only by a calibration taken on its own CPU; and a round trip
    # between riskcore and an oracle is then a context switch, not a
    # wake-up of the other vCPU, whose cost varies several-fold. Workloads
    # with --threads 2 jobs need both CPUs.
    one_cpu: bool = False

    def __post_init__(self):
        # outcomes, verdicts and traced counters are all keyed by job name
        names = [job.name for job in self.jobs + self.verify]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"{self.name}: job names used twice: {repeated}")


# -- helpers ----------------------------------------------------------------

def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _write_sample(path: Path, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pnl\n")
        fh.write("\n".join(map(repr, values.tolist())))
        fh.write("\n")


def _monotone_simplex(rng, n):
    raw = rng.exponential(size=n)
    return np.sort(raw / raw.sum())[::-1]


def _simplex(rng, n):
    raw = rng.exponential(size=n)
    return raw / raw.sum()


def _close(value, expected, rel):
    return abs(value - expected) <= rel * max(1.0, abs(expected))


def _number(expected, what):
    def check(rc, out):
        if rc != 0:
            return f"{what}: exit {rc}"
        value = float(out.strip())
        if not _close(value, expected, ES_TOL):
            return f"{what}: {value!r} != reference {expected!r}"
        return None
    return check


def _vector(key, expected, tol, what):
    def check(rc, out):
        if rc != 0:
            return f"{what}: exit {rc}"
        got = np.asarray(json.loads(out)[key], dtype=np.float64)
        if got.shape != expected.shape:
            return f"{what}: {got.size} values, expected {expected.size}"
        worst = float(np.max(np.abs(got - expected)))
        if worst > tol:
            return f"{what}: off the reference by {worst:.3g}"
        return None
    return check


def _python() -> str:
    return shlex.quote(sys.executable)


def _in_process_setup(spectra, dists, warmup_argv, extra=None):
    """import riskcore, build the workload's spectra and laws, warm up."""
    def setup():
        import io
        from contextlib import redirect_stdout

        import riskcore.cli as cli
        from riskcore import distribution_from_json, spectrum_from_json
        for spec in spectra:
            spectrum_from_json(spec)
        for dist in dists:
            distribution_from_json(dist)
        if extra is not None:
            extra()
        with redirect_stdout(io.StringIO()):
            cli.main(warmup_argv)
    return setup


UNIFORM = {"type": "uniform", "a": 0.0, "b": 1.0}
NORMAL = {"type": "normal", "mean": 0.0, "sd": 1.0}
EXPONENTIAL = {"type": "exponential", "rate": 1.0}


# -- cli ---------------------------------------------------------------------

def cli_workload(rng, work: Path) -> Workload:
    window = 0.01 * rng.standard_t(STUDENT_DF, WINDOW)
    big = 0.01 * rng.standard_t(STUDENT_DF, BIG)
    small_path, big_path = work / "window.txt", work / "big.txt"
    _write_sample(small_path, window)
    _write_sample(big_path, big)
    xs, xb = np.sort(window), np.sort(big)

    k_small = int(rng.integers(5, 30))
    k_big = int(rng.integers(5_000, 50_000))
    k_stdin = int(rng.integers(5_000, 50_000))
    exp_spec = {"type": "exponential", "k": float(rng.uniform(1.0, 10.0))}
    lin_spec = {"type": "linear", "slope": float(rng.uniform(0.0, 2.0))}
    a = _monotone_simplex(rng, WINDOW)
    mu = _simplex(rng, WINDOW)
    vertices = np.array([_monotone_simplex(rng, WINDOW) for _ in range(3)])
    a2 = _monotone_simplex(rng, WINDOW)
    mu2 = _simplex(rng, WINDOW)

    es_prof = ref.es_profile(xs)
    scores = vertices @ -xs
    best = int(np.argmax(scores))

    def repset_check(rc, out):
        if rc != 0:
            return f"estimate --repset: exit {rc}"
        obj = json.loads(out)
        if obj["argmax_index"] != best or not _close(obj["value"], scores[best], ES_TOL):
            return f"estimate --repset: {obj} != ({scores[best]!r}, {best})"
        return None

    k = np.arange(1, WINDOW + 1)
    decomposed = np.clip(k * (a2 - np.append(a2[1:], 0.0)), 0.0, None)
    composed = np.cumsum((mu2 / k)[::-1])[::-1]
    s, b = str(small_path), str(big_path)
    lines = {"cli.read_sample_lines": WINDOW}
    jobs = [
        Job("es", ["es", "--sample", s, "--k", str(k_small)],
            _number(ref.discrete_es(xs, k_small), "es"), expect=lines),
        Job("estimate-spectrum", ["estimate", "--sample", s, "--spectrum", _dumps(exp_spec)],
            _number(float(ref.canonical_weights(exp_spec, WINDOW) @ -xs), "estimate --spectrum"),
            expect=lines),
        Job("estimate-weights", ["estimate", "--sample", s, "--weights", _dumps({"weights": a.tolist()})],
            _number(float(a @ -xs), "estimate --weights"), expect=lines),
        Job("estimate-mixture", ["estimate", "--sample", s, "--mixture", _dumps({"mixture": mu.tolist()})],
            _number(float(mu @ es_prof), "estimate --mixture"), expect=lines),
        Job("estimate-repset", ["estimate", "--sample", s, "--repset",
                                _dumps({"vertices": vertices.tolist()})],
            repset_check, expect=lines),
        Job("weights", ["weights", "--spectrum", _dumps(lin_spec), "--n", str(WINDOW)],
            _vector("weights", ref.canonical_weights(lin_spec, WINDOW), WEIGHT_TOL, "weights")),
        Job("decompose", ["decompose", "--weights", _dumps({"weights": a2.tolist()})],
            _vector("mixture", decomposed, WEIGHT_TOL, "decompose")),
        Job("compose", ["compose", "--mixture", _dumps({"mixture": mu2.tolist()})],
            _vector("weights", composed, WEIGHT_TOL, "compose")),
        Job("es-1e6", ["es", "--sample", b, "--k", str(k_big)],
            _number(ref.discrete_es(xb, k_big), "es 1e6"),
            expect={"cli.read_sample_lines": BIG}),
        Job("estimate-spectrum-1e6", ["estimate", "--sample", b, "--spectrum", _dumps(exp_spec)],
            _number(float(ref.canonical_weights(exp_spec, BIG) @ -xb), "estimate 1e6"),
            expect={"cli.read_sample_lines": BIG}),
        Job("es-stdin-1e6", ["es", "--sample", "-", "--k", str(k_stdin)],
            _number(ref.discrete_es(xb, k_stdin), "es stdin 1e6"), stdin=big_path,
            expect={"cli.read_sample_lines": BIG}),
        Job("weights-1e6", ["weights", "--spectrum", _dumps(exp_spec), "--n", str(BIG)],
            _vector("weights", ref.canonical_weights(exp_spec, BIG), WEIGHT_TOL, "weights 1e6")),
    ]
    for job in jobs:
        job.cold = True
    probe = ["es", "--sample", s, "--k", str(k_small)]
    # untraced runs start every job cold; the in-process set-up serves traced runs
    return Workload("cli", jobs, _in_process_setup([], [], probe), probe_argv=probe,
                    one_cpu=True)


# -- variance ----------------------------------------------------------------

#: (spectrum, law) -> closed form of the variance, criterion-7 tolerance
CLOSED_FORMS = {
    ("uniform", "uniform"): (1.0 / 12.0, 1e-6),
    ("uniform", "normal"): (1.0, 1e-4),
    ("uniform", "exponential"): (1.0, 1e-4),
    ("linear", "uniform"): (4.0 / 45.0, 1e-6),
}


def _piecewise_spectrum(rng):
    t = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]])
    v = np.sort(rng.uniform(0.2, 2.0, 5))[::-1]
    v = v / np.trapezoid(v, t)
    return {"type": "piecewise_linear", "knots": np.column_stack([t, v]).tolist()}


def variance_spectra(rng):
    """The grid's spectra, each with the label its jobs are named by."""
    return {
        "uniform": {"type": "uniform"},
        "linear2": {"type": "linear", "slope": 2.0},
        "exponential1": {"type": "exponential", "k": 1.0},
        "exponential5": {"type": "exponential", "k": 5.0},
        "es0.05": {"type": "es", "alpha": 0.05},
        "piecewise": _piecewise_spectrum(rng),
    }


def variance_workload(rng, work: Path) -> Workload:
    labelled = variance_spectra(rng)
    spectra = list(labelled.values())
    dists = [UNIFORM, NORMAL, EXPONENTIAL]
    jobs = []
    for label, spec in labelled.items():
        for dist in dists:
            closed = CLOSED_FORMS.get((spec["type"], dist["type"]))

            def check(rc, out, spec=spec, dist=dist, closed=closed):
                if rc != 0:
                    return f"exit {rc}"
                value = float(out.strip())
                expected = ref.asymptotic_variance(spec, dist)
                if abs(value - expected) > VARIANCE_REL_TOL * abs(expected):
                    return f"{value!r} != reference {expected!r}"
                if closed is not None and abs(value - closed[0]) > closed[1]:
                    return f"{value!r} != closed form {closed[0]!r}"
                return None

            jobs.append(Job(f"{label}-{dist['type']}",
                            ["variance", "--spectrum", _dumps(spec), "--dist", _dumps(dist)],
                            check))
    warmup = ["variance", "--spectrum", _dumps(spectra[1]), "--dist", _dumps(UNIFORM)]
    return Workload("variance", jobs, _in_process_setup(spectra, dists, warmup))


# -- experiments -------------------------------------------------------------

def _report_check(rc, out, must_pass, results_check=None):
    """Schema, exit code consistent with `passed`, `passed` itself where the
    config is one the acceptance criteria expect to pass, then the results
    against independent references."""
    report = json.loads(out)
    if report.get("schema") != "riskcore/1":
        return f"schema {report.get('schema')!r}"
    want = 0 if report["passed"] is not False else 1
    if rc != want:
        return f"exit {rc} but passed={report['passed']}"
    if must_pass and report["passed"] is not True:
        return f"passed={report['passed']} on an acceptance config"
    return None if results_check is None else results_check(report["results"])


def _sigma2_check(spec, dist):
    expected = float(ref.asymptotic_variance(spec, dist))

    def check(results):
        if abs(results["sigma2"] - expected) > VARIANCE_REL_TOL * abs(expected):
            return f"sigma2 {results['sigma2']!r} != reference {expected!r}"
        return None
    return check


def _clt_results_check(spec, dist):
    sigma2 = _sigma2_check(spec, dist)
    risk = float(ref.population_risk(spec, dist))

    def check(results):
        if not _close(results["population_risk"], risk, RISK_TOL):
            return f"population_risk {results['population_risk']!r} != reference {risk!r}"
        return sigma2(results)
    return check


def _rows_check(results):
    """Each row's median and max restate its errors (consistency)."""
    for row in results["per_n"]:
        errs = np.asarray(row["errors"], dtype=np.float64)
        if len(errs) == 0 or errs.min() < 0.0:
            return f"n={row['n']}: errors {errs.tolist()[:3]}..."
        if row["median_error"] != float(np.median(errs)) or row["max_error"] != errs.max():
            return f"n={row['n']}: median/max do not restate the errors"
    return None


def _slope_check(results):
    """The reported slope is the least-squares fit of log median error on log n."""
    n = np.asarray([row["n"] for row in results["per_n"]], dtype=np.float64)
    med = np.asarray([row["median_error"] for row in results["per_n"]])
    A = np.column_stack([np.log(n), np.ones_like(n)])
    (slope, intercept), *_ = np.linalg.lstsq(A, np.log(med), rcond=None)
    if abs(results["slope"] - slope) > 1e-9 or abs(results["intercept"] - intercept) > 1e-9:
        return f"slope {results['slope']!r} != least squares {slope!r}"
    return None


def experiments_workload(rng, work: Path) -> Workload:
    seeds = iter(int(s) for s in rng.integers(0, 2**31, size=16))
    uniform, linear = {"type": "uniform"}, {"type": "linear", "slope": 2.0}
    rate_grid = [100, 316, 1000, 3162, 10000, 31623, 100000]

    def report(must_pass, results_check):
        return lambda rc, out: _report_check(rc, out, must_pass, results_check)

    def clt(name, spec, dist, n, reps, must_pass):
        config = {"spectrum": spec, "dist": dist, "n": n, "reps": reps}
        return Job(name, ["clt", "--config", _dumps(config), "--seed", str(next(seeds))],
                   report(must_pass, _clt_results_check(spec, dist)),
                   expect={"harness.replicates": reps, "harness.draws": n * reps})

    def bootstrap(name, spec, dist, n, B, must_pass):
        config = {"spectrum": spec, "dist": dist, "n": n, "B": B}
        return Job(name, ["bootstrap", "--config", _dumps(config), "--seed", str(next(seeds))],
                   report(must_pass, _sigma2_check(spec, dist)),
                   expect={"harness.replicates": B,
                           "asymptotics.bootstrap_replicates": B, "harness.draws": n})

    def sweep(name, kind, config, reps, results_check):
        config = dict(config, reps=reps)
        grid = config["n_grid"]
        return Job(name, [kind, "--config", _dumps(config), "--seed", str(next(seeds))],
                   report(True, results_check),
                   expect={"harness.replicates": reps * len(grid),
                           "harness.draws": reps * sum(grid)})

    def threads2(job):
        return Job(job.name + "-threads2", job.argv + ["--threads", "2"], job.check,
                   expect=job.expect, same_as=job.name)

    # acceptance and README configs must pass; the small-n ones need only
    # report consistently
    boot = bootstrap("bootstrap", linear, NORMAL, 2000, 2000, True)
    cons = sweep("consistency", "consistency",
                 {"class": "bundled", "dist": UNIFORM, "n_grid": [100_000],
                  "threshold": 0.01, "min_pass_fraction": 0.95}, 20, _rows_check)
    jobs = [
        clt("clt-uniform", uniform, UNIFORM, 2000, 2000, True),
        clt("clt-normal", uniform, NORMAL, 2000, 2000, True),
        boot, threads2(boot),
        cons, threads2(cons),
        sweep("rate", "rate", {"class": [uniform], "dist": NORMAL, "n_grid": rate_grid,
                               "slope_band": [-0.65, -0.35]}, 50, _slope_check),
        bootstrap("bootstrap-250", {"type": "exponential", "k": 2.0}, NORMAL, 250, 20_000,
                  False),
        clt("clt-small", uniform, UNIFORM, 100, 20_000, False),
    ]
    # the cold driver must print what the in-process one printed
    verify = [Job(j.name + "-cold", j.argv, j.check, same_as=j.name)
              for j in jobs if j.name in ("clt-uniform", "bootstrap", "consistency-threads2", "rate")]

    def build_class():
        from riskcore import bundled_lipschitz_class
        bundled_lipschitz_class()

    warmup = ["clt", "--config", _dumps({"spectrum": uniform, "dist": UNIFORM, "n": 50, "reps": 20}),
              "--seed", "1"]
    setup = _in_process_setup([uniform, linear], [UNIFORM, NORMAL], warmup, build_class)
    return Workload("experiments", jobs, setup, verify=verify)


# -- oracle ------------------------------------------------------------------

def _axioms_passed(trials, n):
    def check(rc, out):
        report = json.loads(out)
        if rc != 0 or report["passed"] is not True:
            return f"exit {rc}, passed={report['passed']}"
        if report["trials"] != trials or report["n"] != n or not all(report["axioms"].values()):
            return f"unexpected report {report}"
        return None
    return check


def _foil_check(rc, out):
    report = json.loads(out)
    if rc != 1 or report["passed"] is not False:
        return f"foil: exit {rc}, passed={report['passed']}"
    ce = report.get("counterexamples", {}).get("cash_additivity")
    if ce is None:
        return "foil: no cash_additivity counterexample"
    x = np.asarray(ce["x"], dtype=np.float64)
    lhs = statistics.stdev((x + ce["m"]).tolist())
    rhs = statistics.stdev(x.tolist()) - ce["m"]
    if abs(lhs - ce["lhs"]) > 1e-12 or abs(rhs - ce["rhs"]) > 1e-12:
        return f"foil: counterexample does not re-evaluate ({lhs!r}, {rhs!r})"
    if abs(lhs - rhs) <= 1e-9 * (1.0 + np.abs(x).max() + abs(ce["m"])):
        return "foil: counterexample is within tolerance"
    return None


def oracle_workload(rng, work: Path) -> Workload:
    py = _python()
    k_axioms = int(rng.integers(1, 6))
    k_recover = int(rng.integers(10, 200))
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    axiom_n, axiom_trials = 20, 2000
    lib_n, lib_trials, lib_k = 8, 2000, float(rng.uniform(0.5, 5.0))
    recover_n = 2000
    des = f"{py} tests/oracles/des_oracle.py"
    recover_expected = np.where(np.arange(recover_n) < k_recover, 1.0 / k_recover, 0.0)

    def lib_axioms(trials=lib_trials):
        # imported at call time, so that a traced run sees the rebound names
        from riskcore import (RngSpec, canonical_weights, check_axioms,
                              exponential_spectrum, l_estimator_oracle)
        oracle = l_estimator_oracle(canonical_weights(exponential_spectrum(lib_k), lib_n))
        report = check_axioms(oracle, lib_n, trials, RngSpec(seeds[2]))
        return (0 if report.passed else 1), json.dumps(report.to_dict()) + "\n"

    jobs = [
        Job("axioms-des", ["axioms", "--oracle", f"{des} {k_axioms}", "--n", str(axiom_n),
                           "--trials", str(axiom_trials), "--seed", str(seeds[0])],
            _axioms_passed(axiom_trials, axiom_n), cold=True,
            expect={"harness.oracle_calls": AXIOM_CALLS_PER_TRIAL * axiom_trials,
                    "cli.oracle_calls": AXIOM_CALLS_PER_TRIAL * axiom_trials,
                    "harness.axiom_trials": axiom_trials}),
        Job("axioms-foil", ["axioms", "--oracle", f"{py} tests/oracles/std_oracle.py",
                            "--n", "5", "--trials", str(axiom_trials), "--seed", str(seeds[1])],
            _foil_check, cold=True),
        Job("recover", ["recover", "--oracle", f"{des} {k_recover}", "--n", str(recover_n)],
            _vector("weights", recover_expected, 1e-12, "recover"), cold=True,
            expect={"estimators.recover_probes": recover_n + 1,
                    "cli.oracle_calls": recover_n + 1}),
        Job("axioms-inprocess", None, _axioms_passed(lib_trials, lib_n), call=lib_axioms,
            expect={"harness.oracle_calls": AXIOM_CALLS_PER_TRIAL * lib_trials,
                    "harness.axiom_trials": lib_trials}),
    ]
    lock = work / "silent_oracle.lock"
    verify = [Job("timeout", ["recover", "--oracle", f"{py} perfbench/silent_oracle.py {lock}",
                              "--n", "3"], lambda rc, out: None, timeout=2.0)]

    warmup = ["weights", "--spectrum", _dumps({"type": "exponential", "k": lib_k}),
              "--n", str(lib_n)]
    setup = _in_process_setup([], [], warmup, lambda: lib_axioms(trials=10))
    return Workload("oracle", jobs, setup, verify=verify, one_cpu=True)


BUILDERS = {
    "cli": cli_workload,
    "variance": variance_workload,
    "experiments": experiments_workload,
    "oracle": oracle_workload,
}


def build(name: str, seed: int, work: Path) -> Workload:
    return BUILDERS[name](np.random.default_rng(seed % 2**64), work)
