"""Tests of the benchmark's own machinery: the tracer, the job runner and the
calibration scaling.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import io
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import AXIOM_CALLS_PER_TRIAL, Job  # noqa: E402


def _cli(argv):
    import riskcore.cli as cli

    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _traced(fn):
    tracer = tr.Tracer()
    tracer.install()
    try:
        result = tracer.run_job("job", fn)
    finally:
        tracer.uninstall()
    return tracer, result


def test_counters_are_exact_across_threads():
    tracer = tr.Tracer()
    calls, threads = 2000, 8
    work = tracer.wrap("harness.sample_from", lambda: tracer.count("n"))

    def spawn_and_join():
        pool = [threading.Thread(target=lambda: [work() for _ in range(calls)])
                for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)

    outer = tracer.wrap("harness.clt_check", spawn_and_join)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.run_job("job", outer)
    finally:
        sys.setswitchinterval(interval)
    assert tracer.counts["job"]["n"] == calls * threads
    inner = [s for s in tracer.spans if s[1] == "harness.sample_from"]
    root = [s for s in tracer.spans if s[1] == "harness.clt_check"]
    assert len(inner) == calls * threads and len(root) == 1
    # pool threads charge their spans to the span that started them
    assert {s[4] for s in inner} == {root[0][0]}


def test_self_time_subtracts_the_union_of_children():
    spans = [(1, "harness.clt_check", 0.0, 10.0, 0, "j"),
             (2, "harness.sample_from", 1.0, 4.0, 1, "j"),
             (3, "harness.sample_from", 3.0, 5.0, 1, "j"),
             (4, "harness.sample_from", 8.0, 12.0, 1, "j")]
    idx = tr.SpanIndex(spans)
    assert idx.self_time(spans[0]) == 10.0 - 4.0 - 2.0


def test_traced_stdout_is_identical_and_bindings_are_restored():
    import riskcore.asymptotics
    import riskcore.quadrature

    argv = ["variance", "--spectrum", '{"type":"linear","slope":2}',
            "--dist", '{"type":"uniform","a":0,"b":1}']
    plain = _cli(argv)
    tracer, traced = _traced(lambda: _cli(argv))
    assert traced == plain
    assert tracer.counts["job"]["quadrature.evals"] > 0
    assert riskcore.asymptotics.integrate_piecewise is riskcore.quadrature.integrate_piecewise
    assert not hasattr(riskcore.quadrature.integrate_piecewise, "__wrapped__")


def test_axiom_and_recovery_counters():
    import riskcore as rc

    oracle = rc.l_estimator_oracle(rc.canonical_weights(rc.exponential_spectrum(2.0), 8))
    trials, n = 50, 8
    # names are looked up on the module at call time, after the tracer rebinds them
    tracer, _ = _traced(lambda: (rc.check_axioms(oracle, n, trials, rc.RngSpec(3)),
                                 rc.recover_comonotonic_weights(oracle, n)))
    counts = tracer.counts["job"]
    assert counts["harness.oracle_calls"] == AXIOM_CALLS_PER_TRIAL * trials
    assert counts["harness.axiom_trials"] == trials
    assert counts["estimators.recover_probes"] == n + 1


def test_replicate_and_draw_counters_with_two_threads():
    config = '{"spectrum":{"type":"uniform"},"dist":{"type":"uniform","a":0,"b":1},' \
             '"n":100,"reps":300}'
    one = _cli(["clt", "--config", config, "--seed", "4"])
    tracer, two = _traced(lambda: _cli(["clt", "--config", config, "--seed", "4",
                                        "--threads", "2"]))
    assert two == one
    counts = tracer.counts["job"]
    assert counts["harness.replicates"] == 300
    assert counts["harness.draws"] == 100 * 300
    assert len([s for s in tracer.spans if s[1] == "harness.sample_from"]) == 300


def test_timeout_kills_the_oracle_grandchild(tmp_path):
    import fcntl

    lock = tmp_path / "oracle.lock"
    job = Job("timeout", ["recover", "--oracle",
                          f"{sys.executable} {HERE / 'silent_oracle.py'} {lock}",
                          "--n", "3"], lambda rc, out: None, timeout=1.0)
    started = perf_counter()
    outcome = run.Runner(tmp_path, started).cold(job)
    assert outcome.timed_out
    assert perf_counter() - started < 10.0
    assert lock.read_text().startswith("locked")
    with open(lock, "r+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)   # raises while the stub lives


def test_workload_rejects_repeated_job_names():
    import pytest

    from workloads import Workload

    jobs = [Job("a", ["es"], lambda rc, out: None), Job("a", ["es"], lambda rc, out: None)]
    with pytest.raises(ValueError, match="used twice"):
        Workload("w", jobs, setup=lambda: None)


def test_population_risk_reference_closed_forms():
    import math

    import references as ref

    uniform, normal = {"type": "uniform", "a": 0.0, "b": 1.0}, {"type": "normal", "mean": 0.0, "sd": 1.0}
    assert abs(ref.population_risk({"type": "uniform"}, uniform) + 0.5) < 1e-10
    # -int q(u) (2 - 2u) du = 2 E[X Phi(X)] = 1 / sqrt(pi) for the standard normal
    linear = {"type": "linear", "slope": 2.0}
    assert abs(ref.population_risk(linear, normal) - 1.0 / math.sqrt(math.pi)) < 1e-10
    # ES at level alpha of U(0, 1) is -alpha / 2
    assert abs(ref.population_risk({"type": "es", "alpha": 0.05}, uniform) + 0.025) < 1e-12


def test_jobs_are_scaled_by_the_median_calibration_near_them():
    import math

    class StubRunner:
        def __init__(self):
            self.calibrations = iter([0.01, 0.03, 0.02])   # before a, after a, after b

        def calibrate(self):
            return next(self.calibrations)

        def in_process(self, job):
            return run.Outcome(rc=0, latency={"a": 1.0, "b": 2.0}[job.name])

    jobs = [Job(name, [name], lambda rc, out: None) for name in ("a", "b")]
    measured, outcomes = run.run_pass(jobs, StubRunner(), cold_allowed=True)
    assert measured == 3.0
    assert math.isclose(outcomes["a"].host, 0.02) and math.isclose(outcomes["b"].host, 0.025)

    # one stray calibration is outvoted; a lasting change of speed is followed
    ref, w = run.CAL_REFERENCE_S, run.CAL_WINDOW
    hosts = [0.01] * (2 * w) + [0.5] + [0.01] * (2 * w) + [0.02] * (2 * w + 1)
    ran = [run.Outcome(latency=1.0, host=h) for h in hosts]
    run.to_reference(ran)
    assert math.isclose(ran[2 * w].scaled, ref / 0.01)
    assert math.isclose(ran[0].scaled, ref / 0.01)
    assert math.isclose(ran[-1].scaled, ref / 0.02)
