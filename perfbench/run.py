"""riskcore benchmark driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 28 --trace 0

Workloads: cli, variance, experiments, oracle (see perfbench/NOTES.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, their times scaled to a reference
host by a calibration kernel timed between jobs (see to_reference); with
``--trace 1`` the jobs run in-process with the tracer installed and the
metrics are per-layer. The
run exits 1 when any job fails its check, and 2 when the checkout holds no
riskcore source.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"       # inputs, results and span files; git-ignored

JOB_TIMEOUT = 30.0     # seconds; a job that takes longer fails
RUN_DEADLINE = 150.0   # seconds after the start; later jobs fail unstarted
PROBES = 5             # set-up (or start-up) measurements per run
MIN_PASSES = 2
CAL_REFERENCE_S = 0.018 # the calibration kernel's time on the reference host
CAL_WINDOW = 3          # a job is scaled by the calibrations of the jobs this near


class JobTimeout(BaseException):
    """Raised by SIGALRM inside an in-process job; BaseException so that no
    handler inside riskcore can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


@dataclass
class Outcome:
    rc: object = None
    out: str = ""
    err: str = ""
    latency: float = 0.0
    maxrss_kb: int = 0
    timed_out: bool = False
    host: float = 0.0      # mean of the calibrations just before and after the job
    scaled: float = 0.0    # latency in reference-host seconds (see to_reference)


class Runner:
    """Runs one job at a time, cold (a fresh interpreter in its own process
    group) or in this process, with a per-job timeout."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_DEADLINE
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.cal_data = None   # the calibration kernel's input, made on first use

    def calibrate(self) -> float:
        """Seconds taken by a fixed CPU kernel: a Python loop, normal draws
        and a numpy sort.

        The vCPUs of a shared host change speed by a third or more from one
        stretch of seconds or minutes to the next, and every job slows or
        speeds up with them. to_reference scales timed jobs by this
        kernel's times around them."""
        import numpy as np

        if self.cal_data is None:
            self.cal_data = np.random.default_rng(0).standard_normal(100_000)
        started = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        np.random.default_rng(1).standard_normal(400_000)
        np.sort(self.cal_data)
        return perf_counter() - started

    def _timeout(self, job):
        if job.timeout is not None:
            return job.timeout
        return min(JOB_TIMEOUT, self.deadline - perf_counter())

    def cold(self, job) -> Outcome:
        return self.spawn([sys.executable, "-m", "riskcore.cli", *job.argv],
                          job.stdin, self._timeout(job))

    def spawn(self, cmd, stdin_path, timeout) -> Outcome:
        if timeout <= 0:
            return Outcome(timed_out=True, err="not started: run deadline passed")
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        lock = threading.Lock()
        state = {"done": False, "killed": False}
        with open(stdin_path or os.devnull, "rb") as fin, \
                open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
            started = perf_counter()
            proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr, cwd=ROOT,
                                    env=self.env, start_new_session=True)

            def kill():
                with lock:
                    if not state["done"]:
                        state["killed"] = True
                        os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            # wait without reaping, so the timer never signals a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            latency = perf_counter() - started
            with lock:
                state["done"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if state["killed"]:
            _wait_for_group(proc.pid)
        return Outcome(proc.returncode, out_path.read_text(), err_path.read_text(),
                       latency, usage.ru_maxrss, state["killed"])

    def in_process(self, job) -> Outcome:
        import riskcore.cli as cli

        timeout = self._timeout(job)
        if timeout <= 0:
            return Outcome(timed_out=True, err="not started: run deadline passed")
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        outcome = Outcome()
        with open(job.stdin or os.devnull, "r", encoding="utf-8") as fin:
            sys.stdin = fin
            started = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    if job.call is not None:
                        outcome.rc, text = job.call()
                        out.write(text)
                    else:
                        outcome.rc = cli.main(job.argv)
            except JobTimeout:
                outcome.timed_out = True
            except SystemExit as exc:
                outcome.rc = exc.code
            except Exception:
                err.write(traceback.format_exc())
                outcome.rc = "exception"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                outcome.latency = perf_counter() - started
                sys.stdin = saved_stdin
        outcome.out, outcome.err = out.getvalue(), err.getvalue()
        return outcome


def _wait_for_group(pgid, patience=5.0):
    """Wait until no process of a killed job's group is left, oracle
    grandchildren included."""
    until = perf_counter() + patience
    while perf_counter() < until:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        sleep(0.02)


def to_reference(outcomes):
    """Set each outcome's scaled latency, given the outcomes in the order
    they ran: its latency times CAL_REFERENCE_S over the median host
    calibration of the outcomes within CAL_WINDOW places of it. The median
    of several neighbours follows the host's drift over seconds without
    the noise of a single 18 ms calibration."""
    for i, outcome in enumerate(outcomes):
        near = outcomes[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]
        outcome.scaled = outcome.latency * CAL_REFERENCE_S / statistics.median(
            o.host for o in near)


def run_pass(jobs, runner, cold_allowed, tracer=None):
    """Run the jobs once, in order, each between two calibrations. Returns
    the makespan (the sum of the jobs' latencies, so the calibrations are
    left out) and the outcomes by job name."""
    outcomes = {}
    before = runner.calibrate()
    for job in jobs:
        if job.cold and cold_allowed:
            outcome = runner.cold(job)
        elif tracer is not None:
            outcome = tracer.run_job(job.name, lambda: runner.in_process(job))
        else:
            outcome = runner.in_process(job)
        after = runner.calibrate()
        outcome.host = (before + after) / 2.0
        outcomes[job.name] = outcome
        before = after
    return sum(o.latency for o in outcomes.values()), outcomes


def judge(job, outcome, peers):
    """The job's problem, or None. peers holds outcomes of the same pass."""
    if outcome.timed_out:
        return f"timed out ({outcome.err.strip() or 'killed'})"
    try:
        problem = job.check(outcome.rc, outcome.out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"malformed output ({type(exc).__name__}: {exc})"
    if problem is None and job.same_as is not None:
        other = peers.get(job.same_as)
        if other is None or other.out != outcome.out or other.rc != outcome.rc:
            problem = f"output differs from {job.same_as}"
    if problem is not None and outcome.err.strip():
        problem += f"; stderr: {outcome.err.strip().splitlines()[-1]}"
    return problem


class Ledger:
    """Jobs attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, problem):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")


def judge_passes(jobs, passes, ledger, tag):
    """Check the first pass against the references; later passes must
    repeat it byte for byte."""
    first = passes[0]
    verdicts = {job.name: judge(job, first[job.name], first) for job in jobs}
    for i, outcomes in enumerate(passes):
        for job in jobs:
            got, ref = outcomes[job.name], first[job.name]
            if i == 0:
                problem = verdicts[job.name]
            elif got.timed_out:
                problem = judge(job, got, outcomes)
            elif got.rc != ref.rc or got.out != ref.out:
                problem = "output differs from the first pass"
            else:
                problem = verdicts[job.name]
            ledger.record(f"{tag}{i}/{job.name}", problem)


def timeout_check(job, runner, ledger):
    """The job must hit its timeout, and the kill must take the oracle
    grandchild with it (the stub holds a lock until it is gone)."""
    import fcntl

    lock = Path(job.argv[job.argv.index("--oracle") + 1].split()[-1])
    outcome = runner.cold(job)
    problem = None
    if not outcome.timed_out:
        problem = f"expected a timeout, got exit {outcome.rc}"
    elif not lock.exists() or not lock.read_text().startswith("locked"):
        problem = "the oracle stub never started"
    else:
        with open(lock, "r+") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                problem = "the oracle stub survived the timeout"
    ledger.record(f"verify/{job.name}", problem)


# -- measurement ------------------------------------------------------------

def median_probe(cmd, runner, ledger, label):
    """Median time of PROBES cold runs of cmd, scaled to the reference host."""
    probes = []
    before = runner.calibrate()
    for i in range(PROBES):
        outcome = runner.spawn(cmd, None, JOB_TIMEOUT)
        after = runner.calibrate()
        outcome.host = (before + after) / 2.0
        problem = None
        if outcome.timed_out or outcome.rc != 0:
            problem = f"probe failed: exit {outcome.rc}, {outcome.err.strip()[-200:]}"
        ledger.record(f"{label}{i}", problem)
        probes.append(outcome)
        before = after
    to_reference(probes)
    return statistics.median(o.scaled for o in probes)


def untraced_run(wl, args, runner, ledger):
    if wl.probe_argv is not None:
        setup = median_probe([sys.executable, "-m", "riskcore.cli", *wl.probe_argv],
                             runner, ledger, "setup")
    else:
        setup = median_probe([sys.executable, str(Path(__file__)), "--workload", wl.name,
                              "--seed", str(args.seed), "--probe"], runner, ledger, "setup")
    in_process = any(not job.cold for job in wl.jobs)
    if in_process:
        wl.setup()
    passes, measured = [], []
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        wall, outcomes = run_pass(wl.jobs, runner, cold_allowed=True)
        passes.append(outcomes)
        measured.append(wall)
        elapsed = perf_counter() - started
        if len(passes) >= MIN_PASSES and \
                elapsed + (perf_counter() - pass_started) > args.seconds:
            break
        if any(o.timed_out for o in outcomes.values()):
            break
    to_reference([p[job.name] for p in passes for job in wl.jobs])
    walls = [sum(o.scaled for o in p.values()) for p in passes]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process else 0
    child_kb = max(o.maxrss_kb for p in passes for o in p.values())
    # each job's median over the passes, then the median over the jobs: a
    # pooled median would jump between jobs of different sizes whose
    # latencies interleave near the middle
    per_job = [statistics.median(p[job.name].scaled for p in passes) for job in wl.jobs]

    judge_passes(wl.jobs, passes, ledger, "pass")
    for job in wl.verify:
        if job.timeout is not None:
            timeout_check(job, runner, ledger)
        else:
            ledger.record(f"verify/{job.name}", judge(job, runner.cold(job), passes[0]))
    detail = {"passes": len(passes), "pass_wall_s": walls, "pass_wall_measured_s": measured,
              "jobs_per_pass": len(wl.jobs),
              "job_latency_s": {job.name: [p[job.name].scaled for p in passes]
                                for job in wl.jobs},
              "job_latency_measured_s": {job.name: [p[job.name].latency for p in passes]
                                         for job in wl.jobs}}
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "peak_rss_mb": (max(self_kb, child_kb) / 1024.0, "MB"),
    }
    return metrics, detail


def traced_run(wl, args, runner, ledger):
    import tracer as tr

    startup = median_probe([sys.executable, "-c", "import riskcore.cli"], runner, ledger,
                           "startup")
    wl.setup()
    # the first in-process pass also grows the heap; it is checked, not timed
    _, warm = run_pass(wl.jobs, runner, cold_allowed=False)
    judge_passes(wl.jobs, [warm], ledger, "warmup")
    rows, overheads = [], []
    started = perf_counter()
    while True:
        wall_plain, plain = run_pass(wl.jobs, runner, cold_allowed=False)
        tracer = tr.Tracer()
        tracer.install()
        try:
            wall_traced, traced = run_pass(wl.jobs, runner, cold_allowed=False, tracer=tracer)
        finally:
            tracer.uninstall()
        overheads.append(wall_traced - wall_plain)
        judge_passes(wl.jobs, [plain, traced], ledger, f"pair{len(rows)}-")
        for job in wl.jobs:
            counts = tracer.counts.get(job.name, {})
            wrong = {k: (counts.get(k, 0), v) for k, v in job.expect.items()
                     if counts.get(k, 0) != v}
            ledger.record(f"pair{len(rows)}-counters/{job.name}",
                          f"counter != expected: {wrong}" if wrong else None)
        row = tr.layer_metrics(tracer.spans, tracer.counts)
        row["_wall_traced_s"] = wall_traced
        rows.append(row)
        if len(rows) == 1:
            tracer.write(STATE / f"spans-{wl.name}.csv.gz")
        elapsed = perf_counter() - started
        if elapsed + elapsed / len(rows) > args.seconds:
            break
    merged = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    merged["cli.startup_s"] = startup
    merged["trace.overhead_s"] = statistics.median(overheads)
    detail = {"pairs": len(rows), "dominance": dominance(wl.name, merged)}
    return merged, detail


def dominance(name, m):
    """Share of the traced pass spent in the layer the workload targets.
    Reported, not enforced: an optimisation of that layer should lower it."""
    wall = m["_wall_traced_s"]
    shares = {
        "variance": ("quadrature", m["quadrature.s"] / wall, 0.90),
        "experiments": ("draws+replicates+bootstrap",
                        (m["harness.draw_s"] + m["harness.replicate_self_s"]
                         + m["asymptotics.bootstrap_s"]) / wall, 0.50),
        "oracle": ("oracle round trips", m["oracle_s"] / wall, 0.50),
    }
    if name == "cli":
        absent = m["quadrature.calls"] == 0 and m["harness.replicates"] == 0
        return {"quadrature and replicate spans absent": absent}
    layer, share, floor = shares[name]
    return {"layer": layer, "share": share, "expected_at_least": floor}


# -- entry ------------------------------------------------------------------

def metadata(seed):
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = got.stdout.strip() or commit
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: run the workload's set-up once and exit")
    args = parser.parse_args(argv)

    if not (SRC / "riskcore" / "cli.py").is_file() or \
            not (ROOT / "tests" / "oracles" / "des_oracle.py").is_file():
        print(f"perfbench: no riskcore source under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _alarm)

    work = STATE / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        if wl.one_cpu:
            # inherited by every process the run starts
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if args.probe:
            wl.setup()
            return 0
        ledger = Ledger()
        runner = Runner(work, perf_counter())
        run = traced_run if args.trace else untraced_run
        metrics, detail = run(wl, args, runner, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        import tracer as tr
        metrics["failed_frac"] = len(ledger.failures) / ledger.attempted
        values = {name: (float(metrics[name]), unit)
                  for name, unit in tr.PER_LAYER_UNITS.items()}
    else:
        values = metrics
    meta = metadata(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "meta": meta,
              "detail": detail, "failures": ledger.failures,
              "metrics": {k: v for k, (v, _) in values.items()}}
    (STATE / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("# meta " + json.dumps(meta))
    print("# detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if not ledger.failures else 1


if __name__ == "__main__":
    sys.exit(main())
