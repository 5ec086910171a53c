"""Spans and counters recorded from outside riskcore.

The tracer wraps public functions of the riskcore modules and rebinds each
wrapped name in every riskcore module that holds it, so a call from one
module into another goes through the wrapper. Nothing under ``src/`` is
edited; ``uninstall`` puts every original binding back.

A span is ``(id, name, start, end, parent, job)``. Spans stay in memory
and are written out when the run ends. A worker thread that opens a span
with no span of its own open takes as parent the innermost open span of
the thread that runs the job, so replicate work done by a thread pool is
charged to the experiment that started the pool.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _with_arg(args, kwargs, index, name, value):
    if len(args) > index:
        args = args[:index] + (value,) + args[index + 1:]
    else:
        kwargs = dict(kwargs, **{name: value})
    return args, kwargs


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.job = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Name of the innermost open span seen from this thread."""
        stack = self._stack() or self._root
        return stack[-1][1] if stack else None

    def count(self, key, value=1):
        with self._lock:
            self.counts[self.job][key] += value

    def run_job(self, job, fn):
        """Run fn() as job `job` on this thread, which becomes the job thread."""
        self.job = job
        self._local.stack = self._root
        try:
            return fn()
        finally:
            self._root.clear()
            self.job = None

    def wrap(self, name, fn, before=None, after=None):
        tracer = self
        if name in NO_SPAN:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                args, kwargs = before(tracer, args, kwargs)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            stack = tracer._stack()
            parent = stack[-1][0] if stack else (
                tracer._root[-1][0] if tracer._root else 0)
            sid = next(tracer._ids)
            stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.job))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every function in HOOKS and rebind it where riskcore looks it up."""
        for module_name, qualname, before, after in HOOKS:
            module = importlib.import_module("riskcore." + module_name)
            owner_name, _, attr = qualname.rpartition(".")
            name = f"{module_name}.{qualname}"
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self.wrap(name, original, before, after))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, before, after)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "riskcore":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,job\n")
            for sid, name, start, end, parent, job in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{job}\n")


# -- hooks: argument rewrites and counters ---------------------------------

def _count_evals(tracer, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    if getattr(f, "_perfbench_counted", False):
        return args, kwargs

    def counted(x):
        tracer.count("quadrature.evals")
        return f(x)

    counted._perfbench_counted = True
    return _with_arg(args, kwargs, 0, "f", counted)


def _count_draws(tracer, args, kwargs):
    tracer.count("harness.draws", int(_arg(args, kwargs, 2, "n")))
    return args, kwargs


def _count_replicates(tracer, args, kwargs):
    fn = _arg(args, kwargs, 0, "fn")
    keys = ["harness.replicates"]
    if tracer.current() == "asymptotics.bootstrap_distribution":
        keys.append("asymptotics.bootstrap_replicates")

    def counted(i):
        for key in keys:
            tracer.count(key)
        return fn(i)

    return _with_arg(args, kwargs, 0, "fn", counted)


def _count_weights(tracer, args, kwargs):
    tracer.count("spectra.weights_n", int(_arg(args, kwargs, 1, "n")))
    return args, kwargs


def _count_lines(tracer, args, kwargs, result):
    tracer.count("cli.read_sample_lines", result.n)


def _count_oracle_request(tracer, args, kwargs):
    values = np.asarray(_arg(args, kwargs, 1, "values"), dtype=np.float64)
    line = " ".join(repr(float(v)) for v in values)
    tracer.count("cli.oracle_calls")
    tracer.count("cli.oracle_bytes", len(line) + 1)
    return args, kwargs


def _probe_counter(key):
    def before(tracer, args, kwargs):
        tracer.count(key)
        return args, kwargs
    return before


def _wrap_recover_oracle(tracer, args, kwargs):
    oracle = _arg(args, kwargs, 0, "oracle")
    probe = tracer.wrap("estimators.probe", oracle,
                        _probe_counter("estimators.recover_probes"))
    return _with_arg(args, kwargs, 0, "oracle", probe)


def _wrap_axiom_oracle(tracer, args, kwargs):
    tracer.count("harness.axiom_trials", int(_arg(args, kwargs, 2, "trials")))
    oracle = _arg(args, kwargs, 0, "oracle")
    call = tracer.wrap("harness.oracle", oracle,
                       _probe_counter("harness.oracle_calls"))
    return _with_arg(args, kwargs, 0, "oracle", call)


#: (module, function or Class.method, before hook, after hook)
HOOKS = [
    ("cli", "main", None, None),
    ("cli", "read_sample", None, _count_lines),
    ("cli", "SubprocessOracle.__call__", _count_oracle_request, None),
    ("core", "Sample.__init__", None, None),
    ("core", "t_map", None, None),
    ("core", "t_inverse", None, None),
    ("estimators", "discrete_es", None, None),
    ("estimators", "discrete_es_profile", None, None),
    ("estimators", "l_estimate", None, None),
    ("estimators", "mixture_estimate", None, None),
    ("estimators", "robust_sup", None, None),
    ("estimators", "kusuoka_plugin", None, None),
    ("estimators", "recover_comonotonic_weights", _wrap_recover_oracle, None),
    ("spectra", "canonical_weights", _count_weights, None),
    ("population", "population_spectral_risk", None, None),
    ("quadrature", "integrate_piecewise", _count_evals, None),
    ("quadrature", "adaptive_simpson", _count_evals, None),
    ("asymptotics", "asymptotic_variance", None, None),
    ("asymptotics", "bootstrap_distribution", None, None),
    ("asymptotics", "kolmogorov_distance", None, None),
    ("asymptotics", "truncated_kolmogorov", None, None),
    ("asymptotics", "wasserstein1", None, None),
    ("harness", "sample_from", _count_draws, None),
    ("harness", "clt_check", None, None),
    ("harness", "bootstrap_check", None, None),
    ("harness", "consistency_sweep", None, None),
    ("harness", "rate_experiment", None, None),
    ("harness", "check_axioms", _wrap_axiom_oracle, None),
    ("asymptotics", "indexed_map", _count_replicates, None),
]

# indexed_map runs the replicate loop inside the experiment's own span, so
# it is counted but opens no span of its own: the loop is the experiment's
# self time.
NO_SPAN = {"asymptotics.indexed_map"}

ESTIMATOR_SPANS = {
    "estimators.discrete_es", "estimators.discrete_es_profile",
    "estimators.l_estimate", "estimators.mixture_estimate",
    "estimators.robust_sup", "estimators.kusuoka_plugin",
}
EXPERIMENT_SPANS = {
    "harness.clt_check", "harness.bootstrap_check",
    "harness.consistency_sweep", "harness.rate_experiment",
}
DISTANCE_SPANS = {
    "asymptotics.kolmogorov_distance", "asymptotics.truncated_kolmogorov",
    "asymptotics.wasserstein1",
}
ORACLE_SPANS = {"harness.oracle", "estimators.probe",
                "cli.SubprocessOracle.__call__"}


# -- per-layer metrics -------------------------------------------------------

def _covered(start, end, kids):
    """Length of [start, end] covered by the union of the kids' intervals."""
    total, lo, hi = 0.0, None, None
    for s, e in sorted((max(k[2], start), min(k[3], end)) for k in kids):
        if e <= s:
            continue
        if hi is None or s > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    return total + (hi - lo if hi is not None else 0.0)


class SpanIndex:
    """Parent/child structure of recorded spans."""

    def __init__(self, spans):
        self.spans = sorted(spans)
        self.name = {s[0]: s[1] for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            self.children[s[4]].append(s)
        # names of open ancestors; a parent's id is smaller than its child's
        self.above = {0: frozenset()}
        interned = {}
        for sid, _, _, _, parent, _ in self.spans:
            base = self.above.get(parent, frozenset())
            pname = self.name.get(parent)
            key = (base, pname)
            if key not in interned:
                interned[key] = base | {pname} if pname else base
            self.above[sid] = interned[key]

    def self_time(self, span):
        return span[3] - span[2] - _covered(span[2], span[3], self.children[span[0]])

    def select(self, names, entry_only=False, job=None):
        """Spans named in `names`; entry_only drops those opened inside another."""
        return [s for s in self.spans
                if s[1] in names and (job is None or s[5] == job)
                and not (entry_only and self.above[s[0]] & names)]


def _total(spans):
    return sum(s[3] - s[2] for s in spans)


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass: span times plus counters."""
    idx = SpanIndex(spans)
    c = defaultdict(float)
    for per_job in counts.values():
        for key, value in per_job.items():
            c[key] += value
    quad = {"quadrature.integrate_piecewise", "quadrature.adaptive_simpson"}
    quad_entry = idx.select(quad, entry_only=True)
    quad_calls = idx.select({"quadrature.integrate_piecewise"}) + [
        s for s in idx.select({"quadrature.adaptive_simpson"})
        if idx.name.get(s[4]) != "quadrature.integrate_piecewise"]
    experiments = idx.select(EXPERIMENT_SPANS)
    estimators = idx.select(ESTIMATOR_SPANS, entry_only=True)
    samples = idx.select({"core.Sample.__init__"}, entry_only=True)
    weights = idx.select({"spectra.canonical_weights"}, entry_only=True)
    risk = idx.select({"population.population_spectral_risk"}, entry_only=True)
    variance = idx.select({"asymptotics.asymptotic_variance"})
    quad_s = _total(quad_entry)
    experiment_s = _total(experiments)
    return {
        "cli.self_s": sum(idx.self_time(s) for s in idx.select({"cli.main"})),
        "cli.read_sample_s": _total(idx.select({"cli.read_sample"})),
        "cli.read_sample_lines": c["cli.read_sample_lines"],
        "cli.oracle_calls": c["cli.oracle_calls"],
        "cli.oracle_bytes": c["cli.oracle_bytes"],
        "cli.oracle_wait_s": _total(idx.select({"cli.SubprocessOracle.__call__"})),
        "core.sample_s": _total(samples),
        "core.sample_calls": len(samples),
        "estimators.s": _total(estimators),
        "estimators.calls": len(estimators),
        "estimators.recover_s": _total(
            idx.select({"estimators.recover_comonotonic_weights"})),
        "estimators.recover_probes": c["estimators.recover_probes"],
        "spectra.weights_s": _total(weights),
        "spectra.weights_calls": len(weights),
        "spectra.weights_n": c["spectra.weights_n"],
        "population.risk_s": _total(risk),
        "population.risk_calls": len(risk),
        "quadrature.s": quad_s,
        "quadrature.calls": len(quad_calls),
        "quadrature.evals": c["quadrature.evals"],
        "quadrature.evals_per_s": c["quadrature.evals"] / quad_s if quad_s else 0.0,
        "asymptotics.variance_s": _total(variance),
        "asymptotics.variance_calls": len(variance),
        "asymptotics.bootstrap_s": _total(
            idx.select({"asymptotics.bootstrap_distribution"})),
        "asymptotics.bootstrap_replicates": c["asymptotics.bootstrap_replicates"],
        "asymptotics.distance_s": _total(idx.select(DISTANCE_SPANS)),
        "harness.draw_s": _total(idx.select({"harness.sample_from"})),
        "harness.draws": c["harness.draws"],
        "harness.replicate_self_s": sum(idx.self_time(s) for s in experiments),
        "harness.replicates": c["harness.replicates"],
        "harness.replicates_per_s":
            c["harness.replicates"] / experiment_s if experiment_s else 0.0,
        "harness.oracle_calls": c["harness.oracle_calls"],
        "harness.oracle_s": _total(idx.select({"harness.oracle"})),
        "harness.axiom_trials": c["harness.axiom_trials"],
        "harness.oracle_calls_per_trial":
            c["harness.oracle_calls"] / c["harness.axiom_trials"]
            if c["harness.axiom_trials"] else 0.0,
        "oracle_s": _total(idx.select(ORACLE_SPANS, entry_only=True)),
    }


#: every per-layer metric a traced run prints, with its unit
PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.read_sample_s": "s",
    "cli.read_sample_lines": "count",
    "cli.self_s": "s",
    "cli.oracle_calls": "count",
    "cli.oracle_bytes": "bytes",
    "cli.oracle_wait_s": "s",
    "core.sample_s": "s",
    "core.sample_calls": "count",
    "estimators.s": "s",
    "estimators.calls": "count",
    "estimators.recover_probes": "count",
    "estimators.recover_s": "s",
    "spectra.weights_s": "s",
    "spectra.weights_calls": "count",
    "spectra.weights_n": "count",
    "population.risk_s": "s",
    "population.risk_calls": "count",
    "quadrature.s": "s",
    "quadrature.calls": "count",
    "quadrature.evals": "count",
    "quadrature.evals_per_s": "1/s",
    "asymptotics.variance_s": "s",
    "asymptotics.variance_calls": "count",
    "asymptotics.bootstrap_s": "s",
    "asymptotics.bootstrap_replicates": "count",
    "asymptotics.distance_s": "s",
    "harness.draw_s": "s",
    "harness.draws": "count",
    "harness.replicate_self_s": "s",
    "harness.replicates": "count",
    "harness.replicates_per_s": "1/s",
    "harness.oracle_calls": "count",
    "harness.oracle_s": "s",
    "harness.axiom_trials": "count",
    "harness.oracle_calls_per_trial": "count",
    "trace.overhead_s": "s",
    "failed_frac": "frac",
}
