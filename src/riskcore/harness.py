"""Experiment drivers: randomized coherence-axiom verification and the
consistency / rate / CLT / bootstrap diagnostics, all reproducible from
(config, seed)."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .asymptotics import (
    RngSpec,
    asymptotic_variance,
    bootstrap_distribution,
    indexed_map,
    kolmogorov_distance,
    truncated_kolmogorov,
)
from .core import SCHEMA, RepresentingSet, Sample, ceil_level
from .errors import (
    DegenerateFit,
    DegenerateVariance,
    DomainError,
    NotLipschitz,
)
from .estimators import (
    Oracle,
    discrete_es_profile,
    kusuoka_plugin,
    oracle_values,
)
from .population import (
    ReferenceDistribution,
    distribution_from_json,
    distribution_to_json,
    population_spectral_risk,
)
from .spectra import (
    Spectrum,
    canonical_weights,
    exponential_spectrum,
    linear_spectrum,
    spectrum_from_json,
    spectrum_to_json,
    uniform_spectrum,
)

#: axiom-check tolerance is AXIOM_TOL * (1 + input scale)
AXIOM_TOL = 1e-9

#: trials an axiom draws and sends to the oracle together
AXIOM_BLOCK = 64

class LipschitzClass:
    """A finite family of spectra with shared bound and Lipschitz constants.

    Each member's own validation keeps it within its bound and its
    Lipschitz constant, and so within the class constants, which are the
    largest of the members'. Members without a declared Lipschitz constant
    (the expected-shortfall family) are rejected.
    """

    def __init__(self, members: Sequence[Spectrum]):
        members = tuple(members)
        if not members:
            raise DomainError("a spectral class needs at least one member")
        for phi in members:
            if phi.lipschitz is None:
                raise NotLipschitz(
                    f"{phi.kind} spectrum carries no Lipschitz constant"
                )
        self.members = members
        self.class_C = float(max(phi.bound for phi in members))
        self.class_L = float(max(phi.lipschitz for phi in members))


def bundled_lipschitz_class() -> LipschitzClass:
    """The class used by the stock consistency experiments: the uniform
    spectrum, the steepest admissible linear spectrum, and three
    exponential risk-aversion levels."""
    return LipschitzClass(
        [
            uniform_spectrum(),
            linear_spectrum(2.0),
            exponential_spectrum(1.0),
            exponential_spectrum(2.0),
            exponential_spectrum(5.0),
        ]
    )


def lipschitz_class_from_json(spec: object) -> LipschitzClass:
    """A class from its JSON description: "bundled", or a list of spectra."""
    if spec == "bundled":
        return bundled_lipschitz_class()
    if not isinstance(spec, list):
        raise DomainError(
            "config 'class' must be \"bundled\" or a list of spectra")
    return LipschitzClass([spectrum_from_json(s) for s in spec])


#: each experiment's driver and config fields: JSON name, json_field kind
#: and an optional field's default, in the order the driver takes them
#: (its RngSpec follows the fourth)
EXPERIMENT_FIELDS = {
    "clt": ("clt_check", [
        ("spectrum", spectrum_from_json), ("dist", distribution_from_json),
        ("n", int), ("reps", int), ("threshold", float, 0.05),
    ]),
    "bootstrap": ("bootstrap_check", [
        ("spectrum", spectrum_from_json), ("dist", distribution_from_json),
        ("n", int), ("B", int), ("threshold", float, 0.08),
        ("grid_m", int, 100),
    ]),
    "consistency": ("consistency_sweep", [
        ("class", lipschitz_class_from_json), ("dist", distribution_from_json),
        ("n_grid", [int]), ("reps", int), ("threshold", float, None),
        ("min_pass_fraction", float, 1.0),
    ]),
    "rate": ("rate_experiment", [
        ("class", lipschitz_class_from_json), ("dist", distribution_from_json),
        ("n_grid", [int]), ("reps", int),
        ("slope_band", (float, float), None),
    ]),
}

#: the JSON echo of a built config value, by the builder that reads it
_ECHO = {
    spectrum_from_json: spectrum_to_json,
    distribution_from_json: distribution_to_json,
    lipschitz_class_from_json:
        lambda cls: [spectrum_to_json(phi) for phi in cls.members],
}


def _echo(kind: object, value: object) -> object:
    """The JSON echo of a config value that json_field reads as kind: a
    float as it is, an int as an int, a list entry by entry."""
    if value is None or kind is float:
        return value
    if kind is int:
        return int(value)
    if isinstance(kind, list):
        return [_echo(kind[0], v) for v in value]
    if isinstance(kind, tuple):
        return [_echo(k, v) for k, v in zip(kind, value)]
    return _ECHO[kind](value)


@dataclass
class ExperimentReport:
    """Config echo plus results for one experiment run.

    Serialisation is deterministic and leaves wall time out, so that
    identical (config, seed) runs produce byte-identical JSON.
    """

    experiment: str
    config: dict
    results: dict
    passed: Optional[bool]
    seed: int
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "experiment": self.experiment,
            "config": self.config,
            "results": self.results,
            "passed": self.passed,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _report(
    experiment: str, values: Sequence[object], results: dict,
    passed: Optional[bool], rng: RngSpec, started: float,
) -> ExperimentReport:
    """The report of a run begun at perf_counter() `started`, its config
    echoed from the driver's field values in EXPERIMENT_FIELDS order."""
    fields = EXPERIMENT_FIELDS[experiment][1]
    config = {key: _echo(kind, value)
              for (key, kind, *_), value in zip(fields, values)}
    return ExperimentReport(experiment, config, results, passed, rng.seed,
                            time.perf_counter() - started)


#: the largest float below 1, which 1 - U is for the smallest U > 0
BELOW_ONE = np.nextafter(1.0, 0.0)


def sample_from(
    dist: ReferenceDistribution, gen: np.random.Generator, n: int
) -> np.ndarray:
    """Inverse-transform draws at 1 - U, which lies in (0, 1) for every
    U > 0; U = 0 is read as the smallest U > 0, so no draw is infinite."""
    u = 1.0 - gen.random(n)
    np.minimum(u, BELOW_ONE, out=u)
    return np.asarray(dist.quantile(u), dtype=np.float64)


# ---------------------------------------------------------------------------
# coherence axioms
# ---------------------------------------------------------------------------

def comonotonic_pair(
    gen: np.random.Generator, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A comonotonic pair (g(u), h(u)) from a shared uniform vector and two
    independent random non-decreasing piecewise-linear transforms, which
    guarantees (x_i - x_j)(y_i - y_j) >= 0 for all i, j."""
    u = gen.random(n)

    def transform() -> np.ndarray:
        # five knots: plain floats cost less than numpy calls on them
        knots = [0.0, *sorted(gen.random(3).tolist()), 1.0]
        slopes = (gen.random(4) * 2.0).tolist()
        base = gen.standard_normal()
        rises = accumulate(
            (s * (b - a) for s, a, b in zip(slopes, knots, knots[1:])),
            initial=0.0,
        )
        return np.interp(u, knots, [base + r for r in rises])

    return transform(), transform()


@dataclass
class AxiomReport:
    """Outcome of the randomized axiom suite for one estimator.

    axioms maps each tested axiom to its pass flag; counterexamples holds,
    per failed axiom, the first violating trial with inputs and both
    sides; counterexample is the first of those in axiom order.
    """

    passed: bool
    trials: int
    n: int
    axioms: dict
    counterexamples: dict

    @property
    def counterexample(self) -> Optional[dict]:
        for name in self.axioms:
            if name in self.counterexamples:
                return self.counterexamples[name]
        return None

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA,
            "passed": self.passed,
            "trials": self.trials,
            "n": self.n,
            "axioms": self.axioms,
        }
        if self.counterexamples:
            out["counterexamples"] = self.counterexamples
        return out


def check_axioms(
    oracle: Oracle,
    n: int,
    trials: int,
    rng: RngSpec,
    law_invariant: bool = True,
    comonotonic: bool = True,
) -> AxiomReport:
    """Randomized verification of the coherence axioms.

    Every axiom is tested `trials` times at tolerance 1e-9 * (1 + scale),
    each axiom on its own RNG stream; an axiom stops at its first
    violation, which is recorded as a concrete counterexample. Trials go
    to the oracle in blocks of AXIOM_BLOCK, so it may also be asked about
    the rest of the violating trial's block. Law invariance and
    comonotonic additivity only apply to estimators claiming those
    properties, so they can be switched off.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")

    # each axiom draws one trial as plain data: its oracle rows, left-hand
    # side first; the input scale its tolerance grows with; and the inputs
    # its counterexample records

    def monotonicity(gen: np.random.Generator, t: int):
        x = gen.standard_normal(n)
        y = x + np.abs(gen.standard_normal(n))
        return (x, y), max(np.abs(x).max(), np.abs(y).max()), {"x": x, "y": y}

    def cash_additivity(gen: np.random.Generator, t: int):
        x = gen.standard_normal(n)
        m = float(gen.standard_normal())
        return (x + m, x), np.abs(x).max() + abs(m), {"x": x, "m": m}

    def positive_homogeneity(gen: np.random.Generator, t: int):
        # the first trial pins lambda = 0: rho(0) must be 0
        x = gen.standard_normal(n)
        lam = 0.0 if t == 0 else float(np.abs(gen.standard_normal()))
        return ((lam * x, x), (1.0 + lam) * np.abs(x).max(),
                {"x": x, "lambda": lam})

    def subadditivity(gen: np.random.Generator, t: int):
        x = gen.standard_normal(n)
        y = gen.standard_normal(n)
        return (x + y, x, y), np.abs(x).max() + np.abs(y).max(), {"x": x, "y": y}

    def law_invariance(gen: np.random.Generator, t: int):
        x = gen.standard_normal(n)
        perm = gen.permutation(n)
        return (x[perm], x), np.abs(x).max(), {"x": x, "perm": perm}

    def comonotonic_additivity(gen: np.random.Generator, t: int):
        x, y = comonotonic_pair(gen, n)
        return (x + y, x, y), np.abs(x).max() + np.abs(y).max(), {"x": x, "y": y}

    def first_violation(
        draw: Callable, relation: str, rhs_of: Callable,
        gen: np.random.Generator,
    ) -> Optional[dict]:
        # one oracle_values call and one comparison per block; the trials
        # of a block are drawn in order and the first violating one is
        # reported, so it and every draw before it are those of a
        # trial-by-trial loop
        for first in range(0, trials, AXIOM_BLOCK):
            block = [draw(gen, t)
                     for t in range(first, min(first + AXIOM_BLOCK, trials))]
            rows = [x for xs, _, _ in block for x in xs]
            values = oracle_values(oracle, rows).reshape(len(block), -1)
            fields = [f for _, _, f in block]
            tol = AXIOM_TOL * (1.0 + np.array([scale for _, scale, _ in block]))
            lhs = values[:, 0]
            # huge oracle values overflow to inf silently, as Python floats do
            with np.errstate(over="ignore"):
                rhs = rhs_of(values, fields)
                if relation == ">=":
                    violated = lhs < rhs - tol
                elif relation == "<=":
                    violated = lhs > rhs + tol
                else:
                    violated = np.abs(lhs - rhs) > tol
            hits = np.flatnonzero(violated)
            if hits.size:
                i = int(hits[0])
                counter = {"trial": first + i}
                counter.update(
                    (key, v.tolist() if isinstance(v, np.ndarray) else v)
                    for key, v in fields[i].items()
                )
                counter.update(lhs=float(lhs[i]), rhs=float(rhs[i]))
                return counter
        return None

    # each axiom: its trial draw, the relation its left-hand side must bear
    # to its right-hand side, and that right-hand side from a block's
    # oracle values and trial fields. Columns are added one by one: a lone
    # -0.0 stays -0.0, where np.sum over the columns would start at +0.0
    checks = [
        ("monotonicity", monotonicity, ">=", lambda v, fs: v[:, 1]),
        ("cash_additivity", cash_additivity, "=",
         lambda v, fs: v[:, 1] - np.array([f["m"] for f in fs])),
        ("positive_homogeneity", positive_homogeneity, "=",
         lambda v, fs: np.array([f["lambda"] for f in fs]) * v[:, 1]),
        ("subadditivity", subadditivity, "<=", lambda v, fs: v[:, 1] + v[:, 2]),
    ]
    if law_invariant:
        checks.append(
            ("law_invariance", law_invariance, "=", lambda v, fs: v[:, 1]))
    if comonotonic:
        checks.append(("comonotonic_additivity", comonotonic_additivity, "=",
                       lambda v, fs: v[:, 1] + v[:, 2]))

    axioms: dict = {}
    counterexamples: dict = {}
    stream = rng.streams()
    for idx, (name, draw, relation, rhs_of) in enumerate(checks):
        counter = first_violation(
            draw, relation, rhs_of, stream((rng.stream_id * 8 + idx) % 2**64)
        )
        axioms[name] = counter is None
        if counter is not None:
            counter["axiom"] = name
            counterexamples[name] = counter
    return AxiomReport(not counterexamples, trials, n, axioms, counterexamples)


# ---------------------------------------------------------------------------
# consistency and rate experiments
# ---------------------------------------------------------------------------

def _class_errors(
    cls: LipschitzClass,
    dist: ReferenceDistribution,
    n_grid: Sequence[int],
    reps: int,
    rng: RngSpec,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Per n: the vector over reps of the worst error across the class;
    and the members' population risks the errors are measured from."""
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    targets = np.array(
        [population_spectral_risk(dist, phi) for phi in cls.members]
    )
    per_n: List[np.ndarray] = []
    stream = rng.streams()
    for i_n, n in enumerate(n_grid):
        weights = np.vstack(
            [canonical_weights(phi, n).weights for phi in cls.members]
        )

        def draw(rep: int) -> np.ndarray:
            return sample_from(dist, stream(((i_n + 1) << 32) | rep), n)

        estimates = indexed_map(draw, reps, weights)
        per_n.append(np.max(np.abs(estimates - targets), axis=1))
    return per_n, targets


def consistency_sweep(
    cls: LipschitzClass,
    dist: ReferenceDistribution,
    n_grid: Sequence[int],
    reps: int,
    rng: RngSpec,
    threshold: Optional[float] = None,
    min_pass_fraction: float = 1.0,
) -> ExperimentReport:
    """Worst-over-class estimation error against population values, per n.

    The pass flag (when a threshold is given) asks that at the largest n
    at least min_pass_fraction of the reps beat the threshold.
    """
    if list(n_grid) != sorted(n_grid) or len(n_grid) < 1:
        raise DomainError("n_grid must be a non-empty increasing sequence")
    started = time.perf_counter()
    per_n, _ = _class_errors(cls, dist, n_grid, reps, rng)
    rows = [
        {
            "n": int(n),
            "median_error": float(np.median(errs)),
            "max_error": float(np.max(errs)),
            "errors": [float(e) for e in errs],
        }
        for n, errs in zip(n_grid, per_n)
    ]
    passed = None
    if threshold is not None:
        frac = float(np.mean(per_n[-1] < threshold))
        passed = bool(frac >= min_pass_fraction)
    return _report(
        "consistency", (cls, dist, n_grid, reps, threshold, min_pass_fraction),
        {"per_n": rows}, passed, rng, started,
    )


def rate_experiment(
    cls: LipschitzClass,
    dist: ReferenceDistribution,
    n_grid: Sequence[int],
    reps: int,
    rng: RngSpec,
    slope_band: Optional[Tuple[float, float]] = None,
) -> ExperimentReport:
    """Least-squares slope of log median error against log n.

    A root-n rate shows up as a slope near -1/2; the experiment fails
    (DegenerateFit) when errors vanish, as for a point mass.
    """
    if len(set(n_grid)) < 2:
        raise DomainError("rate fit needs at least two distinct sample sizes")
    started = time.perf_counter()
    per_n, targets = _class_errors(cls, dist, n_grid, reps, rng)
    medians = np.array([float(np.median(errs)) for errs in per_n])
    scale = float(np.max(np.abs(targets)))
    if np.any(medians <= 1e-14 * (1.0 + scale)):
        raise DegenerateFit("median errors underflow; log-log fit undefined")
    slope, intercept = np.polyfit(np.log(np.asarray(n_grid, float)),
                                  np.log(medians), 1)
    rows = [
        {"n": int(n), "median_error": float(np.median(errs)),
         "max_error": float(np.max(errs))}
        for n, errs in zip(n_grid, per_n)
    ]
    passed = None
    if slope_band is not None:
        passed = bool(slope_band[0] <= slope <= slope_band[1])
    results = {
        "per_n": rows,
        "slope": float(slope),
        "intercept": float(intercept),
    }
    return _report("rate", (cls, dist, n_grid, reps, slope_band), results,
                   passed, rng, started)


# ---------------------------------------------------------------------------
# CLT and bootstrap checks
# ---------------------------------------------------------------------------

def _gate_clt_inputs(phi: Spectrum, dist: ReferenceDistribution) -> float:
    if phi.lipschitz is None:
        raise NotLipschitz(
            f"{phi.kind} spectrum is not Lipschitz; the CLT and bootstrap "
            "diagnostics require a Lipschitz spectrum"
        )
    sigma2 = asymptotic_variance(phi, dist)
    if sigma2 <= 1e-12:
        raise DegenerateVariance(f"asymptotic variance {sigma2} is degenerate")
    return sigma2


def clt_check(
    phi: Spectrum,
    dist: ReferenceDistribution,
    n: int,
    reps: int,
    rng: RngSpec,
    threshold: float = 0.05,
) -> ExperimentReport:
    """Kolmogorov distance of sqrt(n)-scaled estimation errors to the
    normal limit with the plug-in asymptotic variance."""
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    started = time.perf_counter()
    sigma2 = _gate_clt_inputs(phi, dist)
    target = population_spectral_risk(dist, phi)
    weights = canonical_weights(phi, n).weights
    root_n = np.sqrt(n)
    stream = rng.streams()

    def draw(rep: int) -> np.ndarray:
        return sample_from(dist, stream(rep + 1), n)

    draws = root_n * (indexed_map(draw, reps, weights) - target)
    limit = ReferenceDistribution("normal", mean=0.0, sd=float(np.sqrt(sigma2)))
    d_k = kolmogorov_distance(Sample(draws), limit)
    results = {"sigma2": float(sigma2), "d_K": float(d_k),
               "population_risk": float(target)}
    return _report("clt", (phi, dist, n, reps, threshold), results,
                   bool(d_k < threshold), rng, started)


def bootstrap_check(
    phi: Spectrum,
    dist: ReferenceDistribution,
    n: int,
    B: int,
    rng: RngSpec,
    threshold: float = 0.08,
    grid_m: int = 100,
) -> ExperimentReport:
    """Bootstrap validity: one sample of size n, B resampled replicates,
    Kolmogorov and truncated-grid distances to the normal limit."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    started = time.perf_counter()
    sigma2 = _gate_clt_inputs(phi, dist)
    sample = Sample(sample_from(dist, rng.streams()(0), n))
    reps = bootstrap_distribution(sample, phi, B, rng)
    degenerate = bool(np.ptp(sample.values) == 0.0 or np.ptp(reps) == 0.0)
    limit = ReferenceDistribution("normal", mean=0.0, sd=float(np.sqrt(sigma2)))
    rep_sample = Sample(reps)
    d_k = kolmogorov_distance(rep_sample, limit)
    d_k_m = truncated_kolmogorov(rep_sample, limit, grid_m)
    passed = None if degenerate else bool(d_k < threshold and d_k_m <= d_k)
    results = {
        "n": int(n),
        "B": int(B),
        "sigma2": float(sigma2),
        "d_K": float(d_k),
        "d_K_m": float(d_k_m),
        "seed": rng.seed,
        "degenerate": degenerate,
    }
    return _report("bootstrap", (phi, dist, n, B, threshold, grid_m), results,
                   passed, rng, started)


# ---------------------------------------------------------------------------
# Kusuoka plug-in surrogates
# ---------------------------------------------------------------------------

def kusuoka_tightness_gap(
    M: RepresentingSet, x: Sample, delta: float
) -> Tuple[float, float]:
    """Effect of censoring mixture mass below level delta.

    Returns (gap, bound): the change of the plug-in value when every
    vertex's mass on levels k/n <= delta is removed and the vertex is
    renormalised, and the envelope bound (C + 1) * ||x||_inf * eps with
    C = 1 and eps the largest censored mass.
    """
    es = discrete_es_profile(x)
    full, _ = kusuoka_plugin(M, es)
    levels = np.arange(1, M.n + 1, dtype=np.float64) / M.n
    keep = levels > delta
    if not np.any(keep):
        raise DomainError("censoring removed every level")
    censored = M.vertices * keep
    kept_mass = censored.sum(axis=1)
    if np.any(kept_mass <= 0.0):
        raise DomainError("a vertex lost all of its mass to censoring")
    censored = censored / kept_mass[:, None]
    cens_value = float(np.max(censored @ es))
    eps = float(np.max(1.0 - kept_mass))
    bound = 2.0 * float(np.max(np.abs(x.values))) * eps
    return abs(full - cens_value), bound


def kusuoka_grid_gap(
    x: Sample, atom_levels: Sequence[float], atom_masses: Sequence[float], m: int
) -> Tuple[float, float]:
    """Effect of refining the level grid from mesh 1/m to 1/(2m).

    The mixture atoms sit at arbitrary levels in (0, 1]; each grid maps
    an atom to the discrete-ES level ceil(grid * level) / grid. Returns
    (gap, bound) where bound is the exact transported modulus
    sum_j nu_j |dES difference between the two assigned levels|.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    levels = np.asarray(atom_levels, dtype=np.float64)
    masses = np.asarray(atom_masses, dtype=np.float64)
    if np.any(levels <= 0.0) or np.any(levels > 1.0):
        raise DomainError("atom levels must lie in (0, 1]")
    es = discrete_es_profile(x)
    n = x.n

    def assigned(grid: int) -> np.ndarray:
        j = ceil_level(grid, levels)
        # k = ceil(n * j / grid) in exact integer arithmetic
        k = np.minimum(-((-n * j) // grid), n)
        return es[k - 1]

    coarse, fine = assigned(m), assigned(2 * m)
    gap = abs(float(np.dot(masses, coarse)) - float(np.dot(masses, fine)))
    bound = float(np.dot(masses, np.abs(coarse - fine)))
    return gap, bound
