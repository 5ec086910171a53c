"""Finite-sample risk functionals: discrete expected shortfall,
L-estimators, ES-mixture forms, suprema over representing sets, and
black-box weight recovery for comonotonic law-invariant estimators."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .core import Mixture, RepresentingSet, Sample, WeightVector, sorted_estimates
from .errors import RiskError

#: slack separating float noise from a genuine axiom violation in recovery
RECOVERY_SLACK = 1e-9

Oracle = Callable[[np.ndarray], float]


def discrete_es(x: Sample, k: int) -> float:
    """Discrete expected shortfall at level k/n: the negated average of
    the k smallest sample values."""
    if not (1 <= k <= x.n):
        raise RiskError(f"k must lie in [1, {x.n}], got {k}")
    smallest = np.sort(x.values)[:k]
    return -float(smallest.mean())


def discrete_es_profile(x: Sample) -> np.ndarray:
    """All levels at once: entry k-1 equals the discrete ES at level k/n."""
    sorted_vals = np.sort(x.values)
    k = np.arange(1, x.n + 1, dtype=np.float64)
    return -np.cumsum(sorted_vals) / k


def l_estimate(a: WeightVector, x: Sample, sorted_domain: bool = True) -> float:
    """Weighted negated sample: sum a_i * (-x_{i:n}) on the sorted domain,
    sum a_i * (-x_i) otherwise."""
    if a.n != x.n:
        raise RiskError(f"weights have length {a.n}, sample {x.n}")
    vals = np.sort(x.values) if sorted_domain else x.values
    return float(np.dot(a.weights, -vals))


def mixture_estimate(mu: Mixture, x: Sample) -> float:
    """Mixture of discrete expected shortfalls, sum mu_k * dES_{k/n}(x)."""
    if mu.n != x.n:
        raise RiskError(f"mixture has length {mu.n}, sample {x.n}")
    return float(np.dot(mu.masses, discrete_es_profile(x)))


def robust_sup(M: RepresentingSet, x: Sample) -> Tuple[float, int]:
    """Supremum of the linear functional over the vertex list.

    Returns the value and the index of the first attaining vertex. The
    vertices act on the sorted sample when M.sorted_domain, on the raw
    coordinates otherwise.
    """
    if M.n != x.n:
        raise RiskError(f"vertices have length {M.n}, sample {x.n}")
    vals = np.sort(x.values) if M.sorted_domain else x.values
    scores = M.vertices @ (-vals)
    idx = int(np.argmax(scores))
    return float(scores[idx]), idx


def kusuoka_plugin(
    M: RepresentingSet, es_values: Sequence[float]
) -> Tuple[float, int]:
    """Supremum of mixture vertices applied to per-level ES estimates.

    es_values[i] estimates the expected shortfall at level (i+1)/n, for
    example discrete_es_profile(x)[i].
    """
    es = np.asarray(es_values, dtype=np.float64)
    if M.n != es.size:
        raise RiskError(f"vertices have length {M.n}, ES values {es.size}")
    scores = M.vertices @ es
    idx = int(np.argmax(scores))
    return float(scores[idx]), idx


def recover_comonotonic_weights(oracle: Oracle, n: int) -> WeightVector:
    """Recover the unique weight vector of a comonotonic law-invariant
    coherent risk estimator from black-box probes.

    Probes the indicator samples x^(k) with k leading entries -1 and the
    rest 0; the representation forces oracle(x^(k)) = sum_{i<=k} a_i (up
    to the measured oracle(0), which is 0 for a genuine estimator but is
    subtracted so near-estimators degrade gracefully).
    """
    if n < 1:
        raise RiskError(f"n must be >= 1, got {n}")

    def probes() -> Iterator[np.ndarray]:
        for k in range(n + 1):
            probe = np.zeros(n)
            probe[:k] = -1.0
            yield probe

    prefix = oracle_values(oracle, probes())
    a = np.diff(prefix)

    rises = np.diff(a)
    if np.any(rises > RECOVERY_SLACK):
        i = int(np.argmax(rises))
        raise RiskError(
            f"recovered weights increase at index {i}: {a[i]} < {a[i + 1]}; "
            "oracle is not comonotonic law-invariant"
        )
    total = float(a.sum())
    if abs(total - 1.0) > RECOVERY_SLACK:
        raise RiskError(f"recovered weights sum to {total}")
    # inside slack: clamp the float noise, then renormalise exactly
    a = np.minimum.accumulate(np.clip(a, 0.0, None))
    return WeightVector(a / a.sum(), monotone=True)


def oracle_values(oracle: Oracle, rows: Iterable[np.ndarray]) -> np.ndarray:
    """The oracle on every row, in order, as floats; a non-finite value is
    a RiskError. The diagnostic names the sample size, not the
    sample, to stay one line.

    An oracle with a `batch` method (SubprocessOracle, l_estimator_oracle)
    gets the rows in one call, which may send them all before it reads a
    reply or evaluate them a block at a time; any other
    callable is called row by row. Either way every row is evaluated before
    the values are checked. Rows are consumed as they are sent, so a
    generator never has all of them in memory."""
    sizes: List[int] = []

    def sized() -> Iterator[np.ndarray]:
        for x in rows:
            sizes.append(len(x))
            yield x

    batch = getattr(oracle, "batch", None)
    if batch is None:
        values = np.array([float(oracle(x)) for x in sized()], dtype=np.float64)
    else:
        values = np.asarray(batch(sized()), dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise RiskError(
            f"oracle returned {values[i]} on a sample of {sizes[i]} values"
        )
    return values


def l_estimator_oracle(a: WeightVector) -> Oracle:
    """The estimator induced by a sorted-domain weight vector, as a
    callable on raw value arrays (the form probes and axiom checks use)."""
    return _LEstimatorOracle(a.weights)


class _LEstimatorOracle:
    """batch weighs rows with core.sorted_estimates: a row reads as its call."""

    def __init__(self, weights: np.ndarray) -> None:
        self.weights = weights

    def __call__(self, values: np.ndarray) -> float:
        return float(self.batch([values])[0])

    def batch(self, rows: Iterable[np.ndarray]) -> np.ndarray:
        n = self.weights.size

        def checked(values: np.ndarray) -> np.ndarray:
            x = np.asarray(values, dtype=np.float64)
            if x.shape != (n,):
                raise RiskError(f"weights have length {n}, sample {x.size}")
            return x

        return sorted_estimates(map(checked, rows), self.weights)
