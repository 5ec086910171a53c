"""Reference numerics only tests use: a keyed-Philox stream; the float
level map ceil_level, with the sorted sample and empirical quantile it
reads; the step spectrum of a weight vector and the primitive gap of the
canonical weights; the influence function and its table; the variance
integral as two fresh passes; and the Kusuoka plug-in surrogate bounds."""

from typing import Sequence, Tuple, Union

import numpy as np

from riskcore import (ReferenceDistribution, RepresentingSet, Sample, Spectrum,
                      WeightVector, canonical_weights, discrete_es_profile,
                      kusuoka_plugin)
from riskcore.asymptotics import (VARIANCE_DELTA, VARIANCE_TOL, _quantile_cuts,
                                  _spectrum_on_levels)
from riskcore.core import _as_readonly
from riskcore.errors import RiskError
from riskcore.quadrature import (DEFAULT_MAX_EVALS, integrate_piecewise,
                                 running_integral)
from riskcore.spectra import Floats

#: n * alpha within this many ulps of an integer k is read as k
LEVEL_ULPS = 4
#: truncation of influence-function quadrature at the open endpoints
INFLUENCE_EDGE = 1e-9
#: absolute tolerance of an influence-function value
INFLUENCE_TOL = 1e-8


def keyed_philox(seed: int, i: int) -> np.random.Generator:
    """Stream i of a seed, built from scratch: a new Philox keyed
    (i << 64) | seed, which RngSpec(seed).streams()(i) must match."""
    return np.random.Generator(np.random.Philox(key=(i << 64) | seed))


class SortedSample:
    """A non-decreasing sample plus the stable permutation that produced it."""

    def __init__(self, values: np.ndarray, order: np.ndarray):
        self.values = _as_readonly(np.asarray(values))
        self.order = _as_readonly(np.asarray(order))

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.n


def sort_sample(x: Sample) -> SortedSample:
    """Stable sort; the recorded permutation lets law-invariance tests
    permute deterministically."""
    order = np.argsort(x.values, kind="stable")
    return SortedSample(x.values[order], order)


def ceil_level(n: int, alpha: Union[float, np.ndarray]) -> Union[int, np.ndarray]:
    """ceil(n * alpha), reading n * alpha as the integer k when it lies
    within LEVEL_ULPS ulps of k.

    The float nearest k/n times n can land an ulp above k (n = 100,
    alpha = 0.07 gives 7.000000000000001), and a bare ceil would then
    select level k + 1. Every level that picks an order statistic or a
    step goes through here, so alpha = k/n always selects k.
    """
    x = np.multiply(n, alpha, dtype=np.float64)
    k = np.rint(x)
    snap = (k >= 1.0) & (np.abs(x - k) <= LEVEL_ULPS * np.spacing(k))
    out = np.ceil(np.where(snap, k, x)).astype(np.int64)
    return int(out) if out.ndim == 0 else out


def empirical_quantile(s: SortedSample, alpha: float) -> float:
    """Empirical quantile q_n(alpha) = x_{ceil(n*alpha):n} for alpha in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise RiskError(f"alpha must lie in (0, 1], got {alpha}")
    return float(s.values[ceil_level(s.n, alpha) - 1])


def step_spectrum(a: WeightVector) -> Spectrum:
    """Associated step spectrum of a non-increasing weight vector: the
    value n * a_i on ((i-1)/n, i/n]."""
    if not a.monotone:
        raise RiskError("step_spectrum requires a certified monotone vector")
    n = a.n
    levels = n * a.weights
    cum = np.concatenate([[0.0], np.cumsum(levels)]) / n

    def density(u: np.ndarray) -> np.ndarray:
        return levels[np.clip(ceil_level(n, u) - 1, 0, n - 1)]

    def primitive(t: np.ndarray) -> np.ndarray:
        # k whole steps lie below t; at t = k/n that is k, not k - 1, so
        # Phi(k/n) is exactly cum[k]
        j = ceil_level(n, t)
        k = np.clip(np.where(j / n <= t, j, j - 1), 0, n - 1)
        return np.where(t >= 1.0, cum[-1], cum[k] + (t - k / n) * levels[k])

    return Spectrum(
        kind="step",
        params={"levels": levels.tolist()},
        bound=float(levels.max()),
        lipschitz=None,
        density=density,
        primitive=primitive,
        breakpoints=(np.arange(1, n) / n).tolist(),
    )


def primitive_gap(phi: Spectrum, n: int, grid_size: int) -> float:
    """Max gap between the canonical step primitive and the true primitive
    over the grid {j / grid_size}. The distribution-free consistency
    criterion asks exactly that this tends to 0 in n."""
    if grid_size < 2:
        raise RiskError(f"grid_size must be >= 2, got {grid_size}")
    step = step_spectrum(canonical_weights(phi, n))
    t = np.arange(grid_size + 1, dtype=np.float64) / grid_size
    return float(np.max(np.abs(step.primitive(t) - phi.primitive(t))))


def influence_function(
    phi: Spectrum, dist: ReferenceDistribution, x: Floats
) -> Floats:
    """First-order kernel IF(x) of the spectral estimator, at every x.

    IF(x) = integral over (0,1) of phi(a) q'(a) (1{x <= q(a)} - a) da is,
    in x-space on the truncated quantile range [lo_x, hi_x],
    Psi(hi_x) - Psi(clip(x)) - integral of F*phi(F) over [lo_x, hi_x],
    with Psi the running integral of phi(F) from lo_x, cut at every x.
    """
    phi_u = _spectrum_on_levels(phi, dist)
    lo, hi = INFLUENCE_EDGE, 1.0 - INFLUENCE_EDGE
    lo_x, hi_x = float(dist.quantile(lo)), float(dist.quantile(hi))
    cuts = _quantile_cuts(phi, dist, lo, hi)
    xs = np.clip(np.asarray(x, dtype=np.float64), lo_x, hi_x)
    # each x needs a panel of its own, so the budget grows with them
    psi = running_integral(
        lambda t: phi_u(dist.cdf(t)), lo_x, hi_x, np.append(cuts, xs).tolist(),
        0.5 * INFLUENCE_TOL, DEFAULT_MAX_EVALS + 30 * xs.size,
    )

    def mass_density(t: np.ndarray) -> np.ndarray:
        u = dist.cdf(t)
        return u * phi_u(u)

    mass = integrate_piecewise(
        mass_density, lo_x, hi_x, breakpoints=cuts, tol=0.5 * INFLUENCE_TOL,
    )
    out = psi(hi_x) - psi(xs) - mass
    return float(out) if xs.ndim == 0 else out


def influence_table(
    phi: Spectrum, dist: ReferenceDistribution
) -> Tuple[np.ndarray, np.ndarray]:
    """Tabulate u -> IF(q(u)) on a graded grid.

    Because IF(x) depends on x only through F(x), Monte Carlo over X is
    Monte Carlo over uniform draws pushed through this table; that is
    what makes 10^6-draw variance checks affordable.
    """
    lo, hi = INFLUENCE_EDGE, 1.0 - INFLUENCE_EDGE
    pieces = [
        np.geomspace(lo, 0.01, 8_000),
        np.linspace(0.01, 0.99, 80_000),
        1.0 - np.geomspace(lo, 0.01, 8_000)[::-1],
    ]
    grid = np.unique(np.concatenate(pieces + [np.asarray(phi.breakpoints)]))
    grid = grid[(grid >= lo) & (grid <= hi)]
    return grid, influence_function(phi, dist, dist.quantile(grid))


def two_pass_variance(phi: Spectrum, dist: ReferenceDistribution) -> float:
    """asymptotic_variance's double integral, its outer integral done as
    two fresh integrate_piecewise calls: one at 1e-6 for the magnitude,
    then one at the tolerance that magnitude sets."""
    lo, hi = VARIANCE_DELTA, 1.0 - VARIANCE_DELTA
    lo_x, hi_x = float(dist.quantile(lo)), float(dist.quantile(hi))
    cuts = tuple(float(dist.quantile(b)) for b in phi.breakpoints if lo < b < hi)

    def density(t):
        return phi.density(np.clip(dist.cdf(t), 1e-300, 1.0))

    below = running_integral(
        lambda s: dist.cdf(s) * density(s), lo_x, hi_x, cuts, 1e-12)

    def outer(t):
        return (1.0 - dist.cdf(t)) * density(t) * below(t)

    coarse = integrate_piecewise(outer, lo_x, hi_x, cuts, 1e-6)
    fine = max(1e-13, min(VARIANCE_TOL, 1e-7 * abs(coarse)))
    return max(2.0 * integrate_piecewise(outer, lo_x, hi_x, cuts, fine), 0.0)


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
        raise RiskError("censoring removed every level")
    censored = M.vertices * keep
    kept_mass = censored.sum(axis=1)
    if np.any(kept_mass <= 0.0):
        raise RiskError("a vertex lost all of its mass to censoring")
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
        raise RiskError(f"m must be >= 1, got {m}")
    levels = np.asarray(atom_levels, dtype=np.float64)
    masses = np.asarray(atom_masses, dtype=np.float64)
    if np.any(levels <= 0.0) or np.any(levels > 1.0):
        raise RiskError("atom levels must lie in (0, 1]")
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
