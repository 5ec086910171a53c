"""Reference numerics only tests use: a keyed-Philox stream, the
influence-function table, the variance integral as two fresh passes and
the Kusuoka plug-in surrogate bounds."""

from typing import Sequence, Tuple

import numpy as np

from riskcore import (ReferenceDistribution, RepresentingSet, Sample, Spectrum,
                      discrete_es_profile, influence_function, kusuoka_plugin)
from riskcore.asymptotics import INFLUENCE_EDGE, VARIANCE_DELTA, VARIANCE_TOL
from riskcore.core import ceil_level
from riskcore.errors import RiskError
from riskcore.quadrature import integrate_piecewise, running_integral


def keyed_philox(seed: int, i: int) -> np.random.Generator:
    """Stream i of a seed, built from scratch: a new Philox keyed
    (i << 64) | seed, which RngSpec(seed).streams()(i) must match."""
    return np.random.Generator(np.random.Philox(key=(i << 64) | seed))


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
