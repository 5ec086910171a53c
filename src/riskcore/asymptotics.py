"""The asymptotic-variance double integral, the Efron bootstrap with
counter-based replicate streams, and the distance diagnostics the limit
theorems are checked against."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import Sample, sorted_estimates
from .errors import RiskError
from .population import ReferenceDistribution
from .quadrature import integrate_piecewise, running_integral
from .spectra import Spectrum, canonical_weights

#: truncation of the variance double integral, per side
VARIANCE_DELTA = 1e-6
#: absolute tolerance of the variance double integral, at most; the
#: relative target of 1e-7 takes over for small variances
VARIANCE_TOL = 1e-9


@dataclass
class RngSpec:
    """Counter-based RNG identity: the seed fully determines every draw
    sequence on every platform. Each experiment names its streams by a
    fixed layout of stream ids, so a replicate that owns its stream draws
    the same values wherever it sits in a run."""

    seed: int

    def __post_init__(self) -> None:
        # a bool is an int to Python, and a float or a string would be
        # echoed in reports as given while the streams read int(seed)
        seed = self.seed
        whole = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
        if not (whole and 0 <= int(seed) < 2**64):
            raise RiskError("seed must be a 64-bit unsigned integer")
        self.seed = int(seed)

    def streams(self) -> Callable[[int], np.random.Generator]:
        """stream(i) -> a generator that draws exactly what a new
        Generator(Philox(key=(i << 64) | seed)) draws, for any 64-bit
        stream id i.

        Philox is keyed, not seeded, so another stream needs a new key and
        not a new generator. The closure holds one Philox and one
        Generator, and stream(i) re-keys that Philox to (seed, i) with its
        counter at 0 and its buffers empty, at a fraction of the cost of
        building a generator; at small n that cost dominates a replicate.

        The generator stream(i) returns is valid only until the next call
        of the same stream closure, which re-keys it: it must not escape
        the replicate that asked for it. Each streams() call owns its own
        Philox, so two experiments never share one.
        """
        bits = np.random.Philox(0)  # re-keyed before every use
        gen = np.random.Generator(bits)
        zeros = np.zeros(4, dtype=np.uint64)
        key = np.array([self.seed, 0], dtype=np.uint64)
        # the setter copies every field, so one state serves every key
        state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

        def stream(i: int) -> np.random.Generator:
            key[1] = i
            bits.state = state
            return gen

        return stream


def indexed_map(
    fn: Callable[[int], np.ndarray], count: int, weights: np.ndarray,
    step: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
) -> np.ndarray:
    """The replicate map: fn(i) draws replicate i from its own stream,
    called once per replicate in index order, and sorted_estimates weighs
    the draws, made samples per block by step(block, its first replicate)
    if given, as the bootstrap's step gathers its resamples. A replicate's
    sample never depends on its block, so neither does its estimate, row i
    of the result."""
    return sorted_estimates(map(fn, range(count)), weights, step)


def _lemire_indices(raw: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(m, n) Lemire indices from (m, w) raw Philox words, and short rows."""
    # Lemire (2019): the candidates are the words' 32-bit halves, low half
    # first; c gives (c n) >> 32 unless the low word of c n, which uint32
    # products wrap to, is below (2^32 - n) mod n. A row's indices are its
    # first n accepted: Generator.integers(0, n, size=n) on a new Philox.
    # A row with fewer than n accepted is short, and its indices are void
    words = raw.astype("<u8", copy=False).view("<u4")
    m, k = words.shape
    rows, cols = np.divmod(np.flatnonzero(words * np.uint32(n) < (2**32 - n) % n), k)
    # a rejection is passed over when fewer than n candidates before it
    # were accepted, and each one passed over moves its row's end one on
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    short = np.bincount(rows, minlength=m) > k - n
    used = (cols - rank < n) & ~short[rows]
    if used.any():
        keep = np.tile(np.repeat([True, False], [n, k - n]), (m, 1))
        keep[rows[used], n + rank[used]] = True
        keep[rows[used], cols[used]] = False
        # a 1-D boolean index costs a fraction of a 2-D one
        words = words.ravel()[keep.ravel()].reshape(m, n)
    picks = words[:, :n] * np.uint64(n)
    # every index is below 2^31, and an int64 index gathers faster
    return np.right_shift(picks, 32, out=picks).view(np.int64), np.flatnonzero(short)


def _spectrum_on_levels(
    phi: Spectrum, dist: ReferenceDistribution
) -> Callable[[np.ndarray], np.ndarray]:
    """u -> phi(u) on arrays of levels u = F(t), clamped into the
    spectrum's open domain.

    Substituting u = F(x) turns every q'-weighted integral over (0, 1)
    into an integral of bounded functions over the quantile range: the
    Jacobian absorbs the quantile derivative exactly. All variance
    quadrature happens in x-space for that reason, and each integrand
    computes F once per node and hands the levels here.
    """
    if dist.kind == "point_mass":
        raise RiskError("influence analysis needs a distribution with a density")

    def phi_u(u: np.ndarray) -> np.ndarray:
        return phi.density(np.minimum(np.maximum(u, 1e-300), 1.0))

    return phi_u


def _quantile_cuts(
    phi: Spectrum, dist: ReferenceDistribution, lo: float, hi: float
) -> Tuple[float, ...]:
    return tuple(dist.quantile([b for b in phi.breakpoints if lo < b < hi]).tolist())


def asymptotic_variance(phi: Spectrum, dist: ReferenceDistribution) -> float:
    """CLT variance of the canonical spectral plug-in estimator.

    sigma^2 = double integral of (min(a,b) - a b) phi(a) phi(b) q'(a)
    q'(b) over [delta, 1-delta]^2, delta = VARIANCE_DELTA. Substituting
    a = F(s), b = F(t) and using symmetry reduces it to

        2 * integral over t of (1-F(t)) phi(F(t))
              * integral over s < t of F(s) phi(F(s)) ds dt

    on the truncated quantile range, where every factor is bounded. The
    truncation biases it low on unbounded laws: by 3.9e-6 for the uniform
    spectrum on N(0, 1), and by 2.8e-5 on Exp(1).
    """
    phi_u = _spectrum_on_levels(phi, dist)
    lo, hi = VARIANCE_DELTA, 1.0 - VARIANCE_DELTA
    lo_x, hi_x = float(dist.quantile(lo)), float(dist.quantile(hi))
    cuts = _quantile_cuts(phi, dist, lo, hi)

    def inner(s: np.ndarray) -> np.ndarray:
        u = dist.cdf(s)
        return u * phi_u(u)

    # the inner integral over [lo_x, t], for all outer nodes in one call
    below = running_integral(inner, lo_x, hi_x, cuts, 1e-12)

    def outer(t: np.ndarray) -> np.ndarray:
        u = dist.cdf(t)
        return (1.0 - u) * phi_u(u) * below(t)

    # the value at 1e-6 fixes the magnitude; its partition is then refined
    # to 1e-6 relative accuracy (never looser than the absolute
    # VARIANCE_TOL), re-evaluating no panel
    total = 2.0 * integrate_piecewise(
        outer, lo_x, hi_x, breakpoints=cuts, tol=1e-6,
        refine=lambda coarse: max(1e-13, min(VARIANCE_TOL, 1e-7 * abs(coarse))),
    )
    if not math.isfinite(total):
        raise RiskError("variance integrand diverged")
    if total < -1e-10:
        raise RiskError(f"variance integral came out negative: {total}")
    return max(total, 0.0)


def bootstrap_distribution(
    x: Sample, phi: Spectrum, B: int, rng: RngSpec
) -> np.ndarray:
    """B values of sqrt(n) * (rho_hat(X*) - rho_hat(X)).

    Replicate b resamples x at the Lemire draws on stream b + 1's raw
    words, low half first on every byte order (_lemire_indices): these are
    Generator.integers(0, n, size=n) on the stream at numpy 2.4. The
    data-drawing caller conventionally keeps stream 0 for itself.
    """
    if B < 1:
        raise RiskError(f"B must be >= 1, got {B}")
    weights = canonical_weights(phi, x.n).weights
    values, n = x.values, x.n
    base = float(sorted_estimates([values], weights)[0])
    stream = rng.streams()
    # the candidates it takes to accept n are negative binomial, with
    # acceptance chance q: draw words for their mean plus 6 sigma, and
    # twice as many again for a replicate they fall short for
    q = 1.0 - ((2**32 - n) % n) / 2**32
    words = (math.ceil(n / q + 6.0 * math.sqrt(n * (1.0 - q)) / q) + 1) // 2

    def draw(i: int, size: int = words) -> np.ndarray:
        return stream(i + 1).bit_generator.random_raw(size)

    def resample(raw: np.ndarray, first: int) -> np.ndarray:
        idx, short = _lemire_indices(raw, n)
        out = values[idx]
        for r in short.tolist():  # twice the words, from the same stream
            out[r] = resample(draw(first + r, 2 * raw.shape[1])[None], first + r)[0]
        return out

    return math.sqrt(n) * (indexed_map(draw, B, weights, resample) - base)


def kolmogorov_distance(sample: Sample, dist: ReferenceDistribution) -> float:
    """Exact sup-distance between the empirical CDF and a continuous CDF:
    checked at both one-sided limits of every order statistic."""
    xs = np.sort(sample.values)
    g = np.asarray(dist.cdf(xs), dtype=np.float64)
    i = np.arange(1, xs.size + 1, dtype=np.float64)
    upper = np.abs(i / xs.size - g)
    lower = np.abs((i - 1.0) / xs.size - g)
    return float(np.max(np.maximum(upper, lower)))


def truncated_kolmogorov(
    sample: Sample, dist: ReferenceDistribution, m: int
) -> float:
    """Kolmogorov distance restricted to the grid {-m, -m+1/m, ..., m}
    (2 m^2 + 1 points), the finite shadow of the internal distance.

    Between order statistics F_n is constant and F is monotone, so over
    each run of grid points |F_n - F| peaks at an end of the run. Only
    the grid ends and the points k/m next to each order statistic are
    evaluated, never the whole grid."""
    if m < 1:
        raise RiskError(f"m must be >= 1, got {m}")
    xs = np.sort(sample.values)
    near = np.floor(np.clip(xs, -m - 1, m + 1) * m).astype(np.int64)
    k = np.append((near[:, None] + np.arange(-1, 3)).ravel(), [-m * m, m * m])
    t = np.clip(k, -m * m, m * m) / m
    fn = np.searchsorted(xs, t, side="right") / xs.size
    g = np.asarray(dist.cdf(t), dtype=np.float64)
    return float(np.max(np.abs(fn - g)))


def wasserstein1(sample: Sample, dist: ReferenceDistribution) -> float:
    """W1 distance as the quantile-difference integral over (0, 1).

    On ((i-1)/n, i/n] the empirical quantile is the order statistic x_i,
    and the law's quantile lies at or below x_i exactly up to the level
    F(x_i). Split there, each piece is an exact integral through the
    quantile primitive Q, which is 0 at 0 and the mean at 1.
    """
    xs = np.sort(sample.values)
    k = np.arange(xs.size + 1, dtype=np.float64) / xs.size
    a, b = k[:-1], k[1:]
    c = np.clip(dist.cdf(xs), a, b)
    qk, qc = dist.quantile_primitive(k), dist.quantile_primitive(c)
    below = xs * (c - a) - (qc - qk[:-1])  # q <= x_i on (a, c]
    above = (qk[1:] - qc) - xs * (b - c)  # q >= x_i on (c, b]
    return float(np.sum(below + above))
