"""Independent references the benchmark checks riskcore's outputs against.

Everything here is written from the definitions with numpy alone (plus
scipy.special for the normal CDF and quantile); none of it calls riskcore.
scipy is imported on first use so that a set-up probe, which imports this
module, does not pay riskcore's own scipy import in advance.
"""

from __future__ import annotations

import numpy as np

#: truncation of the variance integral, per side, as riskcore defines it
VARIANCE_DELTA = 1e-6


def spectrum_primitive(spec, t):
    """Closed-form Phi(t) = integral of phi over [0, t]."""
    t = np.asarray(t, dtype=np.float64)
    kind = spec["type"]
    if kind == "uniform":
        return t
    if kind == "linear":
        return t + 0.5 * spec["slope"] * t * (1.0 - t)
    if kind == "exponential":
        k = spec["k"]
        return np.expm1(-k * t) / np.expm1(-k)
    if kind == "es":
        return np.minimum(t, spec["alpha"]) / spec["alpha"]
    knots = np.asarray(spec["knots"], dtype=np.float64)
    x, v = knots[:, 0], knots[:, 1]
    seg = 0.5 * (v[:-1] + v[1:]) * np.diff(x)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    j = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    dt = t - x[j]
    slope = (v[j + 1] - v[j]) / (x[j + 1] - x[j])
    return cum[j] + v[j] * dt + 0.5 * slope * dt * dt


def spectrum_density(spec, u):
    u = np.asarray(u, dtype=np.float64)
    kind = spec["type"]
    if kind == "uniform":
        return np.ones_like(u)
    if kind == "linear":
        return 1.0 + spec["slope"] * (0.5 - u)
    if kind == "exponential":
        k = spec["k"]
        return k * np.exp(-k * u) / -np.expm1(-k)
    if kind == "es":
        return np.where(u <= spec["alpha"], 1.0 / spec["alpha"], 0.0)
    knots = np.asarray(spec["knots"], dtype=np.float64)
    return np.interp(u, knots[:, 0], knots[:, 1])


def spectrum_breakpoints(spec):
    if spec["type"] == "es":
        return [spec["alpha"]]
    if spec["type"] == "piecewise_linear":
        return [k[0] for k in spec["knots"][1:-1]]
    return []


def canonical_weights(spec, n):
    """a_i = Phi(i/n) - Phi((i-1)/n)."""
    grid = np.arange(n + 1, dtype=np.float64) / n
    return np.diff(spectrum_primitive(spec, grid))


def _cdf(dist, x):
    from scipy.special import ndtr

    kind = dist["type"]
    if kind == "uniform":
        return np.clip((x - dist["a"]) / (dist["b"] - dist["a"]), 0.0, 1.0)
    if kind == "normal":
        return ndtr((x - dist["mean"]) / dist["sd"])
    return -np.expm1(-dist["rate"] * np.maximum(x, 0.0))


def _pdf(dist, x):
    kind = dist["type"]
    if kind == "uniform":
        return np.where((x >= dist["a"]) & (x <= dist["b"]), 1.0 / (dist["b"] - dist["a"]), 0.0)
    if kind == "normal":
        z = (x - dist["mean"]) / dist["sd"]
        return np.exp(-0.5 * z * z) / (dist["sd"] * np.sqrt(2.0 * np.pi))
    return np.where(x >= 0.0, dist["rate"] * np.exp(-dist["rate"] * np.maximum(x, 0.0)), 0.0)


def _quantile(dist, u):
    from scipy.special import ndtri

    kind = dist["type"]
    if kind == "uniform":
        return dist["a"] + (dist["b"] - dist["a"]) * u
    if kind == "normal":
        return dist["mean"] + dist["sd"] * ndtri(u)
    return -np.log1p(-u) / dist["rate"]


def _cumulative_simpson(y, h):
    """Integral of samples y (odd count, step h) from the first node to each node.

    Even nodes take composite Simpson; odd nodes add the first half of the
    next Simpson panel, h/12 (5 y0 + 8 y1 - y2).
    """
    out = np.zeros_like(y)
    panels = h / 3.0 * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(panels)
    out[1::2] = out[:-2:2] + h / 12.0 * (5.0 * y[:-2:2] + 8.0 * y[1:-1:2] - y[2::2])
    return out


def asymptotic_variance(spec, dist, nodes=20001):
    """2 * int (1 - F(t)) phi(F(t)) int_{s<t} F(s) phi(F(s)) ds dt over the
    quantile range [q(delta), q(1 - delta)], split where phi has a kink or
    jump, by composite Simpson on `nodes` points per piece."""
    delta = VARIANCE_DELTA
    levels = [delta, *(b for b in spectrum_breakpoints(spec)
                       if delta < b < 1.0 - delta), 1.0 - delta]
    total, inner_base = 0.0, 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        t, h = np.linspace(_quantile(dist, lo), _quantile(dist, hi), nodes,
                           retstep=True)
        F = _cdf(dist, t)
        # phi on this piece only: its one-sided limits at the piece's ends
        phi = spectrum_density(spec, np.clip(F, np.nextafter(lo, 1.0),
                                             np.nextafter(hi, 0.0)))
        inner = inner_base + _cumulative_simpson(F * phi, h)
        outer = (1.0 - F) * phi * inner
        total += _cumulative_simpson(outer, h)[-1]
        inner_base = inner[-1]
    return 2.0 * total


def _simpson(y, h):
    return h / 3.0 * float(np.sum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]))


def population_risk(spec, dist, nodes=20001, delta=1e-12):
    """-int_0^1 q(u) phi(u) du, as -int x phi(F(x)) f(x) dx over
    [q(delta), q(1 - delta)] split where phi has a kink or jump, by composite
    Simpson on `nodes` points per piece. The dropped tails weigh below 1e-10
    for the laws used here."""
    levels = [delta, *(b for b in spectrum_breakpoints(spec)
                       if delta < b < 1.0 - delta), 1.0 - delta]
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        x, h = np.linspace(_quantile(dist, lo), _quantile(dist, hi), nodes, retstep=True)
        phi = spectrum_density(spec, np.clip(_cdf(dist, x), np.nextafter(lo, 1.0),
                                             np.nextafter(hi, 0.0)))
        total += _simpson(x * phi * _pdf(dist, x), h)
    return -total


def discrete_es(sorted_x, k):
    return -float(np.mean(sorted_x[:k]))


def es_profile(sorted_x):
    return -np.cumsum(sorted_x) / np.arange(1, sorted_x.size + 1)
