"""Quadrature with an absolute tolerance and a hard evaluation budget.

Exact primitives always take precedence; everything without one goes
through one globally adaptive Gauss-Kronrod G7K15 panel partition
(QUADPACK's qk15 rule; Piessens et al. 1983) and its two entry points:
integrate_piecewise for a definite integral over [a, b], running_integral
for t -> the integral over [a, t]. Each refinement round evaluates the
integrand once, on a (panels, 15) node array, so integrands take and
return numpy arrays. adaptive_simpson is the scalar recursive Simpson
rule; the library no longer calls it, and it is kept as an independent
scalar reference for tests.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import QuadratureFailure

DEFAULT_TOL = 1e-10
DEFAULT_MAX_EVALS = 10**6


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Classic recursive Simpson refinement with the |S2 - S1|/15 error
    estimate and Richardson extrapolation. Raises QuadratureFailure when
    the evaluation budget is exhausted before the tolerance is met.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol=tol, max_evals=max_evals)

    evals = 0

    def fev(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > max_evals:
            raise QuadratureFailure(
                f"evaluation budget {max_evals} exhausted on [{a}, {b}]"
            )
        return f(x)

    def simpson(fl: float, fm: float, fr: float, h: float) -> float:
        return h / 6.0 * (fl + 4.0 * fm + fr)

    def recurse(
        lo: float, hi: float, fl: float, fm: float, fr: float,
        whole: float, eps: float,
    ) -> float:
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = fev(lm)
        frm = fev(rm)
        left = simpson(fl, flm, fm, mid - lo)
        right = simpson(fm, frm, fr, hi - mid)
        delta = left + right - whole
        # interval too narrow to split further: accept the refined value
        if abs(delta) <= 15.0 * eps or lm <= lo or rm >= hi:
            return left + right + delta / 15.0
        half = 0.5 * eps
        return (
            recurse(lo, mid, fl, flm, fm, left, half)
            + recurse(mid, hi, fm, frm, fr, right, half)
        )

    fa, fmid, fb = fev(a), fev(0.5 * (a + b)), fev(b)
    for v in (fa, fmid, fb):
        if not math.isfinite(v):
            raise QuadratureFailure(f"non-finite integrand on [{a}, {b}]")
    whole = simpson(fa, fmid, fb, b - a)
    return recurse(a, b, fa, fmid, fb, whole, tol)


# Kronrod abscissae on [0, 1) of the 15-point rule, and their weights;
# the 7-point Gauss rule uses every second one (the odd indices below)
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
])
# the full rule on [-1, 1], nodes ascending
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_KRONROD = np.concatenate([_WK[:-1], _WK[::-1]])
_GAUSS = np.concatenate([_WG[:-1], _WG[::-1]])
#: integrand points per panel
_POINTS = _NODES.size
# a panel whose |K15 - G7| is within this many ulps of the integral of
# |f| cannot be resolved further: rounding, not the rule, sets its error
_ROUNDOFF = 50.0 * np.finfo(np.float64).eps


def _gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One G7K15 rule on each panel [lo_i, hi_i], in a single call of f.

    Returns the K15 values, the |K15 - G7| error estimates, and the K15
    integrals of |f| (the scale rounding errors are measured against).
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fx = np.broadcast_to(np.asarray(f(x), dtype=np.float64), x.shape)
    if not np.all(np.isfinite(fx)):
        raise QuadratureFailure(
            f"non-finite integrand on [{float(lo.min())}, {float(hi.max())}]"
        )
    k15 = half * (fx @ _KRONROD)
    g7 = half * (fx @ _GAUSS)
    if not (np.all(np.isfinite(k15)) and np.all(np.isfinite(g7))):
        raise QuadratureFailure(
            f"integral overflows on [{float(lo.min())}, {float(hi.max())}]"
        )
    return k15, np.abs(k15 - g7), np.abs(half) * (np.abs(fx) @ _KRONROD)


def _panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Sequence[float],
    tol: float,
    max_evals: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive partition of [a, b] (a < b) into accepted G7K15 panels.

    The panels start at the pieces between a, b and the interior
    breakpoints. A panel is accepted when |K15 - G7| is within its
    width's share of tol, or within rounding of its integral of |f|, or
    when it is too narrow to bisect; every other panel is bisected and
    the halves go to the next round. Returns the starts and the K15
    values of the accepted panels in ascending order.
    """
    cuts = np.array(sorted({a, b, *(t for t in breakpoints if a < t < b)}))
    lo, hi = cuts[:-1], cuts[1:]
    share = tol / (b - a)
    done_lo, done_val = [], []
    evals = 0
    while lo.size:
        evals += _POINTS * lo.size
        if evals > max_evals:
            raise QuadratureFailure(
                f"evaluation budget {max_evals} exhausted on [{a}, {b}]"
            )
        value, err, scale = _gauss_kronrod(f, lo, hi)
        mid = 0.5 * (lo + hi)
        ok = (
            (err <= share * (hi - lo))
            | (err <= _ROUNDOFF * scale)
            | (mid <= lo) | (mid >= hi)
        )
        done_lo.append(lo[ok])
        done_val.append(value[ok])
        split = ~ok
        lo, hi = (
            np.concatenate([lo[split], mid[split]]),
            np.concatenate([mid[split], hi[split]]),
        )
    lo, val = np.concatenate(done_lo), np.concatenate(done_val)
    order = np.argsort(lo, kind="stable")
    return lo[order], val[order]


def integrate_piecewise(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Sequence[float] = (),
    tol: float = DEFAULT_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> float:
    """Integrate the vectorised f over [a, b] to absolute tolerance tol.

    Panels are split at interior breakpoints so no rule straddles a known
    kink or jump. Raises QuadratureFailure when more than max_evals
    integrand points would be needed, when f returns a non-finite value,
    or when the integral overflows.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate_piecewise(
            f, b, a, breakpoints=breakpoints, tol=tol, max_evals=max_evals
        )
    return float(_panels(f, a, b, breakpoints, tol, max_evals)[1].sum())


def running_integral(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
    breakpoints: Sequence[float], tol: float, max_evals: int = DEFAULT_MAX_EVALS,
) -> Callable[[np.ndarray], np.ndarray]:
    """t -> integral of the vectorised f over [a, t], for t in [a, b] (a <= b).

    integrate_piecewise's partition gives the running sum at each panel
    edge, b included; any other t adds one G7K15 rule from its panel's
    start, in one call of f for all t. Panels are accepted on the whole
    integral (K15 - G7 misses an odd part of f about a panel's centre),
    so a t whose value must meet tol belongs among the breakpoints.
    """
    if a == b:  # _panels shares tol over b - a
        return lambda t: np.zeros(np.shape(t))
    starts, pieces = _panels(f, a, b, breakpoints, tol, max_evals)
    edges = np.append(starts, b)
    bases = np.concatenate([[0.0], np.cumsum(pieces)])

    def primitive(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        j = np.searchsorted(edges, t, side="right") - 1
        start = np.asarray(edges[j])
        inside = t != start
        rest = np.zeros(t.shape)
        if inside.any():
            rest[inside] = _gauss_kronrod(f, start[inside], t[inside])[0]
        return bases[j] + rest

    return primitive
