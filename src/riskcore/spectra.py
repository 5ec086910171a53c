"""Spectra: bounded non-increasing densities on [0, 1] with unit mass,
their primitives, and canonical discretisation into L-estimator weights.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import WeightVector, json_field, json_type, number_array
from .errors import RiskError

#: grid resolution used to validate (S1)-(S3) and the declared Lipschitz
#: constant at construction
VALIDATION_GRID = 10_000
# the grid k / VALIDATION_GRID, k = 1..VALIDATION_GRID, built once; read-only,
# since a density may be handed it as it is
_GRID = np.arange(1, VALIDATION_GRID + 1) / VALIDATION_GRID
_GRID.flags.writeable = False
#: tolerance for the non-increasing and unit-mass checks
SHAPE_TOL = 1e-12

Floats = Union[float, np.ndarray]


class Spectrum:
    """A risk spectrum: non-increasing density phi on (0, 1], unit integral.

    bound is the sup-norm C; lipschitz is the Lipschitz constant L where
    one exists (None for the ES family, which jumps). primitive
    is the exact Phi(t), the integral of phi over [0, t]. breakpoints are
    phi's interior kinks, jumps and scales; slope is phi' between them for
    a continuous phi, and None means phi is constant between them. A
    density that rises, leaves [0, bound], moves faster than lipschitz, or
    moves between breakpoints without a slope is refused when built, as is
    a bound or lipschitz that is not finite (exponential k above ~1.34e154).
    """

    def __init__(
        self,
        kind: str,
        params: dict,
        bound: float,
        lipschitz: Optional[float],
        density: Callable[[np.ndarray], np.ndarray],
        primitive: Callable[[np.ndarray], np.ndarray],
        breakpoints: Sequence[float] = (),
        slope: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        self.kind = kind
        self.params = dict(params)
        self.bound = float(bound)
        self.lipschitz = None if lipschitz is None else float(lipschitz)
        self.breakpoints = tuple(breakpoints)
        self.slope = slope
        self._density = density
        self._primitive = primitive
        self._validate()

    def _validate(self) -> None:
        if not all(map(math.isfinite, (self.bound, self.lipschitz or 0.0))):
            raise RiskError(f"{self.kind} spectrum needs a finite bound and Lipschitz "
                            f"constant, got {self.bound} and {self.lipschitz}")
        # the grid with the breakpoints in (0, 1] it lacks inserted in order
        cuts = np.unique([t for t in self.breakpoints if 0 < t <= 1])
        at = np.searchsorted(_GRID, cuts)
        off = _GRID[at] != cuts
        pts = np.insert(_GRID, at[off], cuts[off]) if off.any() else _GRID
        vals = self._density(pts)
        steps = np.diff(vals)
        if (steps > SHAPE_TOL).any():
            raise RiskError(f"{self.kind} spectrum is not non-increasing")
        if self.lipschitz is not None and (
                np.abs(steps) > self.lipschitz * np.diff(pts) + 1e-9).any():
            raise RiskError(f"{self.kind} spectrum moves faster than its "
                               f"Lipschitz constant {self.lipschitz}")
        # pts holds every breakpoint in (0, 1], so a step stays within one
        # piece exactly when its left point is not a breakpoint
        if self.slope is None:
            inside = np.ones(pts.size, dtype=bool)
            inside[np.searchsorted(pts, cuts)] = False
            if (np.abs(steps[inside[:-1]]) > SHAPE_TOL).any():
                raise RiskError(f"{self.kind} spectrum declares no slope "
                                "but moves between its breakpoints")
        elif self.lipschitz is None:
            raise RiskError(f"{self.kind} spectrum has a slope but no Lipschitz constant")
        if (vals < -SHAPE_TOL).any() or (vals > self.bound + SHAPE_TOL).any():
            raise RiskError(
                f"{self.kind} spectrum leaves [0, {self.bound}] on the grid"
            )
        total = float(self.primitive(1.0))
        if abs(total - 1.0) > SHAPE_TOL:
            raise RiskError(f"{self.kind} spectrum integrates to {total}")

    def density(self, u: Floats) -> Floats:
        """Evaluate phi on (0, 1]."""
        arr = np.asarray(u, dtype=np.float64)
        # NaN lies in no interval, so the guard asks all to lie inside
        if not ((arr > 0.0) & (arr <= 1.0)).all():
            raise RiskError(f"spectrum evaluated outside (0, 1]: {u}")
        out = self._density(arr)
        return float(out) if arr.ndim == 0 else out

    def primitive(self, t: Floats) -> Floats:
        """Evaluate Phi(t) = integral of phi over [0, t] for t in [0, 1]."""
        arr = np.asarray(t, dtype=np.float64)
        if not ((arr >= 0.0) & (arr <= 1.0)).all():
            raise RiskError(f"primitive evaluated outside [0, 1]: {t}")
        out = self._primitive(arr)
        return float(out) if arr.ndim == 0 else out


def expected_shortfall_spectrum(alpha: float) -> Spectrum:
    """phi = (1/alpha) on (0, alpha], 0 beyond. Bounded, not Lipschitz."""
    if not (0.0 < alpha <= 1.0):
        raise RiskError(f"es spectrum needs alpha in (0, 1], got {alpha}")
    return Spectrum(
        kind="es",
        params={"alpha": float(alpha)},
        bound=1.0 / alpha,
        lipschitz=None,
        density=lambda u: np.where(u <= alpha, 1.0 / alpha, 0.0),
        primitive=lambda t: np.minimum(t, alpha) / alpha,
        breakpoints=(alpha,),
    )


def uniform_spectrum() -> Spectrum:
    """phi = 1: the negative-mean risk functional."""
    return Spectrum(
        kind="uniform",
        params={},
        bound=1.0,
        lipschitz=0.0,
        density=lambda u: np.ones_like(u),
        primitive=lambda t: np.asarray(t, dtype=np.float64),
    )


def linear_spectrum(slope: float) -> Spectrum:
    """phi(u) = 1 + slope * (1/2 - u); slope in [0, 2] keeps phi >= 0."""
    if not (0.0 <= slope <= 2.0):
        raise RiskError(f"linear spectrum needs slope in [0, 2], got {slope}")
    s = float(slope)
    return Spectrum(
        kind="linear",
        params={"slope": s},
        bound=1.0 + 0.5 * s,
        lipschitz=s,
        density=lambda u: 1.0 + s * (0.5 - u),
        primitive=lambda t: t + 0.5 * s * t * (1.0 - t),
        slope=lambda u: np.full_like(u, -s),
    )


def exponential_spectrum(k: float) -> Spectrum:
    """phi(u) = k exp(-k u) / (1 - exp(-k)); risk aversion grows with k."""
    if not (k > 0.0 and math.isfinite(k)):
        raise RiskError(f"exponential spectrum needs k > 0, got {k}")
    k = float(k)
    # a subnormal k carries too few digits for k * t and k / norm
    if k < sys.float_info.min:
        raise RiskError(f"exponential spectrum k={k} is too small to normalise")
    # expm1 keeps every digit of 1 - exp(-x) for small x, where the
    # difference would cancel
    norm = -math.expm1(-k)
    return Spectrum(
        kind="exponential",
        params={"k": k},
        bound=k / norm,
        lipschitz=k * k / norm,
        density=lambda u: k * np.exp(-k * u) / norm,
        primitive=lambda t: -np.expm1(-k * np.asarray(t, dtype=np.float64))
        / norm,
        # phi falls by e^-c from 0 to c/k: these scales resolve its spike
        breakpoints=[c / k for c in (1.0, 4.0, 16.0, 64.0) if c < k],
        slope=lambda u: -k * (k * np.exp(-k * u) / norm),
    )


def piecewise_linear_spectrum(knots: Sequence[Sequence[float]]) -> Spectrum:
    """Spectrum interpolating (t, value) knots from t=0 to t=1.

    Values must be nonnegative and non-increasing; masses within 1e-12 of
    1 are renormalised exactly, anything further off is rejected.
    """
    pts = number_array(knots)
    if pts is None:
        raise RiskError("piecewise_linear knots must be numbers")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise RiskError("piecewise_linear spectrum needs [[t, v], ...] knots")
    if not np.isfinite(pts).all():
        raise RiskError("piecewise_linear knots must be finite")
    t, v = pts[:, 0], pts[:, 1]
    if t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0.0):
        raise RiskError("knot positions must increase strictly from 0 to 1")
    if np.any(v < 0.0):
        raise RiskError("knot values must be nonnegative")
    if np.any(np.diff(v) > SHAPE_TOL):
        raise RiskError("knot values must be non-increasing")
    total = float(np.trapezoid(v, t))
    if abs(total - 1.0) > SHAPE_TOL:
        raise RiskError(f"piecewise_linear spectrum integrates to {total}")
    v = v / total
    slopes = np.diff(v) / np.diff(t)
    seg_mass = 0.5 * (v[:-1] + v[1:]) * np.diff(t)
    cum = np.concatenate([[0.0], np.cumsum(seg_mass)])
    cum[-1] = 1.0

    def density(u: np.ndarray) -> np.ndarray:
        return np.interp(u, t, v)

    def primitive(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        j = np.clip(np.searchsorted(t, x, side="right") - 1, 0, t.size - 2)
        dt = x - t[j]
        return cum[j] + v[j] * dt + 0.5 * slopes[j] * dt * dt

    return Spectrum(
        kind="piecewise_linear",
        params={"knots": [[float(a), float(b)] for a, b in zip(t, v)]},
        bound=float(v[0]),
        lipschitz=float(np.max(np.abs(slopes))) if slopes.size else 0.0,
        density=density,
        primitive=primitive,
        breakpoints=tuple(float(x) for x in t[1:-1]),
        # the piece (t_j, t_j+1] holds the u with j interior knots below
        slope=lambda u: slopes[np.searchsorted(t[1:-1], u)],
    )


def canonical_weights(phi: Spectrum, n: int) -> WeightVector:
    """Canonical discretisation a_i = Phi(i/n) - Phi((i-1)/n)."""
    if n < 1:
        raise RiskError(f"n must be >= 1, got {n}")
    grid = np.arange(n + 1, dtype=np.float64) / n
    w = np.diff(phi.primitive(grid))
    return WeightVector(np.clip(w, 0.0, None), monotone=True)


#: the builder of each JSON spectrum type, and the fields it reads
_JSON_SPECTRA = {
    "es": (expected_shortfall_spectrum, ("alpha", float)),
    "uniform": (uniform_spectrum,),
    "linear": (linear_spectrum, ("slope", float)),
    "exponential": (exponential_spectrum, ("k", float)),
    "piecewise_linear": (piecewise_linear_spectrum, ("knots", [(float, float)])),
}


def spectrum_from_json(obj: dict) -> Spectrum:
    """Build a spectrum from its JSON description."""
    build, *fields = _JSON_SPECTRA[json_type(obj, _JSON_SPECTRA, "spectrum")]
    return build(*(json_field(obj, key, k, what="spectrum JSON")
                   for key, k in fields))


def spectrum_to_json(phi: Spectrum) -> dict:
    return {"type": phi.kind, **phi.params}
