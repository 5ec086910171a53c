"""Spectra: bounded non-increasing densities on [0, 1] with unit mass,
their primitives, canonical discretisation into L-estimator weights, and
the step-function view of a weight vector.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import WeightVector, ceil_level, json_field, json_type, number_array
from .errors import DomainError, NotLipschitz, NotMonotone, NotNormalised

#: grid resolution used to validate (S1)-(S3) and the declared Lipschitz
#: constant at construction
VALIDATION_GRID = 10_000
#: tolerance for the non-increasing and unit-mass checks
SHAPE_TOL = 1e-12

Floats = Union[float, np.ndarray]


class Spectrum:
    """A risk spectrum: non-increasing density phi on (0, 1], unit integral.

    bound is the sup-norm C; lipschitz is the Lipschitz constant L where
    one exists (None for the expected-shortfall and step families, which
    jump). Construction refuses, on a 10^4-point grid, a density that
    rises, leaves [0, bound] or moves faster than lipschitz.
    breakpoints lists interior kinks/jumps so quadrature never straddles
    them. An exact primitive is attached for every built-in kind; a
    custom density without one gets quadrature's running integral.
    """

    def __init__(
        self,
        kind: str,
        params: dict,
        bound: float,
        lipschitz: Optional[float],
        density: Callable[[np.ndarray], np.ndarray],
        primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        breakpoints: Sequence[float] = (),
    ):
        self.kind = kind
        self.params = dict(params)
        self.bound = float(bound)
        self.lipschitz = None if lipschitz is None else float(lipschitz)
        self.breakpoints = tuple(breakpoints)
        self._density = density
        if primitive is None:
            def primitive(t: np.ndarray) -> np.ndarray:
                # a custom density's running integral, cut at every t so
                # that each value meets the tolerance; imported here, as the
                # built-in kinds are built on cold calls with no integrator
                from .quadrature import DEFAULT_MAX_EVALS, running_integral

                cuts = np.append(t, self.breakpoints).tolist()
                # each cut needs a panel of its own: the budget grows with them
                return running_integral(
                    density, 0.0, 1.0, cuts, 1e-10, DEFAULT_MAX_EVALS + 30 * t.size
                )(t)

        self._primitive = primitive
        self._validate()

    def _validate(self) -> None:
        grid = np.arange(1, VALIDATION_GRID + 1) / VALIDATION_GRID
        pts = np.union1d(grid, [t for t in self.breakpoints if 0 < t <= 1])
        vals = self._density(pts)
        steps = np.diff(vals)
        if np.any(steps > SHAPE_TOL):
            raise NotMonotone(f"{self.kind} spectrum is not non-increasing")
        if self.lipschitz is not None and np.any(
                np.abs(steps) > self.lipschitz * np.diff(pts) + 1e-9):
            raise NotLipschitz(f"{self.kind} spectrum moves faster than its "
                               f"Lipschitz constant {self.lipschitz}")
        if np.any(vals < -SHAPE_TOL) or np.any(vals > self.bound + SHAPE_TOL):
            raise DomainError(
                f"{self.kind} spectrum leaves [0, {self.bound}] on the grid"
            )
        total = float(self.primitive(1.0))
        if abs(total - 1.0) > SHAPE_TOL:
            raise NotNormalised(f"{self.kind} spectrum integrates to {total}")

    def density(self, u: Floats) -> Floats:
        """Evaluate phi on (0, 1]."""
        arr = np.asarray(u, dtype=np.float64)
        if np.any(arr <= 0.0) or np.any(arr > 1.0):
            raise DomainError(f"spectrum evaluated outside (0, 1]: {u}")
        out = self._density(arr)
        return float(out) if np.isscalar(u) or arr.ndim == 0 else out

    def primitive(self, t: Floats) -> Floats:
        """Evaluate Phi(t) = integral of phi over [0, t] for t in [0, 1]."""
        arr = np.asarray(t, dtype=np.float64)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise DomainError(f"primitive evaluated outside [0, 1]: {t}")
        out = self._primitive(arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def expected_shortfall_spectrum(alpha: float) -> Spectrum:
    """phi = (1/alpha) on (0, alpha], 0 beyond. Bounded, not Lipschitz."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"es spectrum needs alpha in (0, 1], got {alpha}")
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
        raise DomainError(f"linear spectrum needs slope in [0, 2], got {slope}")
    s = float(slope)
    return Spectrum(
        kind="linear",
        params={"slope": s},
        bound=1.0 + 0.5 * s,
        lipschitz=s,
        density=lambda u: 1.0 + s * (0.5 - u),
        primitive=lambda t: t + 0.5 * s * t * (1.0 - t),
    )


def exponential_spectrum(k: float) -> Spectrum:
    """phi(u) = k exp(-k u) / (1 - exp(-k)); risk aversion grows with k."""
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError(f"exponential spectrum needs k > 0, got {k}")
    k = float(k)
    # a subnormal k carries too few digits for k * t and k / norm
    if k < sys.float_info.min:
        raise DomainError(f"exponential spectrum k={k} is too small to normalise")
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
    )


def piecewise_linear_spectrum(knots: Sequence[Sequence[float]]) -> Spectrum:
    """Spectrum interpolating (t, value) knots from t=0 to t=1.

    Values must be nonnegative and non-increasing; masses within 1e-12 of
    1 are renormalised exactly, anything further off is rejected.
    """
    pts = number_array(knots)
    if pts is None:
        raise DomainError("piecewise_linear knots must be numbers")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DomainError("piecewise_linear spectrum needs [[t, v], ...] knots")
    if not np.isfinite(pts).all():
        raise DomainError("piecewise_linear knots must be finite")
    t, v = pts[:, 0], pts[:, 1]
    if t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0.0):
        raise DomainError("knot positions must increase strictly from 0 to 1")
    if np.any(v < 0.0):
        raise DomainError("knot values must be nonnegative")
    if np.any(np.diff(v) > SHAPE_TOL):
        raise NotMonotone("knot values must be non-increasing")
    total = float(np.trapezoid(v, t))
    if abs(total - 1.0) > SHAPE_TOL:
        raise NotNormalised(f"piecewise_linear spectrum integrates to {total}")
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
    )


def canonical_weights(phi: Spectrum, n: int) -> WeightVector:
    """Canonical discretisation a_i = Phi(i/n) - Phi((i-1)/n).

    Custom spectra difference their running-integral primitive, which
    integrates once over all the grid's intervals.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    grid = np.arange(n + 1, dtype=np.float64) / n
    w = np.diff(phi.primitive(grid))
    return WeightVector(np.clip(w, 0.0, None), monotone=True)


def step_spectrum(a: WeightVector) -> Spectrum:
    """Associated step spectrum of a non-increasing weight vector: the
    value n * a_i on ((i-1)/n, i/n]."""
    if not a.monotone:
        raise NotMonotone("step_spectrum requires a certified monotone vector")
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
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")
    step = step_spectrum(canonical_weights(phi, n))
    t = np.arange(grid_size + 1, dtype=np.float64) / grid_size
    return float(np.max(np.abs(step.primitive(t) - phi.primitive(t))))


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
