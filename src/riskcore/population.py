"""Reference distributions with exact CDF/quantile/density accessors and
closed-form tail integrals, plus population risk values used as ground
truth by the experiment drivers.

scipy.special is imported inside the normal-law branches only: it is
most of the cold-start cost of the CLI, and only normal laws need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import json_field, json_type
from .errors import AlphaOutOfRange, DomainError, QuadratureFailure
from .quadrature import integrate_piecewise
from .spectra import Spectrum

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: truncation used when integrating unbounded quantiles; the removed
#: mass is restored through exact analytic tail terms
TAIL_DELTA = 1e-8

Floats = Union[float, np.ndarray]


#: the parameters of each kind of law, in the order JSON reads them
LAW_PARAMS = {
    "uniform": ("a", "b"),
    "normal": ("mean", "sd"),
    "exponential": ("rate",),
    "point_mass": ("c",),
}


def _phi(z: Floats) -> Floats:
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


@dataclass(frozen=True)
class ReferenceDistribution:
    """A population law with exact accessors.

    Supported kinds: uniform(a, b), normal(mean, sd), exponential(rate),
    point_mass(c). The point mass exists for trivial-case tests only; its
    density and quantile derivative are errors. A law whose quantile range
    over [TAIL_DELTA, 1 - TAIL_DELTA] does not have a finite width is
    refused: every integral over a quantile range would overflow on it.
    """

    kind: str
    params: dict

    def __init__(self, kind: str, **params: float):
        try:
            params = {key: float(value) for key, value in params.items()}
        except (TypeError, ValueError):
            raise DomainError(f"{kind} parameters must be numbers: {params}") from None
        if not all(map(math.isfinite, params.values())):
            raise DomainError(f"{kind} parameters must be finite: {params}")
        if kind not in LAW_PARAMS:
            raise DomainError(f"unknown distribution kind {kind!r}")
        params = {key: params[key] for key in LAW_PARAMS[kind]}
        if kind == "uniform" and not params["a"] < params["b"]:
            a, b = params["a"], params["b"]
            raise DomainError(f"uniform needs a < b, got a={a}, b={b}")
        if kind == "normal" and not params["sd"] > 0:
            raise DomainError(f"normal needs sd > 0, got {params['sd']}")
        if kind == "exponential" and not params["rate"] > 0:
            raise DomainError(f"exponential needs rate > 0, got {params['rate']}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        # the normal quantile comes from the standard library here: scipy
        # is imported by the accessors only, not by building a law
        if kind == "normal":
            from statistics import NormalDist

            law = NormalDist(params["mean"], params["sd"])
            lo, hi = law.inv_cdf(TAIL_DELTA), law.inv_cdf(1.0 - TAIL_DELTA)
        else:
            with np.errstate(over="ignore"):
                tails = np.array([TAIL_DELTA, 1.0 - TAIL_DELTA])
                lo, hi = self.quantile(tails).tolist()
        if not math.isfinite(hi - lo):
            raise DomainError(
                f"{kind} parameters give a quantile range that overflows: "
                f"{params}"
            )

    # -- accessors ---------------------------------------------------------

    def cdf(self, x: Floats) -> Floats:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            a, b = self.params["a"], self.params["b"]
            out = np.clip((x - a) / (b - a), 0.0, 1.0)
        elif self.kind == "normal":
            from scipy.special import ndtr

            out = ndtr((x - self.params["mean"]) / self.params["sd"])
        elif self.kind == "exponential":
            out = np.where(x < 0.0, 0.0, -np.expm1(-self.params["rate"] * np.maximum(x, 0.0)))
        else:
            out = np.where(x >= self.params["c"], 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, u: Floats) -> Floats:
        u = np.asarray(u, dtype=np.float64)
        if ((u <= 0.0) | (u > 1.0)).any():
            raise AlphaOutOfRange("quantile argument must lie in (0, 1]")
        if self.kind == "uniform":
            a, b = self.params["a"], self.params["b"]
            out = a + u * (b - a)
        elif self.kind == "normal":
            from scipy.special import ndtri

            out = self.params["mean"] + self.params["sd"] * ndtri(u)
        elif self.kind == "exponential":
            # u = 1 is the law's +inf, as ndtri gives it for the normal
            with np.errstate(divide="ignore"):
                out = -np.log1p(-u) / self.params["rate"]
        else:
            out = np.full_like(u, self.params["c"])
        return float(out) if out.ndim == 0 else out

    def density(self, x: Floats) -> Floats:
        if self.kind == "point_mass":
            raise DomainError("point mass has no density")
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            a, b = self.params["a"], self.params["b"]
            out = np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
        elif self.kind == "normal":
            sd = self.params["sd"]
            out = _phi((x - self.params["mean"]) / sd) / sd
        else:
            rate = self.params["rate"]
            out = np.where(x < 0.0, 0.0, rate * np.exp(-rate * np.maximum(x, 0.0)))
        return float(out) if out.ndim == 0 else out

    def quantile_derivative(self, u: Floats) -> Floats:
        """q'(u) = 1 / f(q(u)) on (0, 1)."""
        if self.kind == "point_mass":
            raise DomainError("point mass has no quantile derivative")
        u = np.asarray(u, dtype=np.float64)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise AlphaOutOfRange("quantile derivative needs u in (0, 1)")
        if self.kind == "uniform":
            out = np.full_like(u, self.params["b"] - self.params["a"])
        elif self.kind == "normal":
            from scipy.special import ndtri

            out = self.params["sd"] / _phi(ndtri(u))
        else:
            out = 1.0 / (self.params["rate"] * (1.0 - u))
        return float(out) if out.ndim == 0 else out

    @property
    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.params["a"] + self.params["b"])
        if self.kind == "normal":
            return self.params["mean"]
        if self.kind == "exponential":
            return 1.0 / self.params["rate"]
        return self.params["c"]

    @property
    def variance(self) -> float:
        if self.kind == "uniform":
            return (self.params["b"] - self.params["a"]) ** 2 / 12.0
        if self.kind == "normal":
            return self.params["sd"] ** 2
        if self.kind == "exponential":
            return 1.0 / self.params["rate"] ** 2
        return 0.0

    # -- exact integral helpers --------------------------------------------

    def quantile_primitive(self, t: Floats) -> Floats:
        """Integral of the quantile over [0, t], in closed form."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise AlphaOutOfRange("quantile primitive needs t in [0, 1]")
        if self.kind == "uniform":
            a, b = self.params["a"], self.params["b"]
            out = a * t + 0.5 * (b - a) * t * t
        elif self.kind == "normal":
            from scipy.special import ndtri

            mean, sd = self.params["mean"], self.params["sd"]
            with np.errstate(divide="ignore"):
                z = ndtri(np.clip(t, 0.0, 1.0))
            out = mean * t - sd * np.where(np.isfinite(z), _phi(z), 0.0)
        elif self.kind == "exponential":
            rate = self.params["rate"]
            rem = 1.0 - t
            # (1 - t) log(1 - t) -> 0 as t -> 1
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(
                    rem > 0.0, rem * np.log(np.maximum(rem, 1e-300)), 0.0
                )
            out = (term + t) / rate
        else:
            out = self.params["c"] * t
        return float(out) if out.ndim == 0 else out

    def cdf_primitive(self, x: Floats) -> Floats:
        """Integral of the CDF from the lower end of the support to x."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            a, b = self.params["a"], self.params["b"]
            inside = np.square(np.clip(x, a, b) - a) / (2.0 * (b - a))
            out = inside + np.maximum(x - b, 0.0)
        elif self.kind == "normal":
            from scipy.special import ndtr

            mean, sd = self.params["mean"], self.params["sd"]
            z = (x - mean) / sd
            out = sd * (z * ndtr(z) + _phi(z))
        elif self.kind == "exponential":
            rate = self.params["rate"]
            xp = np.maximum(x, 0.0)
            out = xp + np.expm1(-rate * xp) / rate
        else:
            out = np.maximum(x - self.params["c"], 0.0)
        return float(out) if out.ndim == 0 else out

    def survival_primitive(self, x: Floats) -> Floats:
        """Integral of 1 - CDF from x to the upper end of the support."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            a, b = self.params["a"], self.params["b"]
            inside = np.square(b - np.clip(x, a, b)) / (2.0 * (b - a))
            out = inside + np.maximum(a - x, 0.0)
        elif self.kind == "normal":
            from scipy.special import ndtr

            mean, sd = self.params["mean"], self.params["sd"]
            z = (x - mean) / sd
            out = sd * (_phi(z) - z * (1.0 - ndtr(z)))
        elif self.kind == "exponential":
            rate = self.params["rate"]
            out = np.where(
                x < 0.0, -x + 1.0 / rate, np.exp(-rate * np.maximum(x, 0.0)) / rate
            )
        else:
            out = np.maximum(self.params["c"] - x, 0.0)
        return float(out) if out.ndim == 0 else out


def population_es(dist: ReferenceDistribution, alpha: float) -> float:
    """Population expected shortfall -(1/alpha) * integral of q over (0, alpha]."""
    if not (0.0 < alpha <= 1.0):
        raise AlphaOutOfRange(f"alpha must lie in (0, 1], got {alpha}")
    return -float(dist.quantile_primitive(alpha)) / alpha


def population_spectral_risk(dist: ReferenceDistribution, phi: Spectrum) -> float:
    """Population spectral risk -integral of q * phi over (0, 1).

    Quadrature runs on [delta, 1 - delta] split at the spectrum's
    breakpoints; the truncated tails are restored with the exact quantile
    primitive, with the spectrum frozen at its boundary value there.
    """
    if dist.kind == "point_mass":
        return -dist.params["c"]
    delta = TAIL_DELTA
    if phi.kind == "es" and phi.params["alpha"] <= delta:
        alpha = phi.params["alpha"]
        return -float(dist.quantile_primitive(alpha)) / alpha

    def f(u: np.ndarray) -> np.ndarray:
        return dist.quantile(u) * phi.density(u)

    body = integrate_piecewise(
        f, delta, 1.0 - delta, breakpoints=phi.breakpoints, tol=1e-10
    )
    low = float(phi.density(delta)) * float(dist.quantile_primitive(delta))
    top = float(phi.density(1.0 - delta)) * (
        float(dist.quantile_primitive(1.0)) - float(dist.quantile_primitive(1.0 - delta))
    )
    total = low + body + top
    if not math.isfinite(total):
        raise QuadratureFailure("spectral risk integral did not converge")
    return -total


def distribution_from_json(obj: dict) -> ReferenceDistribution:
    """Build a reference distribution from its JSON description."""
    kind = json_type(obj, LAW_PARAMS, "distribution")
    return ReferenceDistribution(kind, **{
        key: json_field(obj, key, float, what="distribution JSON")
        for key in LAW_PARAMS[kind]
    })


def distribution_to_json(dist: ReferenceDistribution) -> dict:
    return {"type": dist.kind, **dist.params}
