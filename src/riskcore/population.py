"""Reference distributions with exact CDF and quantile accessors and the
quantile's closed-form primitive Q, plus population risk values, from Q
alone, used as ground truth by the experiment drivers.

scipy.special is imported inside the normal-law branches only: it is
most of the cold-start cost of the CLI, and only normal laws need it.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .core import json_field, json_type, number_array
from .errors import RiskError
from .quadrature import integrate_piecewise
from .spectra import Spectrum

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: a law is refused when its quantile range over [TAIL_DELTA,
#: 1 - TAIL_DELTA] overflows
TAIL_DELTA = 1e-8
#: absolute tolerance of population_spectral_risk's quadrature
RISK_TOL = 1e-10

Floats = Union[float, np.ndarray]

# t + (1 - t) log(1 - t) is the sum over m >= 2 of t^m / (m (m - 1)); these
# are the coefficients of m = 18 down to 2, whose tail is below 1e-16 of
# the sum for t < 1/8
_EXP_SERIES = 1.0 / (np.arange(18, 1, -1) * np.arange(17, 0, -1))


#: the parameters of each kind of law, in the order JSON reads them
LAW_PARAMS = {
    "uniform": ("a", "b"),
    "normal": ("mean", "sd"),
    "exponential": ("rate",),
    "point_mass": ("c",),
}


def _phi(z: Floats) -> Floats:
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


class ReferenceDistribution:
    """A population law with exact accessors.

    Supported kinds: uniform(a, b), normal(mean, sd), exponential(rate),
    point_mass(c). A law whose quantile range over [TAIL_DELTA,
    1 - TAIL_DELTA] does not have a finite width is refused: every
    integral over a quantile range would overflow on it.
    """

    def __init__(self, kind: str, **params: float):
        if kind not in LAW_PARAMS:
            raise RiskError(f"unknown distribution kind {kind!r}")
        names = LAW_PARAMS[kind]
        if set(params) != set(names):
            raise RiskError(
                f"{kind} takes the parameters {', '.join(names)}, "
                f"got {', '.join(params) or 'none'}"
            )
        # each value read on its own: beside a number, numpy reads a
        # boolean as that kind of number
        values = [number_array(value) for value in params.values()]
        if not all(v is not None and v.ndim == 0 for v in values):
            raise RiskError(f"{kind} parameters must be numbers: {params}")
        params = dict(zip(params, map(float, values)))
        if not all(map(math.isfinite, params.values())):
            raise RiskError(f"{kind} parameters must be finite: {params}")
        params = {key: params[key] for key in names}
        if kind == "uniform" and not params["a"] < params["b"]:
            a, b = params["a"], params["b"]
            raise RiskError(f"uniform needs a < b, got a={a}, b={b}")
        if kind == "normal" and not params["sd"] > 0:
            raise RiskError(f"normal needs sd > 0, got {params['sd']}")
        if kind == "exponential" and not params["rate"] > 0:
            raise RiskError(f"exponential needs rate > 0, got {params['rate']}")
        self.kind = kind
        self.params = params
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
            raise RiskError(
                f"{kind} parameters give a quantile range that overflows: "
                f"{params}"
            )

    # -- accessors ---------------------------------------------------------

    def cdf(self, x: Floats) -> Floats:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            a, b = self.params["a"], self.params["b"]
            # maximum keeps its second argument on a tie, so -0.0 stays
            # -0.0 as it does under np.clip
            out = np.minimum(np.maximum(0.0, (x - a) / (b - a)), 1.0)
        elif self.kind == "normal":
            from scipy.special import ndtr

            out = ndtr((x - self.params["mean"]) / self.params["sd"])
        elif self.kind == "exponential":
            # below 0 the clamp gives -expm1(-0.0) = 0.0
            out = -np.expm1(-self.params["rate"] * np.maximum(x, 0.0))
        else:
            out = np.where(x >= self.params["c"], 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, u: Floats) -> Floats:
        u = np.array(u, dtype=np.float64)  # a copy: the map runs in place
        # NaN fails every comparison, so the test is written to refuse it
        if not ((u > 0.0) & (u <= 1.0)).all():
            raise RiskError("quantile argument must lie in (0, 1]")
        out = self.quantile_in_place(u)
        return float(out) if out.ndim == 0 else out

    def quantile_in_place(self, u: np.ndarray) -> np.ndarray:
        """The quantile at each entry of the float64 array u, written over
        u and returned. Unchecked: the caller keeps u in (0, 1]."""
        p = self.params
        if self.kind == "uniform":
            u *= p["b"] - p["a"]
            u += p["a"]
        elif self.kind == "normal":
            from scipy.special import ndtri

            ndtri(u, out=u)
            u *= p["sd"]
            u += p["mean"]
        elif self.kind == "exponential":
            # u = 1 is the law's +inf, as ndtri gives it for the normal
            with np.errstate(divide="ignore"):
                np.negative(np.log1p(np.negative(u, out=u), out=u), out=u)
            u /= p["rate"]
        else:
            u.fill(p["c"])
        return u

    # -- exact integral helpers --------------------------------------------

    def quantile_primitive(self, t: Floats) -> Floats:
        """Integral of the quantile over [0, t], in closed form: 0 at
        t = 0 and the law's mean at t = 1."""
        t = np.asarray(t, dtype=np.float64)
        if not ((t >= 0.0) & (t <= 1.0)).all():  # NaN is refused too
            raise RiskError("quantile primitive needs t in [0, 1]")
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
            # (1 - t) log(1 - t) -> 0 as t -> 1
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(t < 1.0, (1.0 - t) * np.log1p(-t), 0.0)
            # t + term cancels to t^2 / 2 as t -> 0; below 1/8 its series
            # keeps every digit
            out = np.where(t < 0.125, t * t * np.polyval(_EXP_SERIES, t),
                           t + term) / self.params["rate"]
        else:
            out = self.params["c"] * t
        return float(out) if out.ndim == 0 else out


def population_es(dist: ReferenceDistribution, alpha: float) -> float:
    """Population expected shortfall -(1/alpha) * integral of q over (0, alpha]."""
    if not (0.0 < alpha <= 1.0):
        raise RiskError(f"alpha must lie in (0, 1], got {alpha}")
    return -float(dist.quantile_primitive(alpha)) / alpha


def population_spectral_risk(dist: ReferenceDistribution, phi: Spectrum) -> float:
    """Population spectral risk -integral of q * phi over (0, 1), through
    the quantile primitive Q. A spectrum without a slope is constant
    between its breakpoints, a finite ES mixture summed in closed form (an
    ES spectrum is population_es exactly). A sloped, continuous one is
    phi(1) Q(1) - integral of Q phi', whose integrand is bounded.
    """
    if dist.kind == "point_mass":
        return -dist.params["c"]
    if phi.slope is None:
        cuts = np.array([0.0, *(t for t in phi.breakpoints if 0 < t < 1), 1.0])
        masses = np.diff(phi.primitive(cuts))
        total = float(np.sum(masses * np.diff(dist.quantile_primitive(cuts))
                             / np.diff(cuts)))
    else:
        # a slope that overflows is refused as a non-finite integrand
        with np.errstate(over="ignore", invalid="ignore"):
            body = integrate_piecewise(
                lambda u: dist.quantile_primitive(u) * phi.slope(u), 0.0, 1.0,
                breakpoints=phi.breakpoints, tol=RISK_TOL,
            )
        total = phi.density(1.0) * float(dist.quantile_primitive(1.0)) - body
    if not math.isfinite(total):
        raise RiskError("spectral risk integral did not converge")
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
