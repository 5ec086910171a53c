"""Domain types and the weight/mixture algebra.

Sign convention throughout: sample entries are P&L values (profit
positive), risk numbers are required capital, so estimators evaluate
weighted sums of negated order statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Union

import numpy as np

from .errors import (
    AlphaOutOfRange,
    DomainError,
    EmptySet,
    LengthMismatch,
    NonFiniteInput,
    NotMonotone,
    NotNormalised,
)

#: tolerance on |sum - 1| for simplex membership
SUM_TOL = 1e-12
#: entrywise nonnegativity slack (float dust from linear maps)
ENTRY_SLACK = 1e-15
#: slack allowed in the non-increasing certificate
MONOTONE_SLACK = 1e-15
#: n * alpha within this many ulps of an integer k is read as k
LEVEL_ULPS = 4
#: characters of a malformed JSON value a diagnostic repeats
SHOWN_CHARS = 80

ArrayLike = Union[Sequence[float], np.ndarray]


def _as_readonly(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _finite_array(values: ArrayLike, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64).copy()
    except (TypeError, ValueError, OverflowError):
        raise NonFiniteInput(f"{what} must be an array of numbers") from None
    if arr.ndim != 1:
        raise NonFiniteInput(f"{what} must be one-dimensional")
    if arr.size < 1:
        raise NonFiniteInput(f"{what} must contain at least one entry")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{what} contains NaN or infinite entries")
    return arr


class _Malformed(Exception):
    """args: a JSON value that is not of its kind, and its index path."""


def _read(kind: object, value: object, at: tuple = ()) -> Any:
    """value read as kind, at index path `at` inside its field."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise _Malformed(value, at)
        if kind[0] is float:
            return _float_array(value, at)
        return [_read(kind[0], v, (*at, i)) for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if not isinstance(value, list) or len(value) != len(kind):
            raise _Malformed(value, at)
        return tuple(_read(k, v, (*at, i))
                     for i, (k, v) in enumerate(zip(kind, value)))
    if kind not in (bool, int, float):
        return kind(value)  # a builder, whose own errors pass through
    # bool is a subclass of int: a flag reads a JSON boolean only, and a
    # number a JSON number only
    if kind is bool:
        if isinstance(value, bool):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = kind(value)
        except (ValueError, OverflowError):  # int() of a NaN or an infinity
            raise _Malformed(value, at) from None
        if (out == value) if kind is int else math.isfinite(out):
            return out
    raise _Malformed(value, at)


def _float_array(values: list, at: tuple) -> np.ndarray:
    """A list of JSON numbers as a finite float array: one type scan and one
    conversion, and an entry-by-entry read only to name a bad entry."""
    if set(map(type, values)) <= {int, float}:
        try:
            arr = np.array(values, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            arr = np.array([np.inf])
        if np.isfinite(arr).all():
            return arr
    return np.array([_read(float, v, (*at, i)) for i, v in enumerate(values)])


def json_field(
    obj: dict, key: str, kind: object, default: object = ...,
    what: str = "config",
) -> Any:
    """The field `key` of the JSON object `obj` (a `what`) read as kind:
    int, float or bool; [kind], a list of them ([float] gives a float
    array); a tuple of kinds, a list of that length; or a builder, called
    on the value, whose own errors pass through. Only a JSON number reads
    as int (integral: 2000.0 reads as 2000) or float (finite), only a JSON
    boolean as bool; anything else is a one-line DomainError that names the
    field and the index of the first bad entry of a list. An absent field,
    or a null one with a default of None, reads as the default; with no
    default the field is required."""
    if key not in obj:
        if default is ...:
            raise DomainError(f"{what} is missing required field {key!r}")
        return default
    value = obj[key]
    if value is None and default is None:
        return None
    try:
        return _read(kind, value)
    except _Malformed as bad:
        bad_value, at = bad.args
        if kind is bool:
            message = f"{key!r} must be true or false, not {_shown(bad_value)}"
        else:
            at = "".join(f"[{i}]" for i in at)
            message = (f"{what} field {key!r}{at} has a malformed value: "
                       f"{_shown(bad_value)}")
        raise DomainError(message) from None


def _shown(value: object) -> str:
    text = repr(value)
    return text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS - 3] + "..."


def json_type(obj: object, kinds: dict, what: str) -> str:
    """The 'type' field of the JSON object `obj` (a `what`), which must be
    a key of kinds."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError(f"{what} JSON must be an object with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in kinds:
        raise DomainError(f"unknown {what} type {_shown(kind)}")
    return kind


def simplex_array(values: ArrayLike, what: str = "weights") -> np.ndarray:
    """Validate and exactly renormalise a point of the simplex.

    Entries must be >= -ENTRY_SLACK (tiny negatives are clipped to 0) and
    the sum must be within SUM_TOL of 1; the result is divided by its sum
    so downstream identities hold to machine precision.
    """
    arr = _finite_array(values, what)
    if np.any(arr < -ENTRY_SLACK):
        worst = float(arr.min())
        raise NotNormalised(f"{what} has negative entry {worst}")
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise NotNormalised(f"{what} sums to {total}, not 1")
    return _as_readonly(arr / total)


@dataclass(frozen=True)
class Sample:
    """A finite sequence of P&L values."""

    values: np.ndarray

    def __init__(self, values: ArrayLike):
        object.__setattr__(
            self, "values", _as_readonly(_finite_array(values, "sample"))
        )

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class SortedSample:
    """A non-decreasing sample plus the stable permutation that produced it."""

    values: np.ndarray
    order: np.ndarray

    def __init__(self, values: np.ndarray, order: np.ndarray):
        object.__setattr__(self, "values", _as_readonly(np.asarray(values)))
        object.__setattr__(self, "order", _as_readonly(np.asarray(order)))

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class WeightVector:
    """A point of the simplex, optionally certified non-increasing.

    The certificate is load-bearing: t_map and the sorted-domain
    estimators refuse uncertified vectors rather than silently sorting.
    """

    weights: np.ndarray
    monotone: bool = False

    def __init__(self, weights: ArrayLike, monotone: bool = False):
        arr = simplex_array(weights, "weights")
        if monotone and np.any(np.diff(arr) > MONOTONE_SLACK):
            i = int(np.argmax(np.diff(arr)))
            raise NotMonotone(
                f"weights increase at index {i}: {arr[i]} < {arr[i + 1]}"
            )
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "monotone", bool(monotone))

    @property
    def n(self) -> int:
        return self.weights.size

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class Mixture:
    """Mixing masses over discrete expected-shortfall levels k/n."""

    masses: np.ndarray

    def __init__(self, masses: ArrayLike):
        object.__setattr__(self, "masses", simplex_array(masses, "masses"))

    @property
    def n(self) -> int:
        return self.masses.size

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class RepresentingSet:
    """Finite vertex list of a polyhedral representing set.

    By linearity the supremum of a linear functional over a polytope is
    attained at a vertex, so a vertex list loses nothing for polyhedral
    sets. With sorted_domain the vertices apply to the sorted sample and
    must each be non-increasing.
    """

    vertices: np.ndarray  # shape (m, n), rows on the simplex
    sorted_domain: bool = True

    def __init__(
        self,
        vertices: Iterable[Union[WeightVector, Mixture, ArrayLike]],
        sorted_domain: bool = True,
    ):
        try:
            vertices = iter(vertices)
        except TypeError:
            raise NonFiniteInput("vertices must be a list of vectors") from None
        rows = []
        for v in vertices:
            if isinstance(v, WeightVector):
                arr = v.weights
                if sorted_domain and not v.monotone:
                    raise NotMonotone(
                        "sorted-domain representing set requires certified "
                        "non-increasing vertices"
                    )
            elif isinstance(v, Mixture):
                arr = v.masses
            else:
                arr = simplex_array(v, "vertex")
                if sorted_domain and np.any(np.diff(arr) > MONOTONE_SLACK):
                    raise NotMonotone("sorted-domain vertex is not non-increasing")
            rows.append(arr)
        if not rows:
            raise EmptySet("representing set has no vertices")
        n = rows[0].size
        if any(r.size != n for r in rows):
            raise LengthMismatch("representing-set vertices differ in length")
        object.__setattr__(self, "vertices", _as_readonly(np.vstack(rows)))
        object.__setattr__(self, "sorted_domain", bool(sorted_domain))

    @property
    def m(self) -> int:
        return self.vertices.shape[0]

    @property
    def n(self) -> int:
        return self.vertices.shape[1]


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
        raise AlphaOutOfRange(f"alpha must lie in (0, 1], got {alpha}")
    return float(s.values[ceil_level(s.n, alpha) - 1])


def t_map(a: WeightVector) -> Mixture:
    """Map non-increasing weights to ES-mixture masses.

    mu_k = k * (a_k - a_{k+1}) with a_{n+1} = 0. Nonnegativity and unit
    sum are guaranteed in exact arithmetic; float dust is clipped by the
    Mixture constructor.
    """
    if not a.monotone:
        raise NotMonotone("t_map requires a certified non-increasing vector")
    w = a.weights
    shifted = np.empty_like(w)
    shifted[:-1] = w[1:]
    shifted[-1] = 0.0
    k = np.arange(1, w.size + 1, dtype=np.float64)
    mu = k * (w - shifted)
    # exact in theory; rounding can leave dust of order k * MONOTONE_SLACK
    return Mixture(np.clip(mu, 0.0, None))


def t_inverse(mu: Mixture) -> WeightVector:
    """Invert the mixture map: a_i = sum_{k >= i} mu_k / k."""
    k = np.arange(1, mu.n + 1, dtype=np.float64)
    ratios = mu.masses / k
    weights = np.cumsum(ratios[::-1])[::-1]
    return WeightVector(weights, monotone=True)
