"""Shared fixtures and draw helpers."""

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from riskcore import ReferenceDistribution


def draw_monotone_simplex(gen: np.random.Generator, n: int) -> np.ndarray:
    """A random point of the non-increasing simplex: exponential spacings
    normalised and sorted downward."""
    raw = gen.exponential(size=n)
    raw /= raw.sum()
    return np.sort(raw)[::-1].copy()


def draw_simplex(gen: np.random.Generator, n: int) -> np.ndarray:
    raw = gen.exponential(size=n)
    return raw / raw.sum()


def _refuse_constant(name: str) -> None:
    raise ValueError(f"not strict JSON: {name}")


def strict_json(text: str) -> object:
    """Parse a riskcore document as strict JSON: json.loads alone reads
    NaN, Infinity and -Infinity, which no riskcore document may hold."""
    return json.loads(text, parse_constant=_refuse_constant)


def rational_level(max_n: int = 400):
    """(n, k) with 1 <= k <= n: the level k/n of the k-th order statistic."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n))
    )


@pytest.fixture(scope="session")
def uniform01() -> ReferenceDistribution:
    return ReferenceDistribution("uniform", a=0.0, b=1.0)


@pytest.fixture(scope="session")
def std_normal() -> ReferenceDistribution:
    return ReferenceDistribution("normal", mean=0.0, sd=1.0)


@pytest.fixture(scope="session")
def exponential1() -> ReferenceDistribution:
    return ReferenceDistribution("exponential", rate=1.0)


@pytest.fixture(scope="session")
def point_mass3() -> ReferenceDistribution:
    return ReferenceDistribution("point_mass", c=3.0)
