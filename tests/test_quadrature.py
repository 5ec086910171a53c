"""The G7K15 panel integrator: closed forms, limits, breakpoints, budget
and failure semantics, one batched integrand call per round, and the
running integral built on the same partition."""

import ast
import math
import pathlib

import numpy as np
import pytest

from riskcore import expected_shortfall_spectrum
from riskcore.errors import QuadratureFailure
from riskcore.quadrature import (
    DEFAULT_MAX_EVALS,
    DEFAULT_TOL,
    _panels,
    adaptive_simpson,
    integrate_piecewise,
    running_integral,
)

SRC = pathlib.Path(__file__).parent.parent / "src" / "riskcore"


def _running_at_b(f, a, b, breakpoints=(), tol=DEFAULT_TOL,
                  max_evals=DEFAULT_MAX_EVALS):
    """integrate_piecewise's signature, answered by the running integral."""
    return float(running_integral(f, a, b, breakpoints, tol, max_evals)(b))



class TestIntegratePiecewise:
    def test_smooth_closed_forms(self):
        assert integrate_piecewise(np.exp, 0.0, 2.0, tol=1e-13) == \
            pytest.approx(math.expm1(2.0), abs=1e-13)
        assert integrate_piecewise(np.sin, 0.0, math.pi, tol=1e-13) == \
            pytest.approx(2.0, abs=1e-13)
        # a peaked integrand that forces several rounds of bisection
        got = integrate_piecewise(
            lambda x: 1.0 / (1.0 + 400.0 * x * x), -1.0, 1.0, tol=1e-12
        )
        assert got == pytest.approx(math.atan(20.0) / 10.0, abs=1e-12)

    def test_agrees_with_scalar_simpson(self):
        def f(x):
            return np.cos(3.0 * x) * np.exp(-x)

        ours = integrate_piecewise(f, 0.0, 4.0, tol=1e-12)
        reference = adaptive_simpson(lambda x: float(f(x)), 0.0, 4.0, tol=1e-12)
        assert ours == pytest.approx(reference, abs=1e-11)

    def test_equal_limits_give_zero(self):
        assert integrate_piecewise(np.exp, 1.5, 1.5) == 0.0

    def test_reversed_limits_negate(self):
        forward = integrate_piecewise(np.exp, 0.0, 2.0, breakpoints=(1.0,))
        assert integrate_piecewise(np.exp, 2.0, 0.0, breakpoints=(1.0,)) == -forward

    def test_jump_at_breakpoint(self):
        phi = expected_shortfall_spectrum(0.05)
        # integral of u * phi(u) over (0, 1] is alpha / 2
        got = integrate_piecewise(
            lambda u: u * phi.density(u), 0.0, 1.0,
            breakpoints=phi.breakpoints, tol=1e-13,
        )
        assert got == pytest.approx(0.025, abs=1e-14)
        for t in (0.01, 0.05, 0.3, 1.0):
            got = integrate_piecewise(
                phi.density, 0.0, t, breakpoints=phi.breakpoints, tol=1e-13
            )
            assert got == pytest.approx(phi.primitive(t), abs=1e-13)

    def test_breakpoints_outside_the_range_are_ignored(self):
        inside = integrate_piecewise(np.exp, 0.0, 1.0, tol=1e-13)
        assert integrate_piecewise(
            np.exp, 0.0, 1.0, breakpoints=(-1.0, 0.0, 1.0, 3.0), tol=1e-13
        ) == inside

    def test_one_batched_call_per_round(self):
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.sqrt(x)

        integrate_piecewise(f, 0.0, 1.0, breakpoints=(0.25, 0.5), tol=1e-8)
        assert len(shapes) > 1
        assert shapes[0] == (3, 15)
        assert all(len(s) == 2 and s[1] == 15 for s in shapes)

    def test_budget_exhaustion_raises(self):
        def f(x):
            return np.sin(50.0 * x)

        for integrate in (integrate_piecewise, _running_at_b):
            with pytest.raises(QuadratureFailure, match="budget"):
                integrate(f, 0.0, 1.0, tol=1e-14, max_evals=14)
            # the budget counts points: 15 + 30 fit in 60, the next round not
            with pytest.raises(QuadratureFailure, match="budget"):
                integrate(f, 0.0, 1.0, tol=1e-14, max_evals=60)

    def test_non_finite_integrand_raises(self):
        def f(x):
            return np.where(x < 0.7, 1.0, np.inf)

        for integrate in (integrate_piecewise, _running_at_b):
            with pytest.raises(QuadratureFailure, match="non-finite"):
                integrate(f, 0.0, 1.0)
            with pytest.raises(QuadratureFailure, match="non-finite"):
                integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_overflowing_integral_raises(self):
        # every value is finite, the integral is not
        with np.errstate(over="ignore"):
            with pytest.raises(QuadratureFailure, match="overflows"):
                integrate_piecewise(
                    lambda x: np.full_like(x, 1e300), -1e300, 1e300
                )


def _kink(x):
    return np.abs(x - 0.3)


def _kink_primitive(t):
    # integral of |x - 0.3| over [0, t]
    t = np.asarray(t, dtype=np.float64)
    return np.where(t <= 0.3, 0.3 * t - 0.5 * t * t, 0.045 + 0.5 * (t - 0.3) ** 2)


class TestRunningIntegral:
    CASES = [
        # (f, its running integral from a, a, b, breakpoints)
        (np.exp, lambda t: np.exp(t) - 1.0, 0.0, 2.0, (1.0,)),
        (_kink, _kink_primitive, 0.0, 1.0, (0.3,)),
    ]

    @pytest.mark.parametrize("f,exact,a,b,cuts", CASES, ids=["exp", "kink"])
    def test_closed_forms_at_random_points(self, f, exact, a, b, cuts):
        primitive = running_integral(f, a, b, cuts, 1e-13)
        t = a + (b - a) * np.random.default_rng(5).random((40, 3))
        got = primitive(t)
        assert got.shape == t.shape
        assert np.max(np.abs(got - exact(t))) <= 1e-13

    @pytest.mark.parametrize("f,exact,a,b,cuts", CASES, ids=["exp", "kink"])
    def test_ends_and_panel_edges(self, f, exact, a, b, cuts):
        primitive = running_integral(f, a, b, cuts, 1e-13)
        assert primitive(a) == 0.0
        # at every panel edge the value is the running sum of the panels
        starts, pieces = _panels(f, a, b, cuts, 1e-13, DEFAULT_MAX_EVALS)
        edges = np.append(starts[1:], b)
        assert np.array_equal(primitive(edges), np.cumsum(pieces))
        assert primitive(b) == pytest.approx(
            integrate_piecewise(f, a, b, breakpoints=cuts, tol=1e-13), abs=1e-13
        )
        assert primitive(b) == pytest.approx(float(exact(b)), abs=1e-13)

    def test_an_empty_range_is_zero_and_never_evaluated(self):
        # as integrate_piecewise's a == b; the partition of [a, a] divided
        # by its width
        def f(x):
            raise AssertionError("evaluated")

        primitive = running_integral(f, 1.0, 1.0, (), 1e-12)
        assert primitive(1.0) == 0.0
        assert np.array_equal(primitive(np.ones((2, 3))), np.zeros((2, 3)))

    def test_edges_are_not_evaluated(self):
        points = []

        def f(x):
            points.append(x.copy())
            return np.exp(x)

        primitive = running_integral(f, 0.0, 2.0, (1.0,), 1e-13)
        built = len(points)
        primitive(np.array([0.0, 1.0, 2.0]))
        assert len(points) == built
        # one call of f for all points between edges
        primitive(np.array([0.5, 1.5, 1.0]))
        assert len(points) == built + 1 and points[-1].shape == (2, 15)


def test_private_quadrature_names_stay_inside():
    """No riskcore module but quadrature names a _-prefixed name of it."""
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # from .quadrature import _x, or quadrature._x after import
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").rpartition(".")[2] == "quadrature":
                    names = [alias.name for alias in node.names]
                else:
                    names = []
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "quadrature"):
                names = [node.attr]
            else:
                continue
            leaks += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name.startswith("_")]
    assert not leaks
