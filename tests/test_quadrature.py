"""The G7K15 panel integrator: closed forms, limits, breakpoints, budget
and failure semantics, and one batched integrand call per round."""

import math

import numpy as np
import pytest

from riskcore import expected_shortfall_spectrum
from riskcore.errors import QuadratureFailure
from riskcore.quadrature import adaptive_simpson, integrate_piecewise


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

        with pytest.raises(QuadratureFailure, match="budget"):
            integrate_piecewise(f, 0.0, 1.0, tol=1e-14, max_evals=14)
        # the budget counts points: 15 + 30 fit in 60, the next round not
        with pytest.raises(QuadratureFailure, match="budget"):
            integrate_piecewise(f, 0.0, 1.0, tol=1e-14, max_evals=60)

    def test_non_finite_integrand_raises(self):
        def f(x):
            return np.where(x < 0.7, 1.0, np.inf)

        with pytest.raises(QuadratureFailure, match="non-finite"):
            integrate_piecewise(f, 0.0, 1.0)
        with pytest.raises(QuadratureFailure, match="non-finite"):
            integrate_piecewise(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_overflowing_integral_raises(self):
        # every value is finite, the integral is not
        with np.errstate(over="ignore"):
            with pytest.raises(QuadratureFailure, match="overflows"):
                integrate_piecewise(
                    lambda x: np.full_like(x, 1e300), -1e300, 1e300
                )
