"""Spectra, primitives, canonical weights, and step reconstructions."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings

from riskcore import (
    Spectrum,
    canonical_weights,
    expected_shortfall_spectrum,
    exponential_spectrum,
    linear_spectrum,
    piecewise_linear_spectrum,
    primitive_gap,
    spectrum_from_json,
    step_spectrum,
    uniform_spectrum,
)
from riskcore.errors import (
    DomainError,
    NotLipschitz,
    NotMonotone,
    NotNormalised,
    QuadratureFailure,
)
from riskcore.quadrature import adaptive_simpson
from riskcore.core import WeightVector, ceil_level
from riskcore.spectra import spectrum_to_json
from conftest import draw_monotone_simplex, rational_level


class TestDensity:
    def test_es_density(self):
        phi = expected_shortfall_spectrum(0.5)
        assert phi.density(0.3) == 2.0
        assert phi.density(0.5) == 2.0
        assert phi.density(0.50001) == 0.0

    def test_uniform_density(self):
        phi = uniform_spectrum()
        for u in (0.1, 0.5, 1.0):
            assert phi.density(u) == 1.0

    def test_linear_density(self):
        assert linear_spectrum(2.0).density(0.25) == 1.5

    @pytest.mark.parametrize("u", [0.0, -0.2, 1.0001])
    def test_domain_errors(self, u):
        with pytest.raises(DomainError):
            uniform_spectrum().density(u)


class TestPrimitive:
    def test_es_primitive(self):
        phi = expected_shortfall_spectrum(0.5)
        assert phi.primitive(0.25) == 0.5
        assert phi.primitive(0.0) == 0.0
        assert phi.primitive(1.0) == 1.0

    def test_uniform_primitive(self):
        assert uniform_spectrum().primitive(0.7) == 0.7

    def test_linear_primitive(self):
        assert linear_spectrum(2.0).primitive(0.5) == 0.75

    def test_exponential_primitive_endpoints(self):
        phi = exponential_spectrum(5.0)
        assert phi.primitive(0.0) == 0.0
        assert abs(phi.primitive(1.0) - 1.0) < 1e-15

    @pytest.mark.parametrize("k", [1e-12, 0.5, 1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("n", [3, 250])
    def test_exponential_weights_match_mpmath(self, k, n):
        # 1 - exp(-x) cancels for small x: at k = 1e-12 it kept a few
        # digits, and the weights were off by 1e-4 and not monotone
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        grid = np.arange(n + 1, dtype=np.float64) / n
        norm = -mp.expm1(-mp.mpf(k))
        primitive = [-mp.expm1(-mp.mpf(k) * mp.mpf(t)) / norm
                     for t in grid.tolist()]
        exact = np.array([float(b - a) for a, b in
                          zip(primitive, primitive[1:])])
        got = canonical_weights(exponential_spectrum(k), n).weights
        assert np.max(np.abs(got - exact)) <= 4 * np.finfo(float).eps

    def test_primitive_domain(self):
        with pytest.raises(DomainError):
            uniform_spectrum().primitive(1.2)


class TestCanonicalWeights:
    def test_es_half_n4(self):
        w = canonical_weights(expected_shortfall_spectrum(0.5), 4)
        assert np.allclose(w.weights, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        assert w.monotone

    def test_uniform_any_n(self):
        w = canonical_weights(uniform_spectrum(), 7)
        assert np.allclose(w.weights, np.full(7, 1 / 7), atol=1e-15)

    def test_linear_n2(self):
        w = canonical_weights(linear_spectrum(2.0), 2)
        assert np.allclose(w.weights, [0.75, 0.25], atol=1e-15)

    def test_es_at_grid_level_equals_discrete_es_weights(self):
        # alpha = k/n makes the plug-in exactly the discrete ES estimator
        for n, k in [(4, 2), (10, 3), (25, 25), (8, 1)]:
            w = canonical_weights(expected_shortfall_spectrum(k / n), n)
            expect = np.zeros(n)
            expect[:k] = 1.0 / k
            assert np.max(np.abs(w.weights - expect)) < 1e-14

    def test_bad_n(self):
        with pytest.raises(DomainError):
            canonical_weights(uniform_spectrum(), 0)


def reference_step(levels):
    """The density and primitive of the step function n * a_i on
    ((i-1)/n, i/n], written out on their own, with their own domain
    checks and scalar returns: the reference for step_spectrum."""
    n = levels.size
    cum = np.concatenate([[0.0], np.cumsum(levels)]) / n

    def density(u):
        arr = np.asarray(u, dtype=np.float64)
        if np.any(arr <= 0.0) or np.any(arr > 1.0):
            raise DomainError(f"step spectrum evaluated outside (0, 1]: {u}")
        out = levels[np.clip(ceil_level(n, arr) - 1, 0, n - 1)]
        return float(out) if np.isscalar(u) or arr.ndim == 0 else out

    def primitive(t):
        arr = np.asarray(t, dtype=np.float64)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise DomainError(f"step primitive evaluated outside [0, 1]: {t}")
        j = ceil_level(n, arr)
        k = np.clip(np.where(j / n <= arr, j, j - 1), 0, n - 1)
        out = cum[k] + (arr - k / n) * levels[k]
        out = np.where(arr >= 1.0, cum[-1], out)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    return density, primitive


class TestStepSpectrum:
    def test_from_linear_weights(self):
        a = canonical_weights(linear_spectrum(2.0), 2)
        assert step_spectrum(a).params["levels"] == [1.5, 0.5]

    def test_uniform_levels(self):
        step = step_spectrum(WeightVector([1 / 3] * 3, monotone=True))
        assert np.allclose(step.params["levels"], [1, 1, 1], atol=1e-15)

    def test_es_levels(self):
        a = canonical_weights(expected_shortfall_spectrum(0.5), 4)
        assert np.allclose(step_spectrum(a).params["levels"], [2, 2, 0, 0],
                           atol=1e-14)

    def test_requires_certificate(self):
        with pytest.raises(NotMonotone):
            step_spectrum(WeightVector([0.5, 0.5]))

    def test_reconstruction_integrates_to_one(self):
        a = canonical_weights(exponential_spectrum(3.0), 11)
        step = step_spectrum(a)
        assert abs(step.primitive(1.0) - 1.0) <= 1e-12

    def test_levels_must_be_monotone(self):
        # a rise of 5e-16 between weights is inside the weight vector's
        # slack; times n = 10^4 it is a rise of 5e-12 between levels
        n = 10_000
        w = np.full(n, 1.0 / n)
        w[n // 2] += 5e-16
        a = WeightVector(w, monotone=True)
        with pytest.raises(NotMonotone):
            step_spectrum(a)

    def test_is_a_spectrum_without_a_lipschitz_constant(self):
        step = step_spectrum(canonical_weights(linear_spectrum(1.0), 4))
        assert isinstance(step, Spectrum)
        assert step.kind == "step" and step.lipschitz is None
        assert step.breakpoints == (0.25, 0.5, 0.75)
        assert step.bound == step.params["levels"][0]
        with pytest.raises(DomainError):
            step.density(0.0)
        with pytest.raises(DomainError):
            step.primitive(1.5)

    def test_drivers_refuse_it(self, std_normal):
        from riskcore import LipschitzClass, RngSpec, clt_check
        from riskcore.errors import NotLipschitz

        step = step_spectrum(canonical_weights(linear_spectrum(1.0), 4))
        with pytest.raises(NotLipschitz):
            clt_check(step, std_normal, 10, 5, RngSpec(1))
        with pytest.raises(NotLipschitz):
            LipschitzClass([step])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 11, 100, 257, 1000])
    def test_matches_the_reference_exactly(self, n):
        gen = np.random.default_rng(n)
        a = WeightVector(draw_monotone_simplex(gen, n), monotone=True)
        step = step_spectrum(a)
        density, primitive = reference_step(n * a.weights)
        levels = np.arange(n + 1) / n
        points = np.concatenate([levels, [1.0], gen.random(64)])
        inside = points[points > 0.0]
        assert np.array_equal(step.primitive(points), primitive(points))
        assert np.array_equal(step.density(inside), density(inside))
        for t in points.tolist():
            assert type(step.primitive(t)) is float
            assert step.primitive(t) == primitive(t)
            assert step.primitive(np.float64(t)) == primitive(np.float64(t))
        for u in inside.tolist():
            assert type(step.density(u)) is float
            assert step.density(u) == density(u)
        # primitive_gap, from the reference step of the canonical weights
        phi = exponential_spectrum(3.0)
        canonical = reference_step(n * canonical_weights(phi, n).weights)[1]
        grid = np.arange(65) / 64
        gap = np.max(np.abs(canonical(grid) - phi.primitive(grid)))
        assert primitive_gap(phi, n, 64) == float(gap)

    @given(rational_level())
    @example((100, 7))
    @settings(max_examples=300, deadline=None)
    def test_level_k_over_n_is_in_step_k(self, nk):
        n, k = nk
        a = WeightVector(2.0 * np.arange(n, 0, -1) / (n * (n + 1)),
                         monotone=True)
        levels = n * a.weights
        step = step_spectrum(a)
        assert step.density(k / n) == levels[k - 1]
        assert step.primitive(k / n) == (np.cumsum(levels) / n)[k - 1]

    def test_density_matches_levels(self):
        step = step_spectrum(WeightVector([0.75, 0.25], monotone=True))
        assert step.density(0.2) == 1.5
        assert step.density(0.5) == 1.5
        assert step.density(0.51) == 0.5


class TestPrimitiveGap:
    def test_uniform_gap_is_zero(self):
        for n in (1, 3, 10):
            assert primitive_gap(uniform_spectrum(), n, 16) == 0.0

    def test_linear_hand_value(self):
        assert primitive_gap(linear_spectrum(2.0), 2, 4) == pytest.approx(
            0.0625, abs=1e-15
        )

    def test_es_zero_on_aligned_grid(self):
        # grid points that are multiples of 1/n see matching primitives
        assert primitive_gap(expected_shortfall_spectrum(0.5), 4, 4) <= 1e-15
        assert primitive_gap(expected_shortfall_spectrum(0.5), 8, 8) <= 1e-15

    def test_gap_shrinks_with_n(self):
        for phi in (linear_spectrum(2.0), exponential_spectrum(5.0)):
            gaps = [primitive_gap(phi, n, 64) for n in (4, 16, 64, 256)]
            assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-2

    def test_grid_size_validated(self):
        with pytest.raises(DomainError):
            primitive_gap(uniform_spectrum(), 4, 1)


class TestLipschitzDiscretisation:
    @pytest.mark.parametrize(
        "phi",
        [
            uniform_spectrum(),
            linear_spectrum(2.0),
            exponential_spectrum(1.0),
            exponential_spectrum(5.0),
        ],
    )
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_sup_gap_below_l_over_n(self, phi, n):
        step = step_spectrum(canonical_weights(phi, n))
        grid = np.arange(1, 10_001) / 10_000
        gap = np.max(np.abs(step.density(grid) - phi.density(grid)))
        assert gap <= phi.lipschitz / n + 1e-12


class TestPiecewiseLinear:
    def test_matches_linear_spectrum(self):
        pw = piecewise_linear_spectrum([[0.0, 2.0], [1.0, 0.0]])
        lin = linear_spectrum(2.0)
        grid = np.linspace(0.01, 1.0, 57)
        assert np.allclose(pw.density(grid), lin.density(grid), atol=1e-14)
        assert np.allclose(pw.primitive(grid), lin.primitive(grid), atol=1e-14)
        assert pw.lipschitz == pytest.approx(2.0)

    def test_interior_knots(self):
        # integral = 0.25*(2+1.2)/2 + 0.75*(1.2+0.4)/2 = 0.4 + 0.6 = 1
        pw = piecewise_linear_spectrum([[0.0, 2.0], [0.25, 1.2], [1.0, 0.4]])
        assert abs(pw.primitive(1.0) - 1.0) <= 1e-12
        assert pw.bound == 2.0

    def test_rejects_increasing_values(self):
        with pytest.raises(NotMonotone):
            piecewise_linear_spectrum([[0.0, 0.5], [1.0, 1.5]])

    def test_rejects_bad_mass(self):
        with pytest.raises(NotNormalised):
            piecewise_linear_spectrum([[0.0, 1.0], [1.0, 0.5]])

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            piecewise_linear_spectrum([[0.1, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("knots", [
        [[0.0, float("nan")], [1.0, 1.0]],
        [[0.0, 1.0], [float("nan"), 1.0], [1.0, 1.0]],
        [[0.0, float("inf")], [1.0, 1.0]],
    ])
    def test_rejects_non_finite_knots(self, knots):
        # NaN passes every order and mass comparison, so it must be refused
        # before them
        with pytest.raises(DomainError, match="knots must be finite"):
            piecewise_linear_spectrum(knots)

    @pytest.mark.parametrize("knots", [
        [[0, "2"], [1, "0"]],
        [[False, True], [True, True]],
        [[0, True], [1, True]],
        [[0.0, 1.0], [1.0, None]],
        [[0.0, 1.0], [1.0]],
    ])
    def test_rejects_knots_that_are_not_numbers(self, knots):
        with pytest.raises(DomainError, match="knots must be numbers$"):
            piecewise_linear_spectrum(knots)


class TestQuadratureFallback:
    def _custom_linear(self):
        # same density as linear_spectrum(2) but with no exact primitive
        return Spectrum(
            kind="piecewise_linear",
            params={},
            bound=2.0,
            lipschitz=2.0,
            density=lambda u: 2.0 * (1.0 - u),
            primitive=None,
        )

    def test_primitive_matches_exact(self):
        phi = self._custom_linear()
        exact = linear_spectrum(2.0)
        for t in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert phi.primitive(t) == pytest.approx(exact.primitive(t), abs=1e-9)

    def test_canonical_weights_match_exact(self):
        w = canonical_weights(self._custom_linear(), 4)
        exact = canonical_weights(linear_spectrum(2.0), 4)
        assert np.allclose(w.weights, exact.weights, atol=1e-9)

    def test_primitive_of_a_density_odd_about_one_half(self):
        # 1 + 0.9 tanh(c (1/2 - u)) is 1 plus an odd function about 1/2:
        # one G7K15 panel on [0, 1] integrates it exactly, so a partition
        # adapted to the whole integral alone would miss partial ones
        c = 20.0
        phi = Spectrum(
            kind="tanh", params={}, bound=1.9, lipschitz=0.9 * c,
            density=lambda u: 1.0 + 0.9 * np.tanh(c * (0.5 - u)),
        )
        t = np.linspace(0.0, 1.0, 21)
        exact = t + 0.9 / c * (
            np.log(np.cosh(0.5 * c)) - np.log(np.cosh(c * (0.5 - t)))
        )
        assert np.max(np.abs(phi.primitive(t) - exact)) <= 1e-12

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureFailure):
            adaptive_simpson(lambda u: np.sin(50 * u), 0.0, 1.0, tol=1e-14,
                             max_evals=9)


class TestValidation:
    def test_increasing_density_rejected(self):
        with pytest.raises(NotMonotone):
            Spectrum(
                kind="uniform", params={}, bound=2.0, lipschitz=2.0,
                density=lambda u: 2.0 * u,
                primitive=lambda t: np.square(t),
            )

    def test_wrong_mass_rejected(self):
        with pytest.raises(NotNormalised):
            Spectrum(
                kind="uniform", params={}, bound=2.0, lipschitz=0.0,
                density=lambda u: 2.0 * np.ones_like(u),
                primitive=lambda t: 2.0 * np.asarray(t),
            )

    def test_false_lipschitz_constant_rejected(self):
        # 2(1 - u) moves at rate 2: a smaller declared constant is refused
        # when the spectrum is built, before any class or driver sees it
        def build(lipschitz):
            return Spectrum(
                kind="custom", params={}, bound=2.0, lipschitz=lipschitz,
                density=lambda u: 2.0 * (1.0 - u),
                primitive=lambda t: t * (2.0 - t),
            )

        with pytest.raises(NotLipschitz, match="faster than its Lipschitz"):
            build(1.9)
        assert build(2.0).lipschitz == 2.0

    def test_es_alpha_validated(self):
        with pytest.raises(DomainError):
            expected_shortfall_spectrum(0.0)

    def test_exponential_k_validated(self):
        with pytest.raises(DomainError):
            exponential_spectrum(-1.0)
        # a subnormal k has too few digits to normalise with
        with pytest.raises(DomainError, match="too small to normalise"):
            exponential_spectrum(1e-320)
        assert exponential_spectrum(sys.float_info.min).primitive(1.0) == 1.0

    def test_linear_slope_validated(self):
        with pytest.raises(DomainError):
            linear_spectrum(2.5)


class TestJson:
    @pytest.mark.parametrize(
        "obj",
        [
            {"type": "es", "alpha": 0.05},
            {"type": "uniform"},
            {"type": "linear", "slope": 2.0},
            {"type": "exponential", "k": 5.0},
            {"type": "piecewise_linear", "knots": [[0.0, 2.0], [1.0, 0.0]]},
        ],
    )
    def test_round_trip(self, obj):
        phi = spectrum_from_json(obj)
        again = spectrum_from_json(spectrum_to_json(phi))
        grid = np.linspace(0.05, 1.0, 13)
        assert np.allclose(phi.density(grid), again.density(grid), atol=0)

    def test_unknown_type(self):
        with pytest.raises(DomainError):
            spectrum_from_json({"type": "cauchy"})

    def test_missing_field(self):
        with pytest.raises(DomainError):
            spectrum_from_json({"type": "es"})
