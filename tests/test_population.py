"""Reference distributions and population risk values."""

import numpy as np
import pytest

from riskcore import (
    ReferenceDistribution,
    distribution_from_json,
    expected_shortfall_spectrum,
    linear_spectrum,
    population_es,
    population_spectral_risk,
    uniform_spectrum,
)
from riskcore.errors import AlphaOutOfRange, DomainError
from riskcore.population import distribution_to_json
from riskcore.quadrature import adaptive_simpson

ALL_KINDS = ["uniform01", "std_normal", "exponential1"]


@pytest.fixture
def dists(uniform01, std_normal, exponential1):
    return {"uniform01": uniform01, "std_normal": std_normal,
            "exponential1": exponential1}


class TestAccessors:
    @pytest.mark.parametrize("name", ["std_normal", "exponential1"])
    def test_quantile_at_one_is_inf_without_a_warning(self, dists, name):
        # warnings are errors under pytest
        assert dists[name].quantile(1.0) == np.inf

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_quantile_inverts_cdf(self, dists, name):
        dist = dists[name]
        u = np.linspace(0.01, 0.99, 99)
        x = dist.quantile(u)
        assert np.max(np.abs(dist.quantile(dist.cdf(x)) - x)) < 1e-9

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_density_nonnegative_and_integrates_to_one(self, dists, name):
        dist = dists[name]
        x = dist.quantile(np.linspace(0.001, 0.999, 200))
        assert np.all(np.asarray(dist.density(x)) >= 0.0)
        lo, hi = float(dist.quantile(1e-12)), float(dist.quantile(1 - 1e-12))
        mass = adaptive_simpson(lambda t: float(dist.density(t)), lo, hi,
                                tol=1e-10)
        assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_quantile_derivative_finite_difference(self, dists, name):
        # |q'(u) - central difference| <= 1e-4 at 100 interior points
        dist = dists[name]
        h = 1e-5
        u = np.linspace(0.02, 0.98, 100)
        fd = (np.asarray(dist.quantile(u + h)) - np.asarray(dist.quantile(u - h))) / (2 * h)
        qd = np.asarray(dist.quantile_derivative(u))
        assert np.max(np.abs(qd - fd)) <= 1e-4

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_cdf_primitive_differentiates_to_cdf(self, dists, name):
        dist = dists[name]
        h = 1e-6
        x = np.asarray(dist.quantile(np.linspace(0.05, 0.95, 40)))
        fd = (np.asarray(dist.cdf_primitive(x + h))
              - np.asarray(dist.cdf_primitive(x - h))) / (2 * h)
        assert np.max(np.abs(fd - np.asarray(dist.cdf(x)))) < 1e-6

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_survival_primitive_differentiates_to_survival(self, dists, name):
        dist = dists[name]
        h = 1e-6
        x = np.asarray(dist.quantile(np.linspace(0.05, 0.95, 40)))
        fd = (np.asarray(dist.survival_primitive(x + h))
              - np.asarray(dist.survival_primitive(x - h))) / (2 * h)
        assert np.max(np.abs(fd + (1.0 - np.asarray(dist.cdf(x))))) < 1e-6

    def test_point_mass_density_is_error(self, point_mass3):
        with pytest.raises(DomainError):
            point_mass3.density(0.0)
        with pytest.raises(DomainError):
            point_mass3.quantile_derivative(0.5)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            ReferenceDistribution("uniform", a=1.0, b=1.0)
        with pytest.raises(DomainError):
            ReferenceDistribution("normal", mean=0.0, sd=0.0)
        with pytest.raises(DomainError):
            ReferenceDistribution("exponential", rate=-2.0)


class TestPopulationEs:
    def test_uniform_half(self, uniform01):
        assert population_es(uniform01, 0.5) == pytest.approx(-0.25, abs=1e-15)

    def test_point_mass_any_alpha(self, point_mass3):
        for alpha in (0.01, 0.5, 1.0):
            assert population_es(point_mass3, alpha) == -3.0

    def test_normal_tail_against_quadrature(self, std_normal):
        # independent oracle: adaptive quadrature of the quantile on (0, a]
        oracle = -adaptive_simpson(
            lambda u: float(std_normal.quantile(u)), 1e-12, 0.05, tol=1e-11
        ) / 0.05
        assert population_es(std_normal, 0.05) == pytest.approx(oracle, abs=1e-4)
        assert population_es(std_normal, 0.05) == pytest.approx(2.0627, abs=1e-3)

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_full_tail_is_negated_mean(self, dists, name):
        dist = dists[name]
        assert population_es(dist, 1.0) == pytest.approx(-dist.mean, abs=1e-9)

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_nonincreasing_in_alpha(self, dists, name):
        dist = dists[name]
        grid = np.linspace(0.01, 1.0, 100)
        vals = [population_es(dist, a) for a in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_alpha_validated(self, uniform01):
        with pytest.raises(AlphaOutOfRange):
            population_es(uniform01, 0.0)


class TestPopulationSpectralRisk:
    def test_uniform_spectrum_is_negated_mean(self, uniform01, std_normal,
                                              exponential1):
        assert population_spectral_risk(uniform01, uniform_spectrum()) == \
            pytest.approx(-0.5, abs=1e-9)
        assert population_spectral_risk(std_normal, uniform_spectrum()) == \
            pytest.approx(0.0, abs=1e-9)
        assert population_spectral_risk(exponential1, uniform_spectrum()) == \
            pytest.approx(-1.0, abs=1e-9)

    def test_shifted_normal(self):
        dist = ReferenceDistribution("normal", mean=1.75, sd=2.0)
        assert population_spectral_risk(dist, uniform_spectrum()) == \
            pytest.approx(-1.75, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_es_spectrum_agrees_with_population_es(self, dists, name, alpha):
        dist = dists[name]
        via_spectrum = population_spectral_risk(
            dist, expected_shortfall_spectrum(alpha)
        )
        assert via_spectrum == pytest.approx(population_es(dist, alpha),
                                             abs=1e-8)

    def test_linear_spectrum_uniform_hand_value(self, uniform01):
        # -integral of u * 2(1-u) over (0,1) = -1/3
        value = population_spectral_risk(uniform01, linear_spectrum(2.0))
        assert value == pytest.approx(-1 / 3, abs=1e-9)

    def test_point_mass(self, point_mass3):
        assert population_spectral_risk(point_mass3, uniform_spectrum()) == -3.0
        assert population_spectral_risk(
            point_mass3, expected_shortfall_spectrum(0.1)
        ) == -3.0


class TestJson:
    @pytest.mark.parametrize(
        "obj",
        [
            {"type": "uniform", "a": 0.0, "b": 1.0},
            {"type": "normal", "mean": 0.0, "sd": 1.0},
            {"type": "exponential", "rate": 1.0},
            {"type": "point_mass", "c": 0.0},
        ],
    )
    def test_round_trip(self, obj):
        dist = distribution_from_json(obj)
        assert distribution_to_json(dist) == obj

    def test_unknown_type(self):
        with pytest.raises(DomainError):
            distribution_from_json({"type": "lognormal"})

    def test_missing_field(self):
        with pytest.raises(DomainError):
            distribution_from_json({"type": "normal", "mean": 0.0})
