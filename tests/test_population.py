"""Reference distributions and population risk values."""

import json
import math
import warnings

import numpy as np
import pytest

from riskcore import (
    ReferenceDistribution,
    canonical_weights,
    distribution_from_json,
    expected_shortfall_spectrum,
    exponential_spectrum,
    linear_spectrum,
    piecewise_linear_spectrum,
    population_es,
    population_spectral_risk,
    uniform_spectrum,
)
from riskcore.cli import main
from riskcore.errors import RiskError
from riskcore.population import LAW_PARAMS, distribution_to_json
from riskcore.quadrature import adaptive_simpson
from helpers import step_spectrum

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
    def test_quantile_primitive_differentiates_to_quantile(self, dists, name):
        dist = dists[name]
        h = 1e-6
        u = np.linspace(0.05, 0.95, 40)
        fd = (np.asarray(dist.quantile_primitive(u + h))
              - np.asarray(dist.quantile_primitive(u - h))) / (2 * h)
        assert np.max(np.abs(fd - np.asarray(dist.quantile(u)))) < 1e-8

    def test_exponential_quantile_primitive_keeps_its_digits(self):
        # t + (1 - t) log(1 - t) cancels to t^2 / 2 at small t, where the
        # steep spectra weigh it; the reference holds 700 digits
        mp = pytest.importorskip("mpmath")
        t = np.concatenate([np.logspace(-150, -1, 40), np.linspace(0.1, 0.2, 11),
                            [0.5, 0.9, 1.0 - 1e-9]])
        with mp.workdps(700):
            ref = np.array([float(x + (1 - x) * mp.log1p(-x))
                            for x in map(mp.mpf, t)])
        rate = ReferenceDistribution("exponential", rate=4.0)
        assert rate.quantile_primitive(t) == pytest.approx(ref / 4.0, rel=5e-15, abs=0)

    @pytest.mark.parametrize("name", ALL_KINDS + ["point_mass3"])
    @pytest.mark.parametrize("nan", [np.nan, np.array([0.5, np.nan])],
                             ids=["scalar", "array"])
    def test_nan_is_out_of_range(self, request, name, nan):
        # NaN fails every comparison, so it passed both range checks: the
        # quantile was NaN (c on a point mass at c), and so was the primitive
        dist = request.getfixturevalue(name)
        with pytest.raises(RiskError, match=r"^quantile argument must lie in "
                           r"\(0, 1\]$"):
            dist.quantile(nan)
        with pytest.raises(RiskError, match=r"^quantile primitive needs t in "
                           r"\[0, 1\]$"):
            dist.quantile_primitive(nan)

    def test_parameter_validation(self):
        with pytest.raises(RiskError, match=r"^uniform needs a < b, got "
                           r"a=1.0, b=1.0$"):
            ReferenceDistribution("uniform", a=1.0, b=1.0)
        with pytest.raises(RiskError, match=r"^normal needs sd > 0, got 0.0$"):
            ReferenceDistribution("normal", mean=0.0, sd=0.0)
        with pytest.raises(RiskError, match=r"^exponential needs rate > 0, "
                           r"got -2.0$"):
            ReferenceDistribution("exponential", rate=-2.0)

    @pytest.mark.parametrize("kind,params", [
        ("normal", {"mean": "0", "sd": True}),
        ("normal", {"mean": 0.0, "sd": True}),
        ("uniform", {"a": False, "b": 1.0}),
        ("exponential", {"rate": "2"}),
        ("exponential", {"rate": np.bool_(True)}),
        ("point_mass", {"c": None}),
        ("point_mass", {"c": [3.0]}),
    ])
    def test_parameters_that_are_not_numbers_are_refused(self, kind, params):
        # numeric strings and booleans converted to floats before
        with pytest.raises(RiskError, match="parameters must be numbers"):
            ReferenceDistribution(kind, **params)

    @pytest.mark.parametrize("kind,params,got", [
        ("normal", {"mean": 0.0}, "mean"),
        ("normal", {"mean": 0.0, "sd": 1.0, "rate": 3.0}, "mean, sd, rate"),
        ("uniform", {"a": 0.0, "c": 1.0}, "a, c"),
        ("exponential", {}, "none"),
        ("point_mass", {"c": "x", "a": 1.0}, "c, a"),
    ])
    def test_wrong_parameter_names_are_refused(self, kind, params, got):
        # a missing name raised KeyError, and an extra one was dropped
        names = ", ".join(LAW_PARAMS[kind])
        with pytest.raises(RiskError, match=rf"^{kind} takes the parameters "
                           rf"{names}, got {got}$"):
            ReferenceDistribution(kind, **params)

    def test_unknown_kind_is_refused_before_its_parameters(self):
        with pytest.raises(RiskError, match=r"^unknown distribution kind "
                           r"'gamma'$"):
            ReferenceDistribution("gamma", shape="x")

    def test_numpy_scalar_parameters_are_read(self):
        law = ReferenceDistribution("normal", mean=np.int32(1),
                                    sd=np.float32(0.5))
        assert law.params == {"mean": 1.0, "sd": 0.5}
        assert all(type(v) is float for v in law.params.values())


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
        mean = {"uniform01": 0.5, "std_normal": 0.0, "exponential1": 1.0}[name]
        assert population_es(dists[name], 1.0) == pytest.approx(-mean, abs=1e-9)

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_nonincreasing_in_alpha(self, dists, name):
        dist = dists[name]
        grid = np.linspace(0.01, 1.0, 100)
        vals = [population_es(dist, a) for a in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_alpha_validated(self, uniform01):
        with pytest.raises(RiskError, match=r"^alpha must lie in \(0, 1\], "
                           r"got 0.0$"):
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

    @pytest.mark.parametrize("alpha", [1e-9, 0.01, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_es_spectrum_is_population_es_exactly(self, dists, name, alpha):
        # the exact primitive takes precedence over quadrature at every level
        dist = dists[name]
        assert population_spectral_risk(
            dist, expected_shortfall_spectrum(alpha)
        ) == population_es(dist, alpha)

    def test_linear_spectrum_uniform_hand_value(self, uniform01):
        # -integral of u * 2(1-u) over (0,1) = -1/3
        value = population_spectral_risk(uniform01, linear_spectrum(2.0))
        assert value == pytest.approx(-1 / 3, abs=1e-9)

    @pytest.mark.parametrize("law, mean", [
        ({"type": "uniform", "a": 0.0, "b": 1.0}, 0.5),
        ({"type": "uniform", "a": -1.0, "b": 3.0}, 1.0),
        ({"type": "normal", "mean": 0.0, "sd": 1.0}, 0.0),
        ({"type": "normal", "mean": 1.75, "sd": 2.0}, 1.75),
        ({"type": "exponential", "rate": 1.0}, 1.0),
        ({"type": "exponential", "rate": 4.0}, 0.25),
    ])
    def test_uniform_spectrum_is_negated_mean_exactly(self, law, mean):
        dist = distribution_from_json(law)
        assert population_spectral_risk(dist, uniform_spectrum()) == -mean

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_step_spectrum_is_its_es_mixture(self, dists, name, n):
        # the value n a_i on ((i-1)/n, i/n] weighs the quantile's mean there
        dist, a = dists[name], canonical_weights(linear_spectrum(2.0), n)
        Q = dist.quantile_primitive(np.arange(n + 1) / n)
        expected = -float(np.sum(a.weights * n * np.diff(Q)))
        assert population_spectral_risk(dist, step_spectrum(a)) == \
            pytest.approx(expected, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", [1.0, 5.0, 700.0, 7000.0, 1e5, 1e6])
    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_exponential_spectrum(self, dists, name, k):
        # at large k the mass lies within a few 1/k of 0, where quadrature
        # that does not know the scale misses it
        value = population_spectral_risk(dists[name], exponential_spectrum(k))
        assert value == pytest.approx(exponential_reference(name, k), rel=1e-13, abs=0)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_linear_spectrum_closed_forms(self, dists, s):
        # -mean - s * integral of q (1/2 - u), and E[X F(X)] in closed form
        expected = {"uniform01": -0.5 + s / 12.0,
                    "std_normal": s / (2.0 * math.sqrt(math.pi)),
                    "exponential1": -1.0 + s / 4.0}
        for name, value in expected.items():
            assert population_spectral_risk(dists[name], linear_spectrum(s)) \
                == pytest.approx(value, rel=1e-13, abs=0)

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_piecewise_linear_spectrum(self, dists, name):
        knots = np.array([[0.0, 1.4], [0.25, 1.1], [0.5, 1.0], [1.0, 0.7]])
        t, v = knots.T
        v = v / np.trapezoid(v, t)
        expected = quad_risk(name, lambda u: np.interp(u, t, v), t)
        assert population_spectral_risk(
            dists[name], piecewise_linear_spectrum(knots.tolist())
        ) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_overflowing_exponential_spectrum_is_refused(self, dists, name):
        # phi' = -k phi overflows: an error, never a number
        with pytest.raises(RiskError):
            population_spectral_risk(dists[name], exponential_spectrum(1e200))

    def test_clt_reports_the_steep_population_risk(self, capsys):
        config = {"spectrum": {"type": "exponential", "k": 7000},
                  "dist": {"type": "normal", "mean": 0, "sd": 1},
                  "n": 200, "reps": 20}
        main(["clt", "--config", json.dumps(config), "--seed", "3"])
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["population_risk"] == pytest.approx(
            exponential_reference("std_normal", 7000.0), rel=1e-13, abs=0)

    def test_point_mass(self, point_mass3):
        assert population_spectral_risk(point_mass3, uniform_spectrum()) == -3.0
        assert population_spectral_risk(
            point_mass3, expected_shortfall_spectrum(0.1)
        ) == -3.0


def quad_risk(name, density, edges):
    """-integral of q * phi by QUADPACK, piece by piece between edges."""
    from scipy.integrate import quad
    from scipy.special import ndtri

    q = {"uniform01": lambda u: u, "std_normal": ndtri,
         "exponential1": lambda u: -math.log1p(-u)}[name]
    with warnings.catch_warnings():
        # QUADPACK warns when rounding stops it short of 2e-14 relative
        warnings.simplefilter("ignore")
        return -sum(
            quad(lambda u: q(u) * density(u), lo, hi, epsabs=0.0,
                 epsrel=2e-14, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:]))


def exponential_reference(name, k):
    """-integral of q * phi for phi(u) = k exp(-k u) / (1 - exp(-k)), from
    outside riskcore: a closed form on U(0, 1), the exponential integral
    Ei on Exp(1) (with mpmath), and QUADPACK cut at c/k on N(0, 1)."""
    norm = -math.expm1(-k)
    if name == "uniform01":
        return -(1.0 - (1.0 + k) * math.exp(-k)) / (k * norm)
    if name == "exponential1":
        # integral of -log(1 - u) e^(-k u) = e^(-k) (Ei(k) - gamma - ln k) / k
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            kk = mp.mpf(k)
            ein = mp.ei(kk) - mp.euler - mp.log(kk)
            return float(-mp.exp(-kk) * ein / -mp.expm1(-kk))
    edges = [0.0, *(c / k for c in (1, 4, 16, 64, 256) if c < k), 1.0]
    return quad_risk(name, lambda u: k * math.exp(-k * u) / norm, edges)


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
        with pytest.raises(RiskError, match=r"^unknown distribution type "
                           r"'lognormal'$"):
            distribution_from_json({"type": "lognormal"})

    def test_missing_field(self):
        with pytest.raises(RiskError, match=r"^distribution JSON is missing "
                           r"required field 'sd'$"):
            distribution_from_json({"type": "normal", "mean": 0.0})
