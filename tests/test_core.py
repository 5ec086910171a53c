"""Core types, sorting, quantiles, and the weight/mixture bijection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskcore import (
    Mixture,
    Sample,
    WeightVector,
    t_inverse,
    t_map,
)
from riskcore.core import MAX_SIZE, RepresentingSet, json_field, simplex_array
from riskcore.errors import RiskError
from conftest import draw_monotone_simplex, draw_simplex, rational_level
from helpers import empirical_quantile, sort_sample


class TestSample:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(RiskError, match=r"^sample contains NaN or "
                           r"infinite entries$"):
            Sample([1.0, float("nan")])
        with pytest.raises(RiskError, match=r"^sample contains NaN or "
                           r"infinite entries$"):
            Sample([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(RiskError, match=r"^sample must contain at least "
                           r"one entry$"):
            Sample([])

    def test_values_are_immutable(self):
        x = Sample([1.0, 2.0])
        with pytest.raises(ValueError):
            x.values[0] = 7.0


class TestSortSample:
    def test_basic(self):
        assert sort_sample(Sample([3, -1, 2])).values.tolist() == [-1, 2, 3]

    def test_singleton(self):
        assert sort_sample(Sample([5])).values.tolist() == [5]

    def test_tie(self):
        assert sort_sample(Sample([2, 2, 1])).values.tolist() == [1, 2, 2]

    def test_stable_provenance_on_ties(self):
        s = sort_sample(Sample([2, 2, 1]))
        assert s.order.tolist() == [2, 0, 1]

    def test_multiset_preserved_and_idempotent(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            vals = gen.standard_normal(gen.integers(1, 40))
            s = sort_sample(Sample(vals))
            assert sorted(vals.tolist()) == s.values.tolist()
            again = sort_sample(Sample(s.values))
            assert again.values.tolist() == s.values.tolist()


class TestEmpiricalQuantile:
    def test_ceil_rule(self):
        s = sort_sample(Sample([3, -1, 2]))
        assert empirical_quantile(s, 0.5) == 2.0
        assert empirical_quantile(s, 1.0) == 3.0
        assert empirical_quantile(s, 1 / 3) == -1.0

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0000001, 2.0])
    def test_alpha_out_of_range(self, alpha):
        s = sort_sample(Sample([1.0, 2.0]))
        with pytest.raises(RiskError, match=r"^alpha must lie in \(0, 1\], "
                           r"got "):
            empirical_quantile(s, alpha)

    @given(rational_level())
    @example((100, 7))
    @settings(max_examples=300, deadline=None)
    def test_level_k_over_n_selects_kth(self, nk):
        # n * (k/n) can round an ulp above k; the k-th statistic is still meant
        n, k = nk
        s = sort_sample(Sample(np.arange(1.0, n + 1.0)))
        assert empirical_quantile(s, k / n) == float(k)

    def test_nondecreasing_in_alpha(self):
        gen = np.random.default_rng(1)
        s = sort_sample(Sample(gen.standard_normal(17)))
        grid = np.linspace(0.01, 1.0, 200)
        vals = [empirical_quantile(s, a) for a in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestWeightVector:
    def test_renormalises_exactly(self):
        w = WeightVector([0.5 + 2e-13, 0.5])
        assert w.weights.sum() == 1.0

    def test_rejects_bad_sum(self):
        with pytest.raises(RiskError, match=r"^weights sums to 1.1, not 1$"):
            WeightVector([0.5, 0.6])

    def test_rejects_negative_entry(self):
        with pytest.raises(RiskError, match=r"^weights has negative entry "
                           r"-0.1$"):
            WeightVector([1.1, -0.1])

    def test_clips_negative_dust(self):
        w = WeightVector([1.0, -1e-16])
        assert w.weights[1] == 0.0

    def test_monotone_certificate_enforced(self):
        with pytest.raises(RiskError, match=r"^weights increase at index 0: "
                           r"0.4 < 0.6$"):
            WeightVector([0.4, 0.6], monotone=True)
        WeightVector([0.6, 0.4], monotone=True)

    def test_simplex_array_rejects_nan(self):
        with pytest.raises(RiskError, match=r"^weights contains NaN or "
                           r"infinite entries$"):
            simplex_array([float("nan"), 1.0])

    @pytest.mark.parametrize("build", [WeightVector, Mixture, Sample])
    @pytest.mark.parametrize("values", [
        ["0.5", "0.5"], [True], [True, False], np.array([1, 0], dtype=bool),
        [0.5, "0.5"], [1.0, None], [1 + 0j], [[0.5], [0.2, 0.3]],
        [True, 0.0], [True, 0.5], [0.5, np.bool_(True)],
    ])
    def test_non_numbers_are_refused(self, build, values):
        # none is a list of numbers, though numpy converts several to floats
        with pytest.raises(RiskError, match="must be an array of numbers$"):
            build(values)

    @pytest.mark.parametrize("values", [
        [1, 0], np.array([0.25, 0.75], dtype=np.float32),
        np.array([1, 0], dtype=np.uint8), (0.5, 0.5),
    ])
    def test_integer_and_float_dtypes_are_read(self, values):
        w = WeightVector(values)
        assert w.weights.dtype == np.float64
        assert w.weights.tolist() == np.asarray(values, dtype=float).tolist()


class TestJsonSizes:
    def test_sizes_up_to_the_ceiling_are_read(self):
        assert json_field({"n": MAX_SIZE}, "n", int) == MAX_SIZE
        assert json_field({"n": float(2**31 - 2**7)}, "n", int) == 2**31 - 2**7
        assert json_field({"n": [1, MAX_SIZE]}, "n", [int]) == [1, MAX_SIZE]

    @pytest.mark.parametrize("value", [MAX_SIZE + 1, 2.0**31, 1e308, [5, 2**64]])
    def test_sizes_above_the_ceiling_are_refused(self, value):
        with pytest.raises(RiskError, match="exceeds the size ceiling"):
            json_field({"n": value}, "n", [int] if isinstance(value, list) else int)


class TestRepresentingSet:
    def test_empty_rejected(self):
        with pytest.raises(RiskError, match=r"^representing set has no "
                           r"vertices$"):
            RepresentingSet([])

    def test_sorted_domain_requires_monotone(self):
        with pytest.raises(RiskError, match=r"^sorted-domain vertex is not "
                           r"non-increasing$"):
            RepresentingSet([[0.4, 0.6]], sorted_domain=True)
        RepresentingSet([[0.4, 0.6]], sorted_domain=False)

    def test_sorted_domain_checks_a_mixture_vertex_as_a_list(self):
        # masses used as weights on the sorted sample must not increase
        with pytest.raises(RiskError, match=r"^sorted-domain vertex is not "
                           r"non-increasing$"):
            RepresentingSet([Mixture([0.0, 1.0])], sorted_domain=True)
        RepresentingSet([Mixture([0.0, 1.0])], sorted_domain=False)
        M = RepresentingSet([Mixture([0.75, 0.25])], sorted_domain=True)
        assert M.vertices.tolist() == [[0.75, 0.25]]

    def test_uncertified_weightvector_rejected_on_sorted_domain(self):
        w = WeightVector([0.6, 0.4])  # numerically monotone, no certificate
        with pytest.raises(RiskError, match=r"^sorted-domain representing "
                           r"set requires certified non-increasing "
                           r"vertices$"):
            RepresentingSet([w], sorted_domain=True)


class TestTMap:
    def test_worked_example(self):
        mu = t_map(WeightVector([1 / 2, 1 / 3, 1 / 6], monotone=True))
        assert np.allclose(mu.masses, [1 / 6, 1 / 3, 1 / 2], atol=1e-15)

    def test_uniform_weights_give_mean_mixture(self):
        mu = t_map(WeightVector([1 / 3] * 3, monotone=True))
        assert np.allclose(mu.masses, [0, 0, 1], atol=1e-15)

    def test_worst_case_weights(self):
        mu = t_map(WeightVector([1.0, 0.0, 0.0], monotone=True))
        assert np.allclose(mu.masses, [1, 0, 0], atol=0)

    def test_requires_certificate(self):
        with pytest.raises(RiskError, match=r"^t_map requires a certified "
                           r"non-increasing vector$"):
            t_map(WeightVector([0.6, 0.4]))


class TestTInverse:
    def test_worked_example(self):
        a = t_inverse(Mixture([1 / 6, 1 / 3, 1 / 2]))
        assert np.allclose(a.weights, [1 / 2, 1 / 3, 1 / 6], atol=1e-15)
        assert a.monotone

    def test_mean_mixture(self):
        a = t_inverse(Mixture([0, 0, 1]))
        assert np.allclose(a.weights, [1 / 3] * 3, atol=1e-15)

    def test_point_mixture(self):
        a = t_inverse(Mixture([1, 0, 0]))
        assert np.allclose(a.weights, [1, 0, 0], atol=0)


@st.composite
def monotone_simplex(draw):
    raw = draw(
        st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=60)
    )
    arr = np.sort(np.asarray(raw))[::-1]
    return arr / arr.sum()


class TestRoundTrip:
    @given(monotone_simplex())
    @settings(max_examples=200, deadline=None)
    def test_t_inverse_of_t_map_is_identity(self, a):
        w = WeightVector(a, monotone=True)
        back = t_inverse(t_map(w))
        assert np.max(np.abs(back.weights - w.weights)) <= 1e-12

    @given(monotone_simplex())
    @settings(max_examples=200, deadline=None)
    def test_t_map_lands_on_simplex(self, a):
        mu = t_map(WeightVector(a, monotone=True))
        assert abs(mu.masses.sum() - 1.0) <= 1e-12
        assert np.all(mu.masses >= 0.0)

    def test_bulk_random_round_trip(self):
        gen = np.random.default_rng(42)
        worst = 0.0
        for _ in range(500):
            n = int(gen.integers(1, 400))
            a = draw_monotone_simplex(gen, n)
            w = WeightVector(a, monotone=True)
            back = t_inverse(t_map(w))
            worst = max(worst, float(np.max(np.abs(back.weights - w.weights))))
        assert worst <= 1e-12

    def test_t_map_of_t_inverse_is_identity(self):
        gen = np.random.default_rng(7)
        for _ in range(200):
            n = int(gen.integers(1, 200))
            mu = Mixture(draw_simplex(gen, n))
            back = t_map(t_inverse(mu))
            assert np.max(np.abs(back.masses - mu.masses)) <= 1e-12
