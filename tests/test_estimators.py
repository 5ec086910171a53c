"""Risk functionals: discrete ES, L-estimators, mixtures, suprema,
and black-box weight recovery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcore import (
    Mixture,
    RepresentingSet,
    Sample,
    WeightVector,
    canonical_weights,
    discrete_es,
    discrete_es_profile,
    empirical_quantile,
    expected_shortfall_spectrum,
    kusuoka_plugin,
    l_estimate,
    l_estimator_oracle,
    mixture_estimate,
    recover_comonotonic_weights,
    robust_sup,
    sort_sample,
    step_spectrum,
    t_map,
)
from riskcore.errors import (
    KOutOfRange,
    LengthMismatch,
    NotMonotoneRecovered,
    NotNormalised,
    OracleFailure,
)
from riskcore.estimators import oracle_values
from conftest import draw_monotone_simplex, draw_simplex

X3 = Sample([3.0, -1.0, 2.0])


class TestDiscreteEs:
    def test_worked_examples(self):
        assert discrete_es(X3, 1) == 1.0
        assert discrete_es(X3, 2) == -0.5
        assert discrete_es(X3, 3) == pytest.approx(-4 / 3, abs=1e-15)

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(KOutOfRange):
            discrete_es(X3, k)

    def test_profile_matches_pointwise(self):
        gen = np.random.default_rng(3)
        x = Sample(gen.standard_normal(23))
        profile = discrete_es_profile(x)
        for k in range(1, 24):
            assert profile[k - 1] == pytest.approx(discrete_es(x, k), abs=1e-13)


class TestLEstimate:
    def test_min_weight(self):
        assert l_estimate(WeightVector([1, 0, 0], monotone=True), X3) == 1.0

    def test_worked_example(self):
        a = WeightVector([1 / 2, 1 / 3, 1 / 6], monotone=True)
        assert l_estimate(a, X3) == pytest.approx(-2 / 3, abs=1e-15)

    def test_unsorted_domain(self):
        a = WeightVector([0.5, 0.5])
        assert l_estimate(a, Sample([1.0, -2.0]), sorted_domain=False) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            l_estimate(WeightVector([1.0]), X3)


class TestMixtureEstimate:
    def test_worked_example(self):
        mu = Mixture([1 / 6, 1 / 3, 1 / 2])
        assert mixture_estimate(mu, X3) == pytest.approx(-2 / 3, abs=1e-15)

    def test_mean_mixture(self):
        mu = Mixture([0, 0, 0, 1])
        x = Sample([4.0, 0.0, 2.0, -2.0])
        assert mixture_estimate(mu, x) == pytest.approx(-1.0, abs=1e-15)

    def test_min_mixture(self):
        mu = Mixture([1, 0, 0])
        assert mixture_estimate(mu, X3) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mixture_estimate(Mixture([1.0]), X3)


@st.composite
def weights_and_sample(draw):
    n = draw(st.integers(1, 25))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    a = np.sort(np.asarray(raw))[::-1]
    a = a / a.sum()
    x = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    return a, np.asarray(x)


class TestEsDecomposition:
    @given(weights_and_sample())
    @settings(max_examples=200, deadline=None)
    def test_identity(self, pair):
        a, x = pair
        w = WeightVector(a, monotone=True)
        sample = Sample(x)
        lhs = l_estimate(w, sample)
        rhs = mixture_estimate(t_map(w), sample)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(x).max())

    def test_bulk_random(self):
        gen = np.random.default_rng(11)
        for _ in range(300):
            n = int(gen.integers(1, 300))
            w = WeightVector(draw_monotone_simplex(gen, n), monotone=True)
            x = Sample(gen.standard_normal(n) * 10.0)
            lhs = l_estimate(w, x)
            rhs = mixture_estimate(t_map(w), x)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(x.values).max())


class TestRearrangement:
    def test_sorted_evaluation_is_the_maximum(self):
        # brute-force oracle over every permutation, n <= 5
        gen = np.random.default_rng(23)
        for _ in range(100):
            n = int(gen.integers(1, 6))
            a = WeightVector(draw_monotone_simplex(gen, n), monotone=True)
            x = gen.standard_normal(n)
            best = max(
                float(np.dot(a.weights, -x[list(p)]))
                for p in itertools.permutations(range(n))
            )
            assert best == l_estimate(a, Sample(x))


class TestIntegralCorrespondence:
    def test_weighted_sum_equals_step_integral(self):
        # evaluate the step density and empirical quantile at cell
        # midpoints; cells have width 1/n and both functions are constant
        # on them, so the Riemann sum is the exact integral
        gen = np.random.default_rng(5)
        for _ in range(50):
            n = int(gen.integers(1, 60))
            a = WeightVector(draw_monotone_simplex(gen, n), monotone=True)
            x = Sample(gen.standard_normal(n) * 5.0)
            s = sort_sample(x)
            step = step_spectrum(a)
            mids = (np.arange(n) + 0.5) / n
            integral = sum(
                float(step.density(m)) * empirical_quantile(s, m) for m in mids
            ) / n
            direct = float(np.dot(a.weights, s.values))
            assert abs(integral - direct) <= 1e-12 * (1 + np.abs(x.values).max())


class TestRobustSup:
    def test_two_vertices_unsorted(self):
        M = RepresentingSet([[1, 0], [0, 1]], sorted_domain=False)
        value, idx = robust_sup(M, Sample([1.0, -2.0]))
        assert value == 2.0 and idx == 1

    def test_singleton_equals_l_estimate(self):
        a = WeightVector([0.7, 0.3], monotone=True)
        M = RepresentingSet([a])
        value, idx = robust_sup(M, Sample([2.0, -1.0]))
        assert value == pytest.approx(0.1, abs=1e-15)
        assert idx == 0
        assert value == l_estimate(a, Sample([2.0, -1.0]))

    def test_convex_combination_never_changes_value(self):
        gen = np.random.default_rng(9)
        for _ in range(50):
            n = int(gen.integers(1, 10))
            v1 = draw_monotone_simplex(gen, n)
            v2 = draw_monotone_simplex(gen, n)
            lam = float(gen.random())
            mid = lam * v1 + (1 - lam) * v2
            x = Sample(gen.standard_normal(n))
            base = robust_sup(RepresentingSet([v1, v2]), x)
            widened = robust_sup(RepresentingSet([v1, v2, mid]), x)
            assert widened[0] == pytest.approx(base[0], abs=1e-12)
            assert widened[1] == base[1]

    def test_ties_resolve_to_first_vertex(self):
        M = RepresentingSet([[0.5, 0.5], [0.5, 0.5]], sorted_domain=False)
        _, idx = robust_sup(M, Sample([1.0, 3.0]))
        assert idx == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            robust_sup(RepresentingSet([[1.0]]), Sample([1.0, 2.0]))


class TestKusuokaPlugin:
    def test_unit_vertices(self):
        M = RepresentingSet(np.eye(3), sorted_domain=False)
        value, idx = kusuoka_plugin(M, discrete_es_profile(X3))
        assert value == 1.0 and idx == 0

    def test_sample_argument_uses_default_estimator(self):
        M = RepresentingSet(np.eye(3), sorted_domain=False)
        assert kusuoka_plugin(M, X3) == kusuoka_plugin(
            M, discrete_es_profile(X3)
        )

    def test_singleton_matches_mixture_estimate(self):
        mu = Mixture([0.2, 0.3, 0.5])
        M = RepresentingSet([mu], sorted_domain=False)
        value, _ = kusuoka_plugin(M, discrete_es_profile(X3))
        assert value == pytest.approx(mixture_estimate(mu, X3), abs=1e-15)

    def test_last_unit_vertex_is_negated_mean(self):
        M = RepresentingSet([[0.0, 0.0, 1.0]], sorted_domain=False)
        value, _ = kusuoka_plugin(M, discrete_es_profile(X3))
        assert value == pytest.approx(-4 / 3, abs=1e-15)

    def test_length_mismatch(self):
        M = RepresentingSet([[0.5, 0.5]], sorted_domain=False)
        with pytest.raises(LengthMismatch):
            kusuoka_plugin(M, [1.0, 2.0, 3.0])


class TestRecovery:
    def test_discrete_es_oracle(self):
        a = canonical_weights(expected_shortfall_spectrum(2 / 3), 3)
        rec = recover_comonotonic_weights(l_estimator_oracle(a), 3)
        assert np.allclose(rec.weights, [0.5, 0.5, 0.0], atol=1e-15)

    def test_negated_mean(self):
        rec = recover_comonotonic_weights(lambda v: -float(np.mean(v)), 4)
        assert np.allclose(rec.weights, [0.25] * 4, atol=1e-15)

    def test_negated_min(self):
        rec = recover_comonotonic_weights(lambda v: -float(np.min(v)), 3)
        assert np.allclose(rec.weights, [1, 0, 0], atol=0)

    def test_round_trip_identity(self):
        gen = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            n = int(gen.integers(1, 120))
            a = WeightVector(draw_monotone_simplex(gen, n), monotone=True)
            rec = recover_comonotonic_weights(l_estimator_oracle(a), n)
            worst = max(worst, float(np.max(np.abs(rec.weights - a.weights))))
        assert worst <= 1e-12

    def test_round_trip_identity_n_1000(self):
        gen = np.random.default_rng(18)
        a = WeightVector(draw_monotone_simplex(gen, 1000), monotone=True)
        rec = recover_comonotonic_weights(l_estimator_oracle(a), 1000)
        assert float(np.max(np.abs(rec.weights - a.weights))) <= 1e-12

    def test_non_monotone_oracle_rejected(self):
        # -max is coherent-looking but not subadditive; its probe curve
        # yields increasing weights
        with pytest.raises(NotMonotoneRecovered):
            recover_comonotonic_weights(lambda v: -float(np.max(v)), 3)

    def test_unnormalised_oracle_rejected(self):
        with pytest.raises(NotNormalised):
            recover_comonotonic_weights(lambda v: -2.0 * float(np.mean(v)), 3)

    def test_non_finite_oracle(self):
        with pytest.raises(OracleFailure):
            recover_comonotonic_weights(lambda v: float("nan"), 2)

    def test_non_finite_diagnostic_leaves_the_probe_out(self):
        with pytest.raises(OracleFailure) as info:
            recover_comonotonic_weights(lambda v: float("inf"), 2000)
        message = str(info.value)
        assert "2000 values" in message and len(message) < 100

    def test_nonzero_origin_degrades_gracefully(self):
        # rho(0) != 0 is subtracted out by the probe differences
        rec = recover_comonotonic_weights(
            lambda v: -float(np.mean(v)) + 0.125, 4
        )
        assert np.allclose(rec.weights, [0.25] * 4, atol=1e-12)


class BatchOracle:
    """An oracle with a batch method, as SubprocessOracle has: -min(x)."""

    def __init__(self, replies=None):
        self.batches = []
        self.replies = replies

    def __call__(self, values):
        raise AssertionError("a batch oracle must not be called row by row")

    def batch(self, rows):
        rows = list(rows)
        self.batches.append(len(rows))
        if self.replies is not None:
            return self.replies
        return [-float(np.min(r)) for r in rows]


class TestOracleValues:
    def test_plain_callable_is_called_row_by_row(self):
        seen = []

        def oracle(values):
            seen.append(values)
            return float(len(seen))

        rows = [np.zeros(3), np.ones(3)]
        values = oracle_values(oracle, rows)
        assert values.dtype == np.float64 and values.tolist() == [1.0, 2.0]
        assert seen[0] is rows[0] and seen[1] is rows[1]

    def test_batch_method_gets_every_row_in_one_call(self):
        oracle = BatchOracle()
        rows = (np.full(4, -float(i)) for i in range(5))
        assert oracle_values(oracle, rows).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert oracle.batches == [5]

    def test_batch_non_finite_names_the_sample_size(self):
        oracle = BatchOracle(replies=[0.0, float("inf")])
        with pytest.raises(OracleFailure) as info:
            oracle_values(oracle, [np.zeros(2), np.zeros(2000)])
        assert str(info.value) == "oracle returned inf on a sample of 2000 values"

    def test_plain_non_finite_is_checked_after_every_row(self):
        replies = iter([0.0, float("nan"), 1.0])
        sizes = []

        def oracle(values):
            sizes.append(values.size)
            return next(replies)

        with pytest.raises(OracleFailure) as info:
            oracle_values(oracle, [np.zeros(2), np.zeros(2000), np.zeros(3)])
        assert str(info.value) == "oracle returned nan on a sample of 2000 values"
        assert sizes == [2, 2000, 3]

    def test_recovery_sends_its_probes_in_one_batch(self):
        oracle = BatchOracle()
        rec = recover_comonotonic_weights(oracle, 6)
        assert oracle.batches == [7]
        assert rec.weights.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
