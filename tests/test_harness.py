"""Experiment drivers: axiom suite, sweeps, CLT/bootstrap checks, and the
Kusuoka plug-in surrogate bounds."""

import inspect
import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from riskcore import (
    LipschitzClass,
    Mixture,
    ReferenceDistribution,
    RepresentingSet,
    RngSpec,
    Sample,
    bootstrap_check,
    bundled_lipschitz_class,
    canonical_weights,
    check_axioms,
    clt_check,
    consistency_sweep,
    expected_shortfall_spectrum,
    exponential_spectrum,
    kolmogorov_distance,
    l_estimator_oracle,
    linear_spectrum,
    population_spectral_risk,
    rate_experiment,
    uniform_spectrum,
    wasserstein1,
)
from riskcore.errors import (
    DegenerateFit,
    DegenerateVariance,
    DomainError,
    NotLipschitz,
    OracleFailure,
)
from riskcore import harness
from riskcore.estimators import robust_sup
from riskcore.population import RISK_TOL
from riskcore.harness import (
    AXIOM_BLOCK,
    comonotonic_pair,
    kusuoka_grid_gap,
    kusuoka_tightness_gap,
    sample_from,
)
from conftest import draw_monotone_simplex, draw_simplex, rational_level


class TestLipschitzClass:
    def test_bundled_constants(self):
        cls = bundled_lipschitz_class()
        assert len(cls.members) == 5
        norm5 = 1.0 - np.exp(-5.0)
        assert cls.class_C == pytest.approx(5.0 / norm5)
        assert cls.class_L == pytest.approx(25.0 / norm5)

    def test_es_member_rejected(self):
        with pytest.raises(NotLipschitz):
            LipschitzClass([expected_shortfall_spectrum(0.1)])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            LipschitzClass([])


class TestExperimentFields:
    @pytest.mark.parametrize("experiment", list(harness.EXPERIMENT_FIELDS))
    def test_defaults_are_the_drivers_keyword_defaults(self, experiment):
        # the table lists the driver's parameters in order, its RngSpec
        # left out after the fourth; a required field has no default
        driver, fields = harness.EXPERIMENT_FIELDS[experiment]
        params = list(
            inspect.signature(getattr(harness, driver)).parameters.values())
        assert params.pop(4).name == "rng"
        assert len(params) == len(fields)
        for param, (key, _, *default) in zip(params, fields):
            expected = default[0] if default else inspect.Parameter.empty
            assert param.default == expected, key


class TestComonotonicPairs:
    def test_defining_inequality(self):
        gen = RngSpec(9).generator()
        for _ in range(300):
            x, y = comonotonic_pair(gen, 7)
            outer = np.subtract.outer(x, x) * np.subtract.outer(y, y)
            assert np.all(outer >= -1e-12)


class TestCheckAxioms:
    def test_discrete_es_passes_everything(self):
        a = canonical_weights(expected_shortfall_spectrum(2 / 3), 3)
        report = check_axioms(l_estimator_oracle(a), 3, 1000, RngSpec(5))
        assert report.passed
        assert all(report.axioms.values())

    def test_spectral_estimators_pass(self):
        for phi in (uniform_spectrum(), linear_spectrum(2.0),
                    exponential_spectrum(5.0)):
            a = canonical_weights(phi, 8)
            report = check_axioms(l_estimator_oracle(a), 8, 400, RngSpec(2))
            assert report.passed, report.counterexample

    def test_robust_sup_passes_core_axioms(self):
        gen = np.random.default_rng(6)
        vertices = [draw_monotone_simplex(gen, 6) for _ in range(3)]
        M = RepresentingSet(vertices)

        def oracle(values):
            return robust_sup(M, Sample(values))[0]

        report = check_axioms(oracle, 6, 300, RngSpec(3), comonotonic=False)
        assert report.passed, report.counterexample

    def test_std_foil_fails_cash_additivity(self):
        foil = lambda v: float(np.std(v, ddof=1))
        report = check_axioms(foil, 5, 200, RngSpec(5))
        assert not report.passed
        ce = report.counterexamples["cash_additivity"]
        x = np.asarray(ce["x"])
        # std is translation invariant, so lhs = std(x) while the axiom
        # demands std(x) - m
        assert ce["lhs"] == pytest.approx(float(np.std(x + ce["m"], ddof=1)))
        assert abs(ce["lhs"] - ce["rhs"]) == pytest.approx(abs(ce["m"]), rel=1e-9)

    def test_zero_scaling_pinned_first(self):
        # rho(0) != 0 must surface as a homogeneity counterexample at trial 0
        shifted = lambda v: -float(np.mean(v)) + 1.0
        report = check_axioms(shifted, 4, 50, RngSpec(8))
        ce = report.counterexamples["positive_homogeneity"]
        assert ce["trial"] == 0 and ce["lambda"] == 0.0

    def test_non_finite_oracle(self):
        with pytest.raises(OracleFailure):
            check_axioms(lambda v: float("nan"), 3, 5, RngSpec(0))

    def test_deterministic(self):
        foil = lambda v: float(np.std(v, ddof=1))
        a = check_axioms(foil, 5, 100, RngSpec(5))
        b = check_axioms(foil, 5, 100, RngSpec(5))
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


#: oracle evaluations per trial of each axiom, in check_axioms order
ROWS_PER_TRIAL = {
    "monotonicity": 2,
    "cash_additivity": 2,
    "positive_homogeneity": 2,
    "subadditivity": 3,
    "law_invariance": 2,
    "comonotonic_additivity": 3,
}


def counting(oracle):
    calls = []

    def counted(values):
        calls.append(len(values))
        return oracle(values)

    return counted, calls


class TestAxiomBlocks:
    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 150])
    def test_coherent_estimator_gets_fourteen_calls_per_trial(self, trials):
        a = canonical_weights(linear_spectrum(2.0), 7)
        oracle, calls = counting(l_estimator_oracle(a))
        report = check_axioms(oracle, 7, trials, RngSpec(4))
        assert report.passed
        assert len(calls) == sum(ROWS_PER_TRIAL.values()) * trials == 14 * trials

    @pytest.mark.parametrize("foil, n", [
        (lambda v: float(np.std(v, ddof=1)), 5),          # fails at trial 0
        (lambda v: -float(np.mean(v)) + 1.0, 4),          # rho(0) != 0
        # value at risk at level 3/30: subadditivity fails at trial 98
        (lambda v: -float(np.sort(v)[2]), 30),
    ])
    def test_failing_axiom_overruns_by_less_than_a_block(self, foil, n):
        trials = 200
        oracle, calls = counting(foil)
        report = check_axioms(oracle, n, trials, RngSpec(1))
        assert not report.passed
        stepwise = blocked = 0
        for axiom, rows in ROWS_PER_TRIAL.items():
            if axiom in report.counterexamples:
                t = report.counterexamples[axiom]["trial"]
                stepwise += rows * (t + 1)
                blocked += rows * min(trials, (t // AXIOM_BLOCK + 1) * AXIOM_BLOCK)
            else:
                stepwise += rows * trials
                blocked += rows * trials
        assert len(calls) == blocked
        failing_rows = sum(ROWS_PER_TRIAL[a] for a in report.counterexamples)
        assert 0 <= len(calls) - stepwise <= (AXIOM_BLOCK - 1) * failing_rows


#: the laws of the per-replicate W1 certificate tests
W1_LAWS = pytest.mark.parametrize("law", [
    ("normal", {"mean": 0.0, "sd": 1.0}),
    ("exponential", {"rate": 1.0}),
    ("uniform", {"a": -1.0, "b": 2.0}),
], ids=["normal", "exponential", "uniform"])


class TestConsistencySweep:
    def test_small_run_is_accurate(self, uniform01):
        cls = LipschitzClass([uniform_spectrum()])
        report = consistency_sweep(cls, uniform01, [20_000], 3, RngSpec(1),
                                   threshold=0.02)
        assert report.passed
        assert report.results["per_n"][0]["max_error"] < 0.02

    def test_errors_shrink_with_n(self, uniform01):
        cls = LipschitzClass([linear_spectrum(2.0)])
        report = consistency_sweep(cls, uniform01, [100, 10_000], 9, RngSpec(4))
        rows = report.results["per_n"]
        assert rows[1]["median_error"] < rows[0]["median_error"]

    def test_byte_identical_reruns(self, std_normal):
        cls = bundled_lipschitz_class()
        kwargs = dict(n_grid=[50, 200], reps=6, threshold=0.5)
        a = consistency_sweep(cls, std_normal, rng=RngSpec(11), **kwargs)
        b = consistency_sweep(cls, std_normal, rng=RngSpec(11), **kwargs)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("experiment", [consistency_sweep, rate_experiment])
    def test_no_reps_rejected(self, uniform01, experiment):
        cls = LipschitzClass([uniform_spectrum()])
        with pytest.raises(DomainError):
            experiment(cls, uniform01, [100, 200], 0, RngSpec(0))

    def test_grid_validated(self, uniform01):
        cls = LipschitzClass([uniform_spectrum()])
        with pytest.raises(DomainError):
            consistency_sweep(cls, uniform01, [100, 50], 2, RngSpec(0))

    def test_replicate_draws_from_stream_of_its_grid_index_and_rep(
            self, std_normal):
        cls = LipschitzClass([uniform_spectrum(), linear_spectrum(2.0)])
        grid, reps = [20, 50], 6
        report = consistency_sweep(cls, std_normal, grid, reps, RngSpec(9))
        targets = np.array(
            [population_spectral_risk(std_normal, phi) for phi in cls.members])
        for i_n, (n, row) in enumerate(zip(grid, report.results["per_n"])):
            w = np.vstack([canonical_weights(phi, n).weights
                           for phi in cls.members])
            for rep in range(reps):
                gen = RngSpec(9, ((i_n + 1) << 32) | rep).generator()
                est = w @ -np.sort(sample_from(std_normal, gen, n))
                assert row["errors"][rep] == np.max(np.abs(est - targets))

    @W1_LAWS
    def test_every_replicate_meets_the_w1_certificate(self, law):
        # the canonical plug-in is -integral of q_n phi, so every sample has
        # |rho_hat - rho| <= sup phi * W1(F_n, F) (Pichler 2013); the slack
        # is the tolerance of the population value
        dist = ReferenceDistribution(law[0], **law[1])
        cls = bundled_lipschitz_class()
        grid, reps = [1, 5, 50, 1000, 10_000], 5
        report = consistency_sweep(cls, dist, grid, reps, RngSpec(4))
        targets = np.array(
            [population_spectral_risk(dist, phi) for phi in cls.members])
        bounds = np.array([phi.bound for phi in cls.members])
        for i_n, (n, row) in enumerate(zip(grid, report.results["per_n"])):
            w = np.vstack([canonical_weights(phi, n).weights
                           for phi in cls.members])
            for rep in range(reps):
                gen = RngSpec(4, ((i_n + 1) << 32) | rep).generator()
                x = sample_from(dist, gen, n)
                errors = np.abs(w @ -np.sort(x) - targets)
                assert row["errors"][rep] == errors.max()
                w1 = wasserstein1(Sample(x), dist)
                assert np.all(errors <= bounds * w1 + RISK_TOL)


class TestRateExperiment:
    def test_point_mass_degenerates(self, point_mass3):
        cls = LipschitzClass([uniform_spectrum()])
        with pytest.raises(DegenerateFit):
            rate_experiment(cls, point_mass3, [10, 100], 5, RngSpec(1))

    def test_root_n_slope(self, std_normal):
        cls = LipschitzClass([uniform_spectrum()])
        report = rate_experiment(
            cls, std_normal, [100, 1000, 10_000], 40, RngSpec(1),
            slope_band=(-0.65, -0.35),
        )
        assert report.passed
        assert -0.65 <= report.results["slope"] <= -0.35

    @pytest.mark.parametrize("n_grid", [[100], [100, 100], [7, 7, 7.0]])
    def test_one_distinct_size_rejected(self, std_normal, n_grid):
        # a line through one sample size is undetermined
        cls = LipschitzClass([uniform_spectrum()])
        with pytest.raises(DomainError, match="two distinct sample sizes"):
            rate_experiment(cls, std_normal, n_grid, 5, RngSpec(1))

    def test_unsorted_grid_runs(self, std_normal):
        cls = LipschitzClass([uniform_spectrum()])
        report = rate_experiment(cls, std_normal, [1000, 100], 5, RngSpec(1))
        assert [row["n"] for row in report.results["per_n"]] == [1000, 100]

    @W1_LAWS
    def test_every_replicate_meets_the_w1_certificate(self, law):
        # replicate rep at grid index i_n draws from stream
        # ((i_n + 1) << 32) | rep; each member's error is within
        # sup phi * W1(F_n, F) of zero (Pichler 2013)
        dist = ReferenceDistribution(law[0], **law[1])
        cls = bundled_lipschitz_class()
        grid, reps = [5, 50, 1000], 5
        report = rate_experiment(cls, dist, grid, reps, RngSpec(4))
        targets = np.array(
            [population_spectral_risk(dist, phi) for phi in cls.members])
        bounds = np.array([phi.bound for phi in cls.members])
        for i_n, (n, row) in enumerate(zip(grid, report.results["per_n"])):
            w = np.vstack([canonical_weights(phi, n).weights
                           for phi in cls.members])
            worst = []
            for rep in range(reps):
                gen = RngSpec(4, ((i_n + 1) << 32) | rep).generator()
                x = sample_from(dist, gen, n)
                errors = np.abs(w @ -np.sort(x) - targets)
                worst.append(errors.max())
                w1 = wasserstein1(Sample(x), dist)
                assert np.all(errors <= bounds * w1 + RISK_TOL)
            assert row["median_error"] == float(np.median(worst))
            assert row["max_error"] == float(np.max(worst))

    def test_deterministic(self, std_normal):
        cls = LipschitzClass([uniform_spectrum()])
        a = rate_experiment(cls, std_normal, [100, 1000], 10, RngSpec(2))
        b = rate_experiment(cls, std_normal, [100, 1000], 10, RngSpec(2))
        assert a.to_json() == b.to_json()


class TestCltCheck:
    def test_es_spectrum_rejected(self, std_normal):
        with pytest.raises(NotLipschitz):
            clt_check(expected_shortfall_spectrum(0.1), std_normal, 100, 100,
                      RngSpec(1))

    def test_degenerate_variance_rejected(self):
        narrow = ReferenceDistribution("uniform", a=0.0, b=1e-7)
        with pytest.raises(DegenerateVariance):
            clt_check(uniform_spectrum(), narrow, 100, 100, RngSpec(1))

    def test_small_run_passes_loose_threshold(self, uniform01):
        report = clt_check(uniform_spectrum(), uniform01, 400, 400, RngSpec(1),
                           threshold=0.12)
        assert report.passed
        assert report.results["sigma2"] == pytest.approx(1 / 12, abs=1e-6)

    def test_byte_identical_reruns(self, uniform01):
        a = clt_check(uniform_spectrum(), uniform01, 200, 100, RngSpec(3))
        b = clt_check(uniform_spectrum(), uniform01, 200, 100, RngSpec(3))
        assert a.to_json() == b.to_json()

    def test_replicate_rep_draws_from_stream_rep_plus_one(self, uniform01):
        phi, n, reps = linear_spectrum(2.0), 30, 40
        report = clt_check(phi, uniform01, n, reps, RngSpec(9))
        w = canonical_weights(phi, n).weights
        target = report.results["population_risk"]
        draws = [
            np.sqrt(n) * (w @ -np.sort(sample_from(
                uniform01, RngSpec(9, rep + 1).generator(), n)) - target)
            for rep in range(reps)
        ]
        limit = ReferenceDistribution(
            "normal", mean=0.0, sd=float(np.sqrt(report.results["sigma2"])))
        assert report.results["d_K"] == kolmogorov_distance(Sample(draws),
                                                            limit)


    @W1_LAWS
    def test_every_replicate_meets_the_w1_certificate(self, law):
        # replicate rep draws from stream rep + 1, and its error is within
        # sup phi * W1(F_n, F) of zero (Pichler 2013)
        dist = ReferenceDistribution(law[0], **law[1])
        reps = 5
        for phi in bundled_lipschitz_class().members:
            for n in (1, 5, 50, 1000):
                report = clt_check(phi, dist, n, reps, RngSpec(4))
                target = report.results["population_risk"]
                w = canonical_weights(phi, n).weights
                estimates = []
                for rep in range(reps):
                    x = sample_from(dist, RngSpec(4, rep + 1).generator(), n)
                    estimates.append(w @ -np.sort(x))
                    w1 = wasserstein1(Sample(x), dist)
                    assert abs(estimates[-1] - target) <= (
                        phi.bound * w1 + RISK_TOL)
                limit = ReferenceDistribution(
                    "normal", mean=0.0,
                    sd=float(np.sqrt(report.results["sigma2"])))
                draws = np.sqrt(n) * (np.array(estimates) - target)
                assert report.results["d_K"] == kolmogorov_distance(
                    Sample(draws), limit)


class TestBootstrapCheck:
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_data_rejected(self, uniform01, n):
        # a negative size reached numpy's draw, which raised a ValueError
        with pytest.raises(DomainError, match=f"n must be >= 1, got {n}"):
            bootstrap_check(uniform_spectrum(), uniform01, n, 16, RngSpec(1))

    def test_degenerate_single_point(self, uniform01):
        report = bootstrap_check(uniform_spectrum(), uniform01, 1, 16,
                                 RngSpec(1))
        assert report.results["degenerate"]
        assert report.passed is None

    def test_small_run(self, std_normal):
        report = bootstrap_check(linear_spectrum(2.0), std_normal, 400, 400,
                                 RngSpec(1), threshold=0.15)
        res = report.results
        assert res["d_K_m"] <= res["d_K"] + 1e-15
        assert report.passed

    def test_deterministic(self, std_normal):
        a = bootstrap_check(uniform_spectrum(), std_normal, 100, 50, RngSpec(2))
        b = bootstrap_check(uniform_spectrum(), std_normal, 100, 50, RngSpec(2))
        assert a.to_json() == b.to_json()


class TestReportSerialisation:
    def test_floats_round_trip(self, uniform01):
        report = clt_check(uniform_spectrum(), uniform01, 64, 50, RngSpec(9))
        parsed = json.loads(report.to_json())
        assert parsed["results"]["d_K"] == report.results["d_K"]
        assert parsed["results"]["sigma2"] == report.results["sigma2"]
        assert parsed["schema"] == "riskcore/1"

    def test_wall_time_excluded_by_default(self, uniform01):
        report = clt_check(uniform_spectrum(), uniform01, 64, 50, RngSpec(9))
        assert "wall_time_s" not in json.loads(report.to_json())
        assert report.wall_time_s > 0.0


class TestKusuokaSurrogates:
    def test_tightness_bound_holds(self):
        gen = np.random.default_rng(15)
        n = 40
        for _ in range(25):
            # vertices with little mass on the lowest tenth of the levels
            vertices = []
            for _ in range(4):
                v = draw_simplex(gen, n)
                v[: n // 10] *= 0.02
                vertices.append(v / v.sum())
            M = RepresentingSet(vertices, sorted_domain=False)
            x = Sample(gen.standard_normal(n) * 3.0)
            gap, bound = kusuoka_tightness_gap(M, x, delta=0.1)
            assert gap <= bound + 1e-12

    def test_tightness_rejects_total_censoring(self):
        M = RepresentingSet([Mixture([1.0, 0.0, 0.0])], sorted_domain=False)
        x = Sample([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            kusuoka_tightness_gap(M, x, delta=0.99)

    def test_grid_refinement_bound(self):
        gen = np.random.default_rng(16)
        x = Sample(gen.standard_normal(500))
        for _ in range(20):
            k = int(gen.integers(1, 6))
            levels = gen.random(k) * 0.9 + 0.1
            masses = draw_simplex(gen, k)
            for m in (16, 64):
                gap, bound = kusuoka_grid_gap(x, levels, masses, m)
                assert gap <= bound + 1e-15
            # at fine enough grids both assignments coincide and the
            # value stabilises
            gap_fine, bound_fine = kusuoka_grid_gap(x, levels, masses, 4 * 500)
            assert bound_fine == 0.0 and gap_fine == 0.0

    @given(rational_level(200))
    @example((100, 7))
    @settings(max_examples=200, deadline=None)
    def test_grid_levels_stay_on_their_grid(self, mk):
        # an atom at k/m sits on both the 1/m and the 1/(2m) grid, so
        # refining the grid cannot move it
        m, k = mk
        x = Sample(np.arange(500.0))
        gap, bound = kusuoka_grid_gap(x, [k / m], [1.0], m)
        assert gap == 0.0 and bound == 0.0

    def test_grid_gap_validates_levels(self):
        x = Sample([1.0, 2.0])
        with pytest.raises(DomainError):
            kusuoka_grid_gap(x, [0.0], [1.0], 4)


class TestSampleFrom:
    def test_matches_quantile_transform(self, std_normal):
        gen1 = RngSpec(5).generator()
        gen2 = RngSpec(5).generator()
        xs = sample_from(std_normal, gen1, 100)
        us = 1.0 - gen2.random(100)
        assert np.array_equal(xs, np.asarray(std_normal.quantile(us)))

    @pytest.mark.parametrize("law", ["std_normal", "exponential1"])
    def test_a_zero_uniform_draw_is_finite(self, request, law):
        # random() returns 0.0 with probability 2^-53; 1 - U would then
        # ask for the quantile at 1, which is +inf on an unbounded law
        class Zeros:
            def random(self, n):
                return np.zeros(n)

        dist = request.getfixturevalue(law)
        xs = sample_from(dist, Zeros(), 3)
        top = dist.quantile(np.nextafter(1.0, 0.0))
        assert np.isfinite(xs).all() and (xs == top).all()
