"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Exact algebraic identities run at full scale; Monte Carlo checks
run at their calibrated sizes with pinned seeds."""

import itertools
import time

import numpy as np
import pytest

from riskcore import (
    LipschitzClass,
    Mixture,
    ReferenceDistribution,
    RepresentingSet,
    RngSpec,
    Sample,
    WeightVector,
    bootstrap_check,
    bundled_lipschitz_class,
    canonical_weights,
    check_axioms,
    clt_check,
    consistency_sweep,
    expected_shortfall_spectrum,
    exponential_spectrum,
    l_estimate,
    l_estimator_oracle,
    linear_spectrum,
    mixture_estimate,
    population_es,
    population_spectral_risk,
    rate_experiment,
    recover_comonotonic_weights,
    robust_sup,
    t_inverse,
    t_map,
    uniform_spectrum,
)
from riskcore.asymptotics import asymptotic_variance
from riskcore.harness import sample_from
from riskcore.quadrature import adaptive_simpson, integrate_piecewise
from conftest import draw_monotone_simplex, draw_simplex
from helpers import influence_table, keyed_philox, step_spectrum

UNIFORM01 = ReferenceDistribution("uniform", a=0.0, b=1.0)
NORMAL01 = ReferenceDistribution("normal", mean=0.0, sd=1.0)
EXPONENTIAL1 = ReferenceDistribution("exponential", rate=1.0)

RATE_GRID = [100, 316, 1000, 3162, 10000, 31623, 100000]


def report(num: int, ok: bool, detail: str, elapsed: float, limit: float):
    line = (
        f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail} "
        f"[{elapsed:.1f}s / limit {limit:.0f}s]"
    )
    print(line)
    assert ok, line
    assert elapsed < limit, line


# -- experiment fixtures shared with the determinism criterion --------------
# each is (report, seconds the driver call took)

def timed(run):
    started = time.perf_counter()
    return run(), time.perf_counter() - started


@pytest.fixture(scope="module")
def consistency_report():
    return timed(lambda: consistency_sweep(
        bundled_lipschitz_class(), UNIFORM01, [100_000], 20, RngSpec(1),
        threshold=0.01, min_pass_fraction=0.95,
    ))


@pytest.fixture(scope="module")
def rate_report():
    return timed(lambda: rate_experiment(
        LipschitzClass([uniform_spectrum()]), NORMAL01, RATE_GRID, 50,
        RngSpec(1), slope_band=(-0.65, -0.35),
    ))


@pytest.fixture(scope="module")
def clt_reports():
    return timed(lambda: {
        "uniform": clt_check(uniform_spectrum(), UNIFORM01, 2000, 2000,
                             RngSpec(1), threshold=0.05),
        "normal": clt_check(uniform_spectrum(), NORMAL01, 2000, 2000,
                            RngSpec(1), threshold=0.05),
    })


@pytest.fixture(scope="module")
def bootstrap_report():
    return timed(lambda: bootstrap_check(
        linear_spectrum(2.0), NORMAL01, 2000, 2000, RngSpec(1),
        threshold=0.08, grid_m=100))


# -- criteria ----------------------------------------------------------------

def test_criterion_01_es_decomposition_identity():
    started = time.perf_counter()
    gen = np.random.default_rng(101)
    worst_ratio = 0.0
    for _ in range(10_000):
        n = int(gen.integers(1, 501))
        a = WeightVector(draw_monotone_simplex(gen, n), monotone=True)
        x = Sample(gen.standard_normal(n) * 10.0)
        lhs = l_estimate(a, x)
        rhs = mixture_estimate(t_map(a), x)
        tol = 1e-12 * (1.0 + float(np.abs(x.values).max()))
        worst_ratio = max(worst_ratio, abs(lhs - rhs) / tol)
    report(
        1, worst_ratio <= 1.0,
        f"ES-decomposition identity on 1e4 draws, worst error at "
        f"{worst_ratio:.3f} of tolerance",
        time.perf_counter() - started, 10.0,
    )


def test_criterion_02_t_map_bijection():
    started = time.perf_counter()
    gen = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        n = int(gen.integers(1, 1001))
        a = WeightVector(draw_monotone_simplex(gen, n), monotone=True)
        back = t_inverse(t_map(a))
        worst = max(worst, float(np.max(np.abs(back.weights - a.weights))))
    report(
        2, worst <= 1e-12,
        f"T-map round trip on 1e4 draws up to n=1000, max error {worst:.2e}",
        time.perf_counter() - started, 5.0,
    )


def test_criterion_03_rearrangement_brute_force():
    started = time.perf_counter()
    gen = np.random.default_rng(103)
    exact = True
    for _ in range(500):
        n = int(gen.integers(1, 7))
        a = WeightVector(draw_monotone_simplex(gen, n), monotone=True)
        x = gen.standard_normal(n)
        best = max(
            float(np.dot(a.weights, -x[list(p)]))
            for p in itertools.permutations(range(n))
        )
        exact = exact and (best == l_estimate(a, Sample(x)))
    report(
        3, exact,
        "sorted evaluation equals the max over all permutations exactly "
        "(500 draws, n <= 6)",
        time.perf_counter() - started, 30.0,
    )


def test_criterion_04_comonotonic_weight_recovery():
    started = time.perf_counter()
    gen = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(1, 201))
        a = WeightVector(draw_monotone_simplex(gen, n), monotone=True)
        rec = recover_comonotonic_weights(l_estimator_oracle(a), n)
        worst = max(worst, float(np.max(np.abs(rec.weights - a.weights))))
    report(
        4, worst <= 1e-12,
        f"probe recovery of 1e3 weight vectors up to n=200, max error "
        f"{worst:.2e}",
        time.perf_counter() - started, 10.0,
    )


def test_criterion_05_canonical_weight_discretisation():
    started = time.perf_counter()
    grid = np.arange(1, 10_001) / 10_000
    ok = True
    worst_rel = 0.0
    for phi in bundled_lipschitz_class().members:
        for n in (10, 100, 1000):
            step = step_spectrum(canonical_weights(phi, n))
            gap = float(np.max(np.abs(step.density(grid) - phi.density(grid))))
            bound = phi.lipschitz / n + 1e-12
            ok = ok and gap <= bound
            if bound > 0:
                worst_rel = max(worst_rel, gap / bound)
    report(
        5, ok,
        f"step-density gap within L/n for every bundled spectrum, worst at "
        f"{worst_rel:.3f} of bound",
        time.perf_counter() - started, 10.0,
    )


def test_criterion_06_population_es_values():
    started = time.perf_counter()
    uniform_ok = abs(population_es(UNIFORM01, 0.5) - (-0.25)) <= 1e-10
    # independent oracle: adaptive quadrature of the quantile on (0, 0.05]
    oracle = -adaptive_simpson(
        lambda u: float(NORMAL01.quantile(u)), 1e-12, 0.05, tol=1e-11
    ) / 0.05
    normal_value = population_es(NORMAL01, 0.05)
    normal_ok = (
        abs(normal_value - 2.0627) <= 1e-3 and abs(normal_value - oracle) <= 1e-6
    )
    report(
        6, uniform_ok and normal_ok,
        f"uniform ES(0.5) = -0.25 exactly; normal ES(0.05) = {normal_value:.5f} "
        "matches the quadrature oracle",
        time.perf_counter() - started, 1.0,
    )


def test_criterion_07_asymptotic_variance():
    started = time.perf_counter()
    v_uu = asymptotic_variance(uniform_spectrum(), UNIFORM01)
    v_un = asymptotic_variance(uniform_spectrum(), NORMAL01)
    pinned_ok = abs(v_uu - 1 / 12) <= 1e-6 and abs(v_un - 1.0) <= 1e-4

    pairs = [
        (uniform_spectrum(), UNIFORM01),
        (uniform_spectrum(), NORMAL01),
        (uniform_spectrum(), EXPONENTIAL1),
        (linear_spectrum(2.0), UNIFORM01),
        (exponential_spectrum(2.0), NORMAL01),
    ]
    mc_ok = True
    worst_se = 0.0
    for idx, (phi, dist) in enumerate(pairs):
        sigma2 = asymptotic_variance(phi, dist)
        grid, table = influence_table(phi, dist)
        draws = np.interp(keyed_philox(7, idx + 1).random(1_000_000),
                          grid, table)
        var = float(draws.var(ddof=1))
        centered = draws - draws.mean()
        se = float(np.sqrt((np.mean(centered**4) - var**2) / draws.size))
        deviation = abs(var - sigma2) / se
        worst_se = max(worst_se, deviation)
        mc_ok = mc_ok and deviation <= 4.0
        # the influence kernel is mean-zero
        se_mean = float(draws.std() / np.sqrt(draws.size))
        mc_ok = mc_ok and abs(float(draws.mean())) <= 4.0 * se_mean
    report(
        7, pinned_ok and mc_ok,
        f"variance integral: uniform/uniform {v_uu:.8f}, uniform/normal "
        f"{v_un:.6f}; Monte Carlo variance and mean-zero agreement on 5 "
        f"pairs, worst {worst_se:.2f} SE",
        time.perf_counter() - started, 120.0,
    )


def test_criterion_08_uniform_consistency(consistency_report):
    rep, elapsed = consistency_report
    errors = np.asarray(rep.results["per_n"][-1]["errors"])
    hits = int(np.sum(errors < 0.01))
    report(
        8, bool(rep.passed) and hits >= 19,
        f"bundled-class error < 0.01 in {hits}/20 reps at n=1e5 "
        f"(median {np.median(errors):.4f})",
        elapsed, 60.0,
    )


def test_criterion_09_rate(rate_report):
    rate, elapsed = rate_report
    slope = rate.results["slope"]
    report(
        9, bool(rate.passed) and -0.65 <= slope <= -0.35,
        f"log-log error slope {slope:.3f} within [-0.65, -0.35] over "
        "n = 1e2..1e5, 50 reps",
        elapsed, 180.0,
    )


#: J1's quadrature runs between the law's quantiles at J1_EPS and
#: 1 - J1_EPS; the tails left out are below 2 * sqrt(J1_EPS) on Exp(1)
J1_EPS = 1e-14


def j1(dist: ReferenceDistribution) -> float:
    """J1(F) = integral of sqrt(F (1 - F)) dx (Bobkov & Ledoux 2019, §3)."""
    def f(x):
        F = np.asarray(dist.cdf(x))
        return np.sqrt(F * (1.0 - F))

    lo, hi = dist.quantile(J1_EPS), dist.quantile(1.0 - J1_EPS)
    return integrate_piecewise(f, lo, hi, tol=1e-10)


@pytest.mark.parametrize("dist, closed", [
    (UNIFORM01, np.pi / 8), (EXPONENTIAL1, np.pi / 2),
], ids=["uniform", "exponential"])
def test_j1_closed_forms(dist, closed):
    assert j1(dist) == pytest.approx(closed, rel=1e-6)


def test_rate_report_meets_the_mean_error_envelope(rate_report):
    # |rho_hat - rho| <= sup phi * W1(F_n, F) (Pichler 2013), and Jensen on
    # the integral of |F_n - F| gives E W1 <= J1 / sqrt(n), so the mean error
    # over reps is at most C * J1 / sqrt(n) at every n; C = sup phi = 1 for
    # the uniform spectrum. Each replicate is rebuilt from its stream and
    # tied to the report through the per-n median and maximum.
    phi = uniform_spectrum()
    target = population_spectral_risk(NORMAL01, phi)
    envelope = phi.bound * j1(NORMAL01)
    rows = rate_report[0].results["per_n"]
    for i_n, (n, row) in enumerate(zip(RATE_GRID, rows)):
        w = np.vstack([canonical_weights(phi, n).weights])
        errors = []
        for rep in range(50):
            gen = keyed_philox(1, ((i_n + 1) << 32) | rep)
            x = sample_from(NORMAL01, gen, n)
            errors.append(np.abs(w @ -np.sort(x) - target).max())
        assert row["median_error"] == float(np.median(errors))
        assert row["max_error"] == float(np.max(errors))
        assert np.mean(errors) <= envelope / np.sqrt(n)


def test_criterion_10_clt(clt_reports):
    reports, elapsed = clt_reports
    d_u = reports["uniform"].results["d_K"]
    d_n = reports["normal"].results["d_K"]
    ok = (
        bool(reports["uniform"].passed)
        and bool(reports["normal"].passed)
        and d_u < 0.05 and d_n < 0.05
    )
    report(
        10, ok,
        f"CLT d_K to the normal limit: uniform {d_u:.4f}, normal {d_n:.4f} "
        "(n=2000, 2000 reps)",
        elapsed, 120.0,
    )


def test_criterion_11_bootstrap_validity(bootstrap_report):
    boot, elapsed = bootstrap_report
    res = boot.results
    ok = (
        bool(boot.passed)
        and res["d_K"] < 0.08
        and res["d_K_m"] <= res["d_K"]
    )
    report(
        11, ok,
        f"bootstrap d_K {res['d_K']:.4f} < 0.08 and truncated "
        f"d_K_100 {res['d_K_m']:.4f} <= d_K (n=2000, B=2000)",
        elapsed, 120.0,
    )


def test_criterion_12_axiom_suite():
    started = time.perf_counter()
    trials = 10_000
    n = 8
    gen = np.random.default_rng(112)

    estimators = {
        "discrete_es": l_estimator_oracle(
            canonical_weights(expected_shortfall_spectrum(0.5), n)
        ),
        "negated_min": l_estimator_oracle(
            canonical_weights(expected_shortfall_spectrum(1 / n), n)
        ),
        "uniform_plugin": l_estimator_oracle(
            canonical_weights(uniform_spectrum(), n)
        ),
        "linear_plugin": l_estimator_oracle(
            canonical_weights(linear_spectrum(2.0), n)
        ),
        "exponential_plugin": l_estimator_oracle(
            canonical_weights(exponential_spectrum(2.0), n)
        ),
    }
    ok = True
    failures = []
    for name, oracle in estimators.items():
        rep = check_axioms(oracle, n, trials, RngSpec(12))
        if not rep.passed:
            ok = False
            failures.append(name)

    # the ES-mixture form of a random monotone vector
    mu = t_map(WeightVector(draw_monotone_simplex(gen, n), monotone=True))
    mix_oracle = lambda v: mixture_estimate(mu, Sample(v))
    rep = check_axioms(mix_oracle, n, trials, RngSpec(12))
    ok = ok and rep.passed

    # a genuinely robust supremum: law-invariant but not comonotonic
    M = RepresentingSet([draw_monotone_simplex(gen, n) for _ in range(3)])
    sup_oracle = lambda v: robust_sup(M, Sample(v))[0]
    rep = check_axioms(sup_oracle, n, trials, RngSpec(12), comonotonic=False)
    ok = ok and rep.passed

    # the foil must fail with a concrete cash-additivity counterexample
    foil = lambda v: float(np.std(v, ddof=1))
    foil_rep = check_axioms(foil, 5, trials, RngSpec(12))
    ce = foil_rep.counterexamples.get("cash_additivity")
    foil_ok = (not foil_rep.passed) and ce is not None
    if foil_ok:
        x = np.asarray(ce["x"])
        foil_ok = abs(
            float(np.std(x + ce["m"], ddof=1)) - ce["lhs"]
        ) < 1e-12 and abs(ce["lhs"] - ce["rhs"]) > 1e-9

    report(
        12, ok and foil_ok,
        "7 built-in estimators pass 1e4 trials per axiom; standard-deviation "
        f"foil rejected via cash additivity{' (failures: ' + ', '.join(failures) + ')' if failures else ''}",
        time.perf_counter() - started, 30.0,
    )


def test_criterion_13_determinism(consistency_report, rate_report,
                                  clt_reports, bootstrap_report):
    started = time.perf_counter()
    rerun_consistency = consistency_sweep(
        bundled_lipschitz_class(), UNIFORM01, [100_000], 20, RngSpec(1),
        threshold=0.01, min_pass_fraction=0.95,
    )
    rerun_rate = rate_experiment(
        LipschitzClass([uniform_spectrum()]), NORMAL01, RATE_GRID, 50,
        RngSpec(1), slope_band=(-0.65, -0.35),
    )
    rerun_clt_u = clt_check(uniform_spectrum(), UNIFORM01, 2000, 2000,
                            RngSpec(1), threshold=0.05)
    rerun_clt_n = clt_check(uniform_spectrum(), NORMAL01, 2000, 2000,
                            RngSpec(1), threshold=0.05)
    rerun_bootstrap = bootstrap_check(linear_spectrum(2.0), NORMAL01, 2000,
                                      2000, RngSpec(1), threshold=0.08,
                                      grid_m=100)
    matches = [
        rerun_consistency.to_json() == consistency_report[0].to_json(),
        rerun_rate.to_json() == rate_report[0].to_json(),
        rerun_clt_u.to_json() == clt_reports[0]["uniform"].to_json(),
        rerun_clt_n.to_json() == clt_reports[0]["normal"].to_json(),
        rerun_bootstrap.to_json() == bootstrap_report[0].to_json(),
    ]
    report(
        13, all(matches),
        f"criteria 8-11 reports byte-identical on rerun "
        f"({sum(matches)}/5 matched)",
        time.perf_counter() - started, 600.0,
    )
