"""Seeded experiment results pinned as literals.

The literals were produced by the replicate loop these reports ran on
before it became one serial kernel; a change to the draw streams, the
sort or the weight application moves them. They are compared at a
relative 1e-12, a few ulps, so a different BLAS build still passes.
"""

import math

import pytest

from riskcore import (
    LipschitzClass,
    ReferenceDistribution,
    RngSpec,
    bootstrap_check,
    bundled_lipschitz_class,
    clt_check,
    consistency_sweep,
    linear_spectrum,
    rate_experiment,
    uniform_spectrum,
)

LAWS = {
    "uniform": ReferenceDistribution("uniform", a=0.0, b=1.0),
    "normal": ReferenceDistribution("normal", mean=0.0, sd=1.0),
}

RUNS = {
    "clt": lambda dist: clt_check(
        linear_spectrum(2.0), dist, 200, 100, RngSpec(3)),
    "bootstrap": lambda dist: bootstrap_check(
        linear_spectrum(2.0), dist, 100, 50, RngSpec(2)),
    "consistency": lambda dist: consistency_sweep(
        bundled_lipschitz_class(), dist, [50, 200], 4, RngSpec(11)),
    "rate": lambda dist: rate_experiment(
        LipschitzClass([uniform_spectrum(), linear_spectrum(2.0)]), dist,
        [100, 1000], 5, RngSpec(2)),
}

GOLDEN = {
    ("clt", "uniform"): {
        "sigma2": 0.08888888888755554,
        "d_K": 0.10808241083442904,
        "population_risk": -0.3333333333333335,
    },
    ("bootstrap", "uniform"): {
        "n": 100,
        "B": 50,
        "sigma2": 0.08888888888755554,
        "d_K": 0.07034482751074936,
        "d_K_m": 0.06427193196258948,
        "seed": 2,
        "degenerate": False,
    },
    ("consistency", "uniform"): {
        "per_n": [
            {
                "n": 50,
                "median_error": 0.05924199880656564,
                "max_error": 0.07473152047101528,
                "errors": [
                    0.06635789383461027,
                    0.07473152047101528,
                    0.052126103778521005,
                    0.01732120479413604,
                ],
            },
            {
                "n": 200,
                "median_error": 0.01926532166145356,
                "max_error": 0.0329905800649144,
                "errors": [
                    0.021861861088284584,
                    0.009834764654023331,
                    0.016668782234622537,
                    0.0329905800649144,
                ],
            },
        ],
    },
    ("rate", "uniform"): {
        "per_n": [
            {
                "n": 100,
                "median_error": 0.02594755095693313,
                "max_error": 0.059474706628601326,
            },
            {
                "n": 1000,
                "median_error": 0.006434589783333555,
                "max_error": 0.013422625984332415,
            },
        ],
        "slope": -0.6055755084418438,
        "intercept": -0.8628997724382955,
    },
    ("clt", "normal"): {
        "sigma2": 1.1627447532372974,
        "d_K": 0.10798803088412001,
        "population_risk": 0.5641895835477552,
    },
    ("bootstrap", "normal"): {
        "n": 100,
        "B": 50,
        "sigma2": 1.1627447532372974,
        "d_K": 0.07847216310182259,
        "d_K_m": 0.07585500556078772,
        "seed": 2,
        "degenerate": False,
    },
    ("consistency", "normal"): {
        "per_n": [
            {
                "n": 50,
                "median_error": 0.17936981226671805,
                "max_error": 0.2779066897611593,
                "errors": [
                    0.17116562428891022,
                    0.2779066897611593,
                    0.18757400024452592,
                    0.11059941224552405,
                ],
            },
            {
                "n": 200,
                "median_error": 0.0864417944439699,
                "max_error": 0.12324300824718049,
                "errors": [
                    0.12324300824718049,
                    0.08003822656932247,
                    0.055771644149555155,
                    0.09284536231861734,
                ],
            },
        ],
    },
    ("rate", "normal"): {
        "per_n": [
            {
                "n": 100,
                "median_error": 0.10388606286532207,
                "max_error": 0.164146877313172,
            },
            {
                "n": 1000,
                "median_error": 0.028092553761432847,
                "max_error": 0.04588373473125795,
            },
        ],
        "slope": -0.567966066777994,
        "intercept": 0.3511198676133941,
    },
}


def assert_matches(got, want, path="results"):
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and math.isfinite(got), path
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("experiment, law", list(GOLDEN))
def test_seeded_results_match_golden(experiment, law):
    report = RUNS[experiment](LAWS[law])
    assert_matches(report.results, GOLDEN[(experiment, law)])
