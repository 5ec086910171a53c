"""Seeded experiment results and axiom reports pinned as literals.

The experiment literals were produced by the replicate loop these
reports ran on before it became one serial kernel; a change to the draw
streams, the sort or the weight application moves them. They are
compared at a relative 1e-12, a few ulps, so a different BLAS build
still passes.

The axiom-report literals were produced by the trial-by-trial axiom
loop, one oracle round trip per evaluation, before trials were sent to
the oracle in blocks; the shifted_mean and first_entry literals by the
blocked loop that still judged each trial on its own. Their JSON must
match byte for byte: the oracles compute the same floats however the
requests are scheduled and the verdicts taken.
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest

from riskcore import (
    LipschitzClass,
    ReferenceDistribution,
    RngSpec,
    bootstrap_check,
    bundled_lipschitz_class,
    check_axioms,
    clt_check,
    consistency_sweep,
    linear_spectrum,
    rate_experiment,
    uniform_spectrum,
)
from riskcore.cli import SubprocessOracle

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


ORACLES = pathlib.Path(__file__).parent / "oracles"


def var_oracle(k):
    """Value at risk at level k/n: coherent but for subadditivity."""
    return lambda v: float(-np.sort(np.asarray(v, dtype=np.float64))[k - 1])


def subprocess_axioms(command, n, trials, seed):
    with SubprocessOracle(f"{sys.executable} {ORACLES / command}") as oracle:
        return check_axioms(oracle, n, trials, RngSpec(seed))


AXIOM_RUNS = {
    "std": lambda seed: subprocess_axioms("std_oracle.py", 5, 200, seed),
    "des": lambda seed: subprocess_axioms("des_oracle.py 2", 6, 150, seed),
    # first violation at trial 98, inside the second block of trials
    "var": lambda seed: check_axioms(var_oracle(3), 30, 200, RngSpec(seed)),
    # rho(0) = -1 breaks positive homogeneity at lambda = 0, where the
    # right-hand side is 0 * rho(x) = -0.0
    "shifted_mean": lambda seed: check_axioms(
        lambda v: -float(np.mean(v)) - 1.0, 4, 200, RngSpec(seed)),
    "first_entry": lambda seed: check_axioms(
        lambda v: -float(v[0]), 6, 200, RngSpec(seed)),
}

AXIOM_GOLDEN = {
    ("std", 3): {
        "schema": "riskcore/1",
        "passed": False,
        "trials": 200,
        "n": 5,
        "axioms": {
            "monotonicity": False,
            "cash_additivity": False,
            "positive_homogeneity": True,
            "subadditivity": True,
            "law_invariance": True,
            "comonotonic_additivity": False,
        },
        "counterexamples": {
            "monotonicity": {
                "trial": 0,
                "x": [
                    1.0122937017490639, 0.7536967787531172,
                    0.05585145804087592, -0.6726423961318683,
                    0.09804493922480564,
                ],
                "y": [
                    2.086997330276249, 0.9821418933133119, 0.3882728615231688,
                    -0.09161222036233219, 0.5642530495622741,
                ],
                "lhs": 0.6608429469352511,
                "rhs": 0.8228954203264798,
                "axiom": "monotonicity",
            },
            "cash_additivity": {
                "trial": 0,
                "x": [
                    -2.9690945003369724, 0.4320538090331015,
                    -0.9360363758021348, -0.10318767591402267,
                    1.2435302087934463,
                ],
                "m": -0.5249988510774634,
                "lhs": 1.608340894980275,
                "rhs": 2.1333397460577386,
                "axiom": "cash_additivity",
            },
            "comonotonic_additivity": {
                "trial": 0,
                "x": [
                    -0.3074158292795996, 0.15948375529040598,
                    -0.16448127544340416, 0.23715746198885668,
                    0.2813465757967485,
                ],
                "y": [
                    0.36157605166331414, 0.4838689795842564,
                    0.4010096423347448, 0.5037352961560434, 0.5150373822962406,
                ],
                "lhs": 0.32956359626558074,
                "rhs": 0.32956790330173014,
                "axiom": "comonotonic_additivity",
            },
        },
    },
    ("std", 8): {
        "schema": "riskcore/1",
        "passed": False,
        "trials": 200,
        "n": 5,
        "axioms": {
            "monotonicity": False,
            "cash_additivity": False,
            "positive_homogeneity": True,
            "subadditivity": True,
            "law_invariance": True,
            "comonotonic_additivity": False,
        },
        "counterexamples": {
            "monotonicity": {
                "trial": 0,
                "x": [
                    1.4301536384197964, -1.674938941191422,
                    -0.11369478649011952, -0.8765792453404719,
                    -1.2585397563843943,
                ],
                "y": [
                    2.485122158766351, -0.37694492863201634,
                    2.1301272096323114, 1.5514045152007272,
                    -0.5184994279186562,
                ],
                "lhs": 1.221923953968471,
                "rhs": 1.4119073272842844,
                "axiom": "monotonicity",
            },
            "cash_additivity": {
                "trial": 0,
                "x": [
                    -0.09912075592507226, 0.9600406399607583,
                    0.29068668496553196, -0.264448643479093,
                    -0.580754694662379,
                ],
                "m": -1.3824993051600423,
                "lhs": 0.59254413672775,
                "rhs": 1.9750434418877922,
                "axiom": "cash_additivity",
            },
            "comonotonic_additivity": {
                "trial": 0,
                "x": [
                    1.4561802313333816, 1.1142561688846717, 1.930390845916996,
                    0.9958952976733632, 2.1681700390168226,
                ],
                "y": [
                    1.4664394791066129, 1.409317200180485, 1.5455146515572777,
                    1.0922621727790118, 1.5851646090261935,
                ],
                "lhs": 0.6795675288709802,
                "rhs": 0.7031072338916433,
                "axiom": "comonotonic_additivity",
            },
        },
    },
    ("des", 4): {
        "schema": "riskcore/1",
        "passed": True,
        "trials": 150,
        "n": 6,
        "axioms": {
            "monotonicity": True,
            "cash_additivity": True,
            "positive_homogeneity": True,
            "subadditivity": True,
            "law_invariance": True,
            "comonotonic_additivity": True,
        },
    },
    ("des", 9): {
        "schema": "riskcore/1",
        "passed": True,
        "trials": 150,
        "n": 6,
        "axioms": {
            "monotonicity": True,
            "cash_additivity": True,
            "positive_homogeneity": True,
            "subadditivity": True,
            "law_invariance": True,
            "comonotonic_additivity": True,
        },
    },
    ("var", 1): {
        "schema": "riskcore/1",
        "passed": False,
        "trials": 200,
        "n": 30,
        "axioms": {
            "monotonicity": True,
            "cash_additivity": True,
            "positive_homogeneity": True,
            "subadditivity": False,
            "law_invariance": True,
            "comonotonic_additivity": True,
        },
        "counterexamples": {
            "subadditivity": {
                "trial": 98,
                "x": [
                    -0.4664079271764982, -1.3548409365104839,
                    -0.19915069017086331, -0.04800487322145902,
                    1.170225291536191, 0.047205100790469426,
                    0.7273775016160383, 0.1929812068463968,
                    -0.38297702307401665, 1.550382958926083,
                    0.7963043391077859, -0.41161499486315656,
                    0.15502267222387367, 2.034072217506331, 0.6427664536758079,
                    2.042521332916297, 1.3014151344225102, -0.4576256484565852,
                    1.1230426715288957, -0.38482714269630236,
                    -0.09398700497802052, -0.8008963259681815,
                    0.9638899403680405, 0.4509488137794345, -0.36642700913721,
                    -0.6353489762437724, 0.16905233362708946,
                    -0.7572449260205669, 0.11070318487240338,
                    0.19445189798431978,
                ],
                "y": [
                    -0.07520993098831184, -0.6813714957403619,
                    1.2449039080999027, -0.3318015362468149,
                    0.10799300641219474, 1.5503040839865143, 0.555827163452186,
                    -0.23001792197735146, -2.3224985718458107,
                    0.8170680705264355, -0.6642329376317581,
                    -1.8319568349449187, 1.026358001287793,
                    -1.1015391179688114, -0.8624158964324529,
                    -0.34554802062866447, -0.9017627569207686,
                    0.9586743760892015, 0.0045393133171671065,
                    0.279389885345131, 0.7682914349051534, 1.1328649353441527,
                    1.5935821772749215, 0.18428495101909892,
                    0.005507108453136586, 0.1868858499635766,
                    1.350529609325183, -0.3230604075107812, -0.804530438203696,
                    1.3862574079287784,
                ],
                "lhs": 2.0362124322508457,
                "rhs": 1.8587840439893784,
                "axiom": "subadditivity",
            },
        },
    },
    ("shifted_mean", 5): {
        "schema": "riskcore/1",
        "passed": False,
        "trials": 200,
        "n": 4,
        "axioms": {
            "monotonicity": True,
            "cash_additivity": True,
            "positive_homogeneity": False,
            "subadditivity": False,
            "law_invariance": True,
            "comonotonic_additivity": False,
        },
        "counterexamples": {
            "positive_homogeneity": {
                "trial": 0,
                "x": [
                    -2.055716299052254, 0.4169520404106055,
                    -0.7613811925141625, 1.5088766027147544,
                ],
                "lambda": 0.0,
                "lhs": -1.0,
                "rhs": -0.0,
                "axiom": "positive_homogeneity",
            },
            "subadditivity": {
                "trial": 0,
                "x": [
                    -0.01610472099096527, 0.4868539918795855,
                    -1.3210127968212875, 0.47256323816455087,
                ],
                "y": [
                    1.1516041793208363, 0.6008774204199102,
                    1.3563857312240097, 0.5864556509246168,
                ],
                "lhs": -1.8294056735303141,
                "rhs": -2.829405673530314,
                "axiom": "subadditivity",
            },
            "comonotonic_additivity": {
                "trial": 0,
                "x": [
                    -1.8519500481059843, -2.0716075811093275,
                    -1.8693002375742696, -1.886541611761162,
                ],
                "y": [
                    -0.13205744837198932, -0.377683995248478,
                    -0.20791383647730335, -0.24312171929946144,
                ],
                "lhs": 1.1600441194869937,
                "rhs": 0.16004411948699382,
                "axiom": "comonotonic_additivity",
            },
        },
    },
    ("first_entry", 5): {
        "schema": "riskcore/1",
        "passed": False,
        "trials": 200,
        "n": 6,
        "axioms": {
            "monotonicity": True,
            "cash_additivity": True,
            "positive_homogeneity": True,
            "subadditivity": True,
            "law_invariance": False,
            "comonotonic_additivity": True,
        },
        "counterexamples": {
            "law_invariance": {
                "trial": 0,
                "x": [
                    -0.13136971860370122, -0.3821357380557007,
                    2.384011531953164, -0.5090025154263784,
                    -0.016600283823337114, -0.0195966178287372,
                ],
                "perm": [3, 2, 5, 1, 4, 0],
                "lhs": 0.5090025154263784,
                "rhs": 0.13136971860370122,
                "axiom": "law_invariance",
            },
        },
    },
}



@pytest.mark.parametrize("oracle, seed", list(AXIOM_GOLDEN))
def test_axiom_reports_match_golden(oracle, seed):
    report = AXIOM_RUNS[oracle](seed)
    assert json.dumps(report.to_dict()) == json.dumps(AXIOM_GOLDEN[(oracle, seed)])
