"""riskcore: finite-sample coherent risk estimation.

Discrete expected shortfall, spectral L-estimators and their canonical
discretisation, the weight/mixture bijection, robust suprema over
representing sets, black-box weight recovery, and the asymptotic
diagnostics (CLT variance, Efron bootstrap, Kolmogorov and Wasserstein
distances) behind them.

The namespace is lazy: ``import riskcore`` loads no submodule, and each
submodule loads on first use of one of its names. ``riskcore.<name>``
looks the name up in its defining module on every access and is never
cached here, so it is always the object that module holds now, also
after the name was rebound there.
"""

import importlib

__version__ = "0.1.0"

#: the public names each submodule defines
_EXPORTS = {
    "asymptotics": (
        "RngSpec",
        "asymptotic_variance",
        "bootstrap_distribution",
        "kolmogorov_distance",
        "truncated_kolmogorov",
        "wasserstein1",
    ),
    "core": (
        "Mixture",
        "RepresentingSet",
        "Sample",
        "WeightVector",
        "t_inverse",
        "t_map",
    ),
    "errors": ("RiskError",),
    "estimators": (
        "discrete_es",
        "discrete_es_profile",
        "kusuoka_plugin",
        "l_estimate",
        "l_estimator_oracle",
        "mixture_estimate",
        "recover_comonotonic_weights",
        "robust_sup",
    ),
    "harness": (
        "ExperimentReport",
        "LipschitzClass",
        "bootstrap_check",
        "bundled_lipschitz_class",
        "check_axioms",
        "clt_check",
        "consistency_sweep",
        "rate_experiment",
    ),
    "population": (
        "ReferenceDistribution",
        "distribution_from_json",
        "population_es",
        "population_spectral_risk",
    ),
    "spectra": (
        "Spectrum",
        "canonical_weights",
        "expected_shortfall_spectrum",
        "exponential_spectrum",
        "linear_spectrum",
        "piecewise_linear_spectrum",
        "spectrum_from_json",
        "uniform_spectrum",
    ),
}

#: the defining submodule of each public name
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted({*globals(), *_HOME})
