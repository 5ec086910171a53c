"""The package's names. The public surface is pinned, and the lazy
namespace serves each name from the object its defining module holds at
the moment of access. The reference numerics that moved out of the
package are served from the test helpers and named nowhere in it. Only
core names the block size of the kernel over rows. Every module uses
every name it imports."""

import ast
import importlib
import pathlib
import re

import pytest

import helpers
import riskcore

PUBLIC = [name for name in riskcore.__all__ if name != "__version__"]
SRC = pathlib.Path(riskcore.__file__).parent
#: reference numerics kept only in tests/helpers.py
MOVED = ["influence_function", "SortedSample", "sort_sample",
         "empirical_quantile", "step_spectrum", "primitive_gap", "ceil_level",
         "LEVEL_ULPS", "INFLUENCE_EDGE", "INFLUENCE_TOL"]


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_served_from_its_defining_module(name, monkeypatch):
    obj = getattr(riskcore, name)
    module = importlib.import_module(obj.__module__)
    assert module.__name__.startswith("riskcore.")
    assert getattr(module, name) is obj
    # rebound in its module, as a tracer or a test double does
    rebound = object()
    monkeypatch.setattr(module, name, rebound)
    assert getattr(riskcore, name) is rebound
    monkeypatch.undo()
    assert getattr(riskcore, name) is obj
    assert name not in vars(riskcore)  # served, never cached


@pytest.mark.parametrize("name", MOVED)
def test_moved_reference_is_served_from_helpers(name):
    obj = getattr(helpers, name)
    if callable(obj):
        assert obj.__module__ == "helpers"
    assert name not in riskcore.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(riskcore, name)
    word = re.compile(rf"\b{name}\b")
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if word.search(p.read_text(encoding="utf-8"))] == []


def test_only_core_names_the_block_size():
    # one block decision: every kernel over rows of samples is core's
    word = re.compile(r"\bBLOCK_FLOATS\b")
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if word.search(p.read_text(encoding="utf-8"))] == ["core.py"]


def test_all_is_public_and_unique():
    assert len(set(riskcore.__all__)) == len(riskcore.__all__)
    assert riskcore.__version__ == "0.1.0"
    assert not any(name.startswith("_") for name in PUBLIC)


def test_dir_covers_all():
    assert set(riskcore.__all__) <= set(dir(riskcore))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        riskcore.no_such_name
    assert not hasattr(riskcore, "oracle_values")  # a submodule name outside __all__


def test_star_import():
    namespace = {}
    exec("from riskcore import *", namespace)
    assert set(riskcore.__all__) <= set(namespace)
    assert namespace["discrete_es"] is riskcore.estimators.discrete_es


def test_public_surface_is_pinned():
    assert sorted(riskcore.__all__) == [
        "ExperimentReport", "LipschitzClass", "Mixture", "ReferenceDistribution",
        "RepresentingSet", "RiskError", "RngSpec", "Sample", "Spectrum",
        "WeightVector", "__version__", "asymptotic_variance", "bootstrap_check",
        "bootstrap_distribution", "bundled_lipschitz_class", "canonical_weights",
        "check_axioms", "clt_check", "consistency_sweep", "discrete_es",
        "discrete_es_profile", "distribution_from_json",
        "expected_shortfall_spectrum", "exponential_spectrum",
        "kolmogorov_distance", "kusuoka_plugin", "l_estimate",
        "l_estimator_oracle", "linear_spectrum", "mixture_estimate",
        "piecewise_linear_spectrum", "population_es", "population_spectral_risk",
        "rate_experiment", "recover_comonotonic_weights", "robust_sup",
        "spectrum_from_json", "t_inverse", "t_map", "truncated_kolmogorov",
        "uniform_spectrum", "wasserstein1",
    ]


def test_every_imported_name_is_used():
    # __init__ names its exports as strings, which no Name node holds
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
