"""The lazy package namespace: every public name resolves to the object its
defining module holds at the moment of access."""

import importlib

import pytest

import riskcore

PUBLIC = [name for name in riskcore.__all__ if name != "__version__"]


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
