"""The names perfbench/tracer.py wraps must exist in riskcore: the tracer
counts through them, so a refactor that deletes or renames one breaks the
benchmark's per-layer figures."""

import importlib
import pathlib

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def test_every_hooked_name_resolves():
    # executed from its text, so nothing is imported or cached from the
    # benchmark's directory
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    missing = []
    for module_name, qualname, _, _ in namespace["HOOKS"]:
        owner = importlib.import_module("riskcore." + module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{module_name}.{qualname}")
    assert not missing
