"""One error type: every library refusal raises riskcore.RiskError."""

import ast
import importlib
import pathlib

import riskcore
from riskcore import errors

SRC = pathlib.Path(riskcore.__file__).parent

#: the exception classes src/riskcore may define; _Malformed is the JSON
#: reader's internal signal, always caught inside core
ALLOWED = {("errors", "RiskError"), ("core", "_Malformed")}


def test_risk_error_is_the_only_library_exception():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = (riskcore if path.stem == "__init__"
                  else importlib.import_module(f"riskcore.{path.stem}"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [eval(ast.unparse(b), vars(module)) for b in node.bases]
            if any(isinstance(b, type) and issubclass(b, BaseException)
                   for b in bases):
                found.add((path.stem, node.name))
    assert found == ALLOWED
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert defined == {"RiskError"}
    assert issubclass(errors.RiskError, ValueError)
