import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import mildspec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_targets():
    """(module, attribute) of every entry of TARGETS in perfbench/tracer.py, read as source."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_star_import_binds_no_submodule():
    assert [n for n in mildspec.__all__ if isinstance(getattr(mildspec, n), ModuleType)] == []
    namespace = {}
    exec("from mildspec import *", namespace)
    assert not any(isinstance(v, ModuleType) for v in namespace.values())


def test_every_traced_name_resolves():
    targets = _tracer_targets()
    assert targets
    missing = []
    for module, attr in targets:
        found = importlib.import_module(f"mildspec.{module}")
        # "Class.member" names a member on the class
        for part in attr.split("."):
            found = getattr(found, part, None)
        if found is None:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_name_of_the_session_resolves():
    source = (PERFBENCH / "tf_session.py").read_text()
    names = set(re.findall(r"(?<![\w.])ms\.(\w+)", source))
    assert names
    assert sorted(n for n in names if not hasattr(mildspec, n)) == []
