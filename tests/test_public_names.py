import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import mildspec

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def _unused_imports(path):
    """Names a module imports and never references; __all__ and __future__ are exempt."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            referenced |= {e.value for e in node.value.elts}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in referenced]


def test_no_module_imports_a_name_it_never_uses():
    # a package __init__ imports to re-export
    paths = [p for d in ("src/mildspec", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"]
    assert paths
    assert [name for p in paths for name in _unused_imports(p)] == []
