import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import mildspec
from mildspec.cli import build_parser

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


# every addition or removal of a public name shows in the diff of this list
PUBLIC_NAMES = [
    "BUPU", "BUPU_SHAPES", "CoefficientArray", "ConvergenceReport", "DistributionSequence",
    "DomainError", "DualityResult", "FRAME_TOL", "GaborSystem", "GroupMismatchError",
    "GroupSpec", "NotAFrame", "NotPeriodic", "PeriodicReport", "PoissonResult", "QuasiResult",
    "QuotientSignal", "QuotientSpec", "SamplingBound", "SchemaError", "Signal", "Subgroup",
    "SubgroupSignal", "SupportViolation", "TFLattice", "adjoint_restriction", "all_subgroups",
    "annihilator", "character", "character_vector", "comb_ft", "convergence_report",
    "default_probes", "dft", "dft_quotient", "dft_subgroup", "dirac", "dirac_comb",
    "duality_sampling_periodization", "finite_gaussian", "gabor_coefficients",
    "gabor_synthesis", "grid_subgroup", "idft", "make_bupu", "mild_deviation_coeff",
    "mild_deviation_pairing", "mild_deviation_stft", "modulate", "pair", "periodize_analysis",
    "poisson_check", "pure_frequency", "quasi_interpolate", "quotient", "random_signal",
    "refining_comb_sequence", "restriction", "s0_norm", "s0prime_norm", "sampling_bound",
    "semidiscrete_extension", "signal_to_comb", "stft", "subgroup_generated", "support",
    "tensor_extension", "tf_shift", "translate", "weil_map",
]


def test_public_names_are_the_pinned_list():
    assert len(PUBLIC_NAMES) == 70
    assert sorted(mildspec.__all__) == PUBLIC_NAMES


def test_star_import_binds_no_submodule():
    assert [n for n in mildspec.__all__ if isinstance(getattr(mildspec, n), ModuleType)] == []
    namespace = {}
    exec("from mildspec import *", namespace)
    assert not any(isinstance(v, ModuleType) for v in namespace.values())


def test_import_loads_neither_numpy_nor_a_submodule():
    # the thread caps still land before NumPy loads, as README promises
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["MILDSPEC_THREADS"] = "3"
    code = ("import json, os, sys, mildspec; print(json.dumps(["
            "sorted(m for m in sys.modules if m.startswith('mildspec')), "
            "'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert json.loads(proc.stdout) == [["mildspec"], False, "3"]


def test_every_public_name_is_its_home_modules_object():
    for name in mildspec.__all__:
        home = importlib.import_module(f"mildspec.{mildspec._HOMES[name]}")
        assert getattr(mildspec, name) is vars(home)[name], name


def test_a_read_name_is_not_cached_in_the_package(monkeypatch):
    import mildspec.gabor

    original = mildspec.GaborSystem
    assert "GaborSystem" not in vars(mildspec)
    # a patch in the home module, and its undoing, show through the package
    monkeypatch.setattr(mildspec.gabor, "GaborSystem", "patched")
    assert mildspec.GaborSystem == "patched"
    monkeypatch.undo()
    assert mildspec.GaborSystem is original
    assert "GaborSystem" not in vars(mildspec)


def test_unknown_name_raises_and_dir_lists_every_public_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        mildspec.no_such_name
    assert set(mildspec.__all__) <= set(dir(mildspec))


def _subcommand(name):
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))[name]


def _choices(subparser, dest):
    return next(a.choices for a in subparser._actions if a.dest == dest)


def test_cli_choices_match_the_suites_and_the_bump_shapes():
    from mildspec.approx import BUPU_SHAPES
    from mildspec.verify import _SUITES

    assert _choices(_subcommand("verify"), "suite") == [*_SUITES, "all"]
    for command in ("extend", "approx"):
        assert _choices(_subcommand(command), "shape") == list(BUPU_SHAPES)


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
