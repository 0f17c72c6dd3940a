import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import scan
from mildspec import GroupSpec

SCAN = Path(__file__).resolve().parent / "scan.py"

# 200 of the 7399 lattices of orders <= 36, in scan order, and the FAILs they give at seed 1
SAMPLE = random.Random(0).sample(
    [(m, a, b) for m in scan.groups(36) for a, b in scan.lattices(m)], 200)
COEFF = "comb refinement monotone (coeff)"  # ROADMAP item 3
SAMPLE_FAILS = {
    "gabor": {  # critical, condition number 2.2e8: both solves carry a forward error up to cond eps
        ((2, 12), (2, 1), (1, 12), "expansion reconstructs"),
        ((2, 12), (2, 1), (1, 12), "structured frame operator matches dense oracle"),
    },
    "mild": {(m, a, b, COEFF) for m, a, b in [
        ((2, 2, 2, 2), (1, 1, 2, 2), (1, 1, 1, 1)),
        ((2, 2, 2, 2, 2), (1, 1, 2, 1, 2), (1, 2, 1, 2, 1)),
        ((2, 2, 2, 2, 2), (2, 1, 2, 1, 2), (1, 2, 1, 2, 1)),
        ((2, 2, 2, 2, 2), (2, 2, 1, 1, 2), (1, 1, 1, 1, 1)),
        ((2, 2, 2, 2, 2), (2, 2, 1, 1, 2), (1, 1, 2, 1, 1)),
        ((2, 2, 2, 3), (2, 1, 2, 1), (1, 2, 1, 3)),
        ((2, 2, 2, 3), (2, 2, 1, 1), (1, 1, 2, 3)),
        ((2, 2, 2, 4), (2, 2, 1, 1), (1, 1, 1, 1)),
        ((2, 2, 3), (1, 2, 3), (1, 1, 1)),
        ((2, 2, 3, 3), (1, 1, 3, 3), (1, 1, 1, 1)),
        ((2, 2, 3, 3), (1, 2, 3, 1), (1, 1, 1, 1)),
        ((2, 2, 3, 3), (2, 2, 3, 1), (1, 1, 1, 1)),
        ((2, 2, 4), (1, 1, 4), (1, 1, 1)),
        ((2, 2, 4), (2, 1, 1), (1, 1, 4)),
        ((2, 2, 6), (2, 2, 2), (1, 1, 2)),
        ((2, 4), (2, 1), (1, 4)),
        ((2, 4, 4), (1, 4, 1), (1, 1, 4)),
        ((2, 4, 4), (2, 1, 1), (1, 1, 4)),
        ((2, 8), (2, 2), (1, 1)),
        ((2, 18), (1, 6), (1, 2)),
        ((3, 8), (1, 8), (3, 1)),
        ((3, 8), (3, 1), (1, 4)),
        ((3, 12), (1, 12), (3, 1)),
        ((3, 12), (3, 1), (1, 6)),
        ((4, 8), (1, 8), (4, 1)),
        ((5, 6), (1, 6), (1, 1)),
        ((6, 6), (3, 1), (2, 3)),
        ((6, 6), (3, 2), (1, 2)),
        ((6, 6), (3, 6), (2, 1)),
        ((36,), (9,), (1,)),
    ]},
}


@pytest.mark.parametrize("suite", ["gabor", "mild"])
def test_small_scan_runs_without_exceptions(suite, tmp_path):
    out = tmp_path / "scan.json"
    proc = subprocess.run(
        [sys.executable, str(SCAN), "--suite", suite, "--max-order", "8", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result.keys() == {"suite", "seed", "max_order", "groups", "lattices", "gates",
                             "exceptions"}
    assert (result["suite"], result["seed"], result["max_order"]) == (suite, 1, 8)
    # Z2 ... Z8, Z2xZ2, Z2xZ3, Z2xZ4, Z2xZ2xZ2: 189 lattices aZ x bZ
    assert (result["groups"], result["lattices"]) == (11, 189)
    assert result["exceptions"] == {}
    assert result["gates"]
    for gate in result["gates"].values():
        assert gate.keys() == {"runs", "fails", "worst"}
        assert 0 <= gate["fails"] <= gate["runs"] <= result["lattices"]
        assert gate["worst"].keys() == {"group", "a", "b", "residual", "threshold", "condition"}
    if suite == "gabor":
        assert any(g["worst"]["condition"] is not None for g in result["gates"].values())


@pytest.mark.parametrize("suite", ["gabor", "mild"])
def test_sample_fails_only_its_known_gates(suite):
    # an exception fails the test; a FAIL must be on the committed list, and every listed one occur
    run = scan.SUITES[suite]
    fails = set()
    for moduli, a, b in SAMPLE:
        for c in run(GroupSpec(moduli), a, b, seed=scan.SEED):
            if c.threshold is not None and not c.passed:
                fails.add((moduli, a, b, c.name))
    assert fails == SAMPLE_FAILS[suite]
