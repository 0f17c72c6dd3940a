import json
import subprocess
import sys
from pathlib import Path

import pytest

SCAN = Path(__file__).resolve().parent / "scan.py"


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
