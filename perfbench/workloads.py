"""Workloads: job lists, generated inputs and output checks.

Inputs are written with this file's own JSON writer and every expected
output is computed here with NumPy and the standard JSON/CSV parsers, never
with ``mildspec``, so a change to the library cannot change what it is
measured on or what it is held to.  Every input and every ``--seed`` passed
to the program derives from the workload seed.

A check returns one of OK, KNOWN (a defect recorded in
``expected_verify.json``, counted in failed_frac) or FAIL, with a message.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

OK, KNOWN, FAIL = "ok", "known", "fail"
HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected_verify.json").read_text())

VERIFY_GROUPS = ("24", "64", "128", "4,8", "8,8", "2,4,8")
REL_TOL = 1e-9


@dataclass
class Job:
    """One program run: CLI arguments (``kind`` "cli") or tf_session arguments."""

    name: str
    kind: str
    args: list[str]
    outputs: list[Path]
    check: Callable[["Job", int], tuple[str, str]]
    state: dict = field(default_factory=dict)


# -- input files, written without mildspec ---------------------------------

def write_signal(path: Path, moduli: tuple[int, ...], values: np.ndarray) -> None:
    pairs = np.column_stack([values.real, values.imag]).tolist()
    with open(path, "w") as fh:
        json.dump({"group": list(moduli), "values": pairs}, fh)


def read_signal(path: Path) -> tuple[list[int], np.ndarray]:
    with open(path) as fh:
        data = json.load(fh)
    arr = np.asarray(data["values"], dtype=np.float64).reshape(-1, 2)
    return data["group"], arr[:, 0] + 1j * arr[:, 1]


def complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def gaussian_window(n: int, radius: int = 8) -> np.ndarray:
    """Periodized Gaussian sum_{|m|<=radius} exp(-pi (k + m n)^2 / n)."""
    k = np.arange(n)[:, None] + n * np.arange(-radius, radius + 1)[None, :]
    return np.exp(-math.pi * k.astype(np.float64) ** 2 / n).sum(axis=1)


def _close(what: str, got: np.ndarray, want: np.ndarray, tol: float = REL_TOL) -> tuple[str, str]:
    if got.shape != want.shape:
        return FAIL, f"{what}: shape {got.shape}, expected {want.shape}"
    err = float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))
    return (OK, "") if err <= tol else (FAIL, f"{what}: relative error {err:.3e} > {tol:.0e}")


def _signal_check(path: Path, moduli, want: np.ndarray, what: str,
                  tol: float = REL_TOL) -> tuple[str, str]:
    group, values = read_signal(path)
    if group != list(moduli):
        return FAIL, f"{what}: group {group}, expected {list(moduli)}"
    return _close(what, values, want, tol)


def _exit(rc: int) -> tuple[str, str] | None:
    return None if rc == 0 else (FAIL, f"exit code {rc}, expected 0")


# -- verify-ladder ----------------------------------------------------------

def _check_report(job: Job, rc: int) -> tuple[str, str]:
    group = job.state["group"]
    try:
        raw = job.outputs[0].read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return FAIL, f"no readable report ({exc})"
    first = job.state.setdefault("report", raw)
    if raw != first:
        return FAIL, "report differs from an earlier run of the same job"
    gated = {c["name"]: c["passed"] for c in report["checks"] if c["threshold"] is not None}
    missing = [n for n in EXPECTED["checks"][group] if n not in gated]
    if missing:
        return FAIL, f"checks missing from the report: {missing}"
    failed = sorted(n for n, ok in gated.items() if not ok)
    unexpected = [n for n in failed if n not in EXPECTED["known_defects"].get(group, [])]
    if unexpected:
        return FAIL, f"checks failed: {unexpected}"
    if report["passed"] != (not failed) or rc != (1 if failed else 0):
        return FAIL, f"exit code {rc} and report verdict {report['passed']} disagree"
    return (KNOWN, f"known defect: {failed}") if failed else (OK, "")


def verify_ladder(seed: int, work: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for group in VERIFY_GROUPS:
        report = work / f"verify_{group.replace(',', 'x')}.json"
        job_seed = str(int(rng.integers(0, 2**31)))
        jobs.append(Job(
            f"verify all Z{group.replace(',', 'xZ')}", "cli",
            ["verify", "all", "--group", group, "--seed", job_seed, "--report", str(report)],
            [report], _check_report, {"group": group},
        ))
    return jobs


# -- tf-frames --------------------------------------------------------------

def _check_session(job: Job, rc: int) -> tuple[str, str]:
    bad = _exit(rc)
    if bad:
        return bad
    with open(job.outputs[0]) as fh:
        summary = json.load(fh)
    if summary.get("wrapped"):
        return FAIL, f"tracer wrappers present in an untraced run: {summary['wrapped']}"
    if len(summary["systems"]) != 3 or len(summary["convergence"]) != 2:
        return FAIL, "session summary is incomplete"
    for s in summary["systems"]:
        if not 0 < s["lower"] <= s["upper"]:
            return FAIL, f"frame bounds {s['lower']}, {s['upper']} on {s['group']}"
        if not s["roundtrip_rel_err"] <= REL_TOL:
            return FAIL, f"round trip error {s['roundtrip_rel_err']:.3e} on {s['group']}"
    for c in summary["convergence"]:
        for metric in ("d_pair", "d_stft", "d_coeff"):
            series = c[metric]
            # the chain ends at the full group, whose normalized comb is the limit
            if len(series) != c["members"] or series[-1] != 0.0 or not series[0] > 0:
                return FAIL, f"{metric} on {c['group']} does not run from >0 to exactly 0"
    return OK, ""


def tf_frames(seed: int, work: Path) -> list[Job]:
    out = work / "session.json"
    return [Job("tf session", "session", ["--seed", str(seed), "--out", str(out)],
                [out], _check_session)]


# -- file-roundtrip ---------------------------------------------------------

def _stft_spot_check(path: Path, x: np.ndarray, spots: np.ndarray) -> tuple[str, str]:
    n = x.size
    g = gaussian_window(n)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t0", "s0", "re", "im"] or len(rows) != n * n + 1:
        return FAIL, f"STFT CSV has header {rows[0]} and {len(rows) - 1} rows, expected {n * n}"
    scale = 0.0
    worst = 0.0
    for t in spots:
        want = np.fft.fft(x * np.conj(np.roll(g, int(t))))
        block = np.array(rows[1 + t * n: 1 + (t + 1) * n], dtype=np.float64)
        if not (np.all(block[:, 0] == t) and np.array_equal(block[:, 1], np.arange(n))):
            return FAIL, f"STFT CSV rows for t={t} are out of order"
        worst = max(worst, float(np.max(np.abs(block[:, 2] + 1j * block[:, 3] - want))))
        scale = max(scale, float(np.max(np.abs(want))))
    return (OK, "") if worst <= REL_TOL * scale else (FAIL, f"STFT spot rows off by {worst:.3e}")


def file_roundtrip(seed: int, work: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    x64k = complex_normal(rng, 65536)
    x2d = complex_normal(rng, 65536)
    x8k = complex_normal(rng, 8192)
    x256 = complex_normal(rng, 256)
    spots = np.sort(rng.choice(256, size=8, replace=False))
    spectrum = np.fft.fft(x64k)
    spectrum2d = np.fft.fft2(x2d.reshape(256, 256)).ravel()
    f = {name: work / f"{name}.json" for name in (
        "x64k", "spec64k", "x2d", "x8k", "x256", "dft64k", "idft64k", "dft2d",
        "restrict64k", "weil64k", "restrict8k", "extend8k", "coeffs256", "synth256")}
    f["stft256"] = work / "stft256.csv"
    write_signal(f["x64k"], (65536,), x64k)
    write_signal(f["spec64k"], (65536,), spectrum)
    write_signal(f["x2d"], (256, 256), x2d)
    write_signal(f["x8k"], (8192,), x8k)
    write_signal(f["x256"], (256,), x256)

    def cli(name, args, out, check):
        return Job(name, "cli", args + ["--out", str(f[out])], [f[out]],
                   lambda job, rc: _exit(rc) or check())

    def check_coeffs():
        with open(f["coeffs256"]) as fh:
            data = json.load(fh)
        if data["lattice"] != {"a": [2], "b": [2]} or len(data["coeffs"]) != 128 * 128:
            return FAIL, "coefficient file has the wrong lattice or size"
        return OK, ""

    def check_extend():
        group, ext = read_signal(f["extend8k"])
        if group != [8192]:
            return FAIL, f"extension lives on {group}"
        samples = x8k[::2]
        # triangle bumps at step 2: samples at lattice points, midpoints between
        if not np.array_equal(ext[::2], samples):
            return FAIL, "extension does not reproduce the samples at lattice points"
        return _close("extension midpoints", ext[1::2], (samples + np.roll(samples, -1)) / 2)

    return [
        cli("dft Z65536", ["dft", str(f["x64k"])], "dft64k",
            lambda: _signal_check(f["dft64k"], (65536,), spectrum, "dft")),
        cli("dft --inverse Z65536", ["dft", str(f["spec64k"]), "--inverse"], "idft64k",
            lambda: _signal_check(f["idft64k"], (65536,), x64k, "inverse dft")),
        cli("dft Z256xZ256", ["dft", str(f["x2d"])], "dft2d",
            lambda: _signal_check(f["dft2d"], (256, 256), spectrum2d, "2-D dft")),
        cli("restrict Z65536", ["restrict", str(f["x64k"]), "--lattice", "2"], "restrict64k",
            lambda: _signal_check(f["restrict64k"], (32768,), x64k[::2], "restrict", 0.0)),
        cli("weil Z65536", ["weil", str(f["x64k"]), "--lattice", "4"], "weil64k",
            lambda: _signal_check(f["weil64k"], (4,), x64k.reshape(-1, 4).sum(axis=0), "weil")),
        cli("restrict Z8192", ["restrict", str(f["x8k"]), "--lattice", "2"], "restrict8k",
            lambda: _signal_check(f["restrict8k"], (4096,), x8k[::2], "restrict", 0.0)),
        cli("extend Z8192", ["extend", str(f["restrict8k"]), "--group", "8192", "--lattice", "2"],
            "extend8k", check_extend),
        cli("gabor analyze Z256", ["gabor", "analyze", str(f["x256"]), "--a", "2", "--b", "2"],
            "coeffs256", check_coeffs),
        cli("gabor synth Z256", ["gabor", "synth", str(f["coeffs256"])], "synth256",
            lambda: _signal_check(f["synth256"], (256,), x256, "synth(analyze(x))")),
        cli("stft Z256", ["stft", str(f["x256"])], "stft256",
            lambda: _stft_spot_check(f["stft256"], x256, spots)),
    ]


WORKLOADS = {
    "verify-ladder": verify_ladder,
    "tf-frames": tf_frames,
    "file-roundtrip": file_roundtrip,
}


def build(name: str, seed: int, work: Path) -> list[Job]:
    """Write the workload's inputs under ``work`` and return its job list."""
    return WORKLOADS[name](seed, work)
