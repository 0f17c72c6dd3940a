import argparse
import contextlib
import csv
import io as stdio
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildspec import (
    GaborSystem,
    GroupSpec,
    Signal,
    TFLattice,
    finite_gaussian,
    grid_subgroup,
    random_signal,
)
from mildspec import io
from mildspec.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mildspec", *map(str, args)],
        capture_output=True,
        text=True,
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestReadme:
    def test_command_line_block_names_every_command(self):
        section = README.read_text().split("## Command line", 1)[1]
        block = section.split("```sh", 1)[1].split("```", 1)[0]
        named = {line.split()[1] for line in block.splitlines() if line.startswith("mildspec ")}
        commands = next(
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        assert named == set(commands)

    def test_quick_tour_block_runs(self):
        section = README.read_text().split("## Quick tour", 1)[1]
        block = section.split("```python", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md: Quick tour", "exec"), {})


class TestVerifyCommand:
    def test_fourier_suite_passes(self):
        proc = run_cli("verify", "fourier", "--group", "24", "--seed", "7")
        assert proc.returncode == 0
        assert "[PASS]" in proc.stdout
        assert "[FAIL]" not in proc.stdout

    def test_all_suites_pass_on_product_group(self):
        proc = run_cli("verify", "all", "--group", "4,6", "--seed", "3")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_undersampled_lattice_counts_as_expected_negative(self):
        proc = run_cli("verify", "gabor", "--group", "16", "--a", "8", "--b", "8")
        assert proc.returncode == 0
        assert "undersampled lattice rejected" in proc.stdout

    @pytest.mark.parametrize("args", [
        ("all", "--group", "1"),
        ("gabor", "--group", "9", "--a", "3", "--b", "3"),
    ], ids=["Z1", "Z9"])
    def test_critical_lattice_that_is_a_frame_runs_the_frame_checks(self, args):
        proc = run_cli("verify", *args)
        assert proc.returncode == 0
        assert "lattice redundancy: value=1.000000e+00" in proc.stdout
        assert "[PASS] " + ("gabor: " if args[0] == "all" else "") + \
            "expansion reconstructs" in proc.stdout
        assert "undersampled" not in proc.stdout and "[FAIL]" not in proc.stdout

    def test_critical_lattice_that_is_not_a_frame_is_reported(self):
        proc = run_cli("verify", "gabor", "--group", "4", "--a", "2", "--b", "2")
        assert proc.returncode == 0
        assert "[INFO] critical lattice is not a frame" in proc.stdout
        assert "undersampled" not in proc.stdout and "frame bounds" not in proc.stdout

    @pytest.mark.parametrize("args, line", [
        (("--group", "4,4", "--a", "1,2", "--b", "1,4"), "[PASS] undersampled lattice rejected"),
        (("--group", "4,6", "--a", "2", "--b", "2"), "[INFO] critical lattice is not a frame"),
    ], ids=["undersampled-axis", "critical-axis"])
    def test_lattice_is_judged_per_axis(self, args, line):
        # redundancy 2 and 1.5, but one axis is under or at its critical density
        proc = run_cli("verify", "gabor", *args)
        assert proc.returncode == 0
        assert line in proc.stdout and "[FAIL]" not in proc.stdout
        assert ": PASS (5 checks)" in proc.stdout

    @pytest.mark.parametrize("suite", ["all", "mild"])
    @pytest.mark.parametrize("args", [
        ("--group", "16", "--a", "8", "--b", "8"),
        ("--group", "4,6", "--a", "2", "--b", "2"),
    ], ids=["undersampled", "critical-axis"])
    def test_lattice_that_is_not_a_frame_still_writes_a_report(self, tmp_path, suite, args):
        # the comb refinement metrics need the canonical dual; the other checks run
        report = tmp_path / "r.json"
        proc = run_cli("verify", suite, *args, "--report", report)
        assert proc.returncode == 0
        prefix = "mild: " if suite == "all" else ""
        assert f"[INFO] {prefix}lattice is not a frame: no comb refinement metrics" in proc.stdout
        assert "comb refinement monotone" not in proc.stdout
        assert json.loads(report.read_text())["passed"]

    def test_zero_group_is_usage_error(self):
        proc = run_cli("verify", "all", "--group", "0")
        assert proc.returncode == 2

    def test_report_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        p1 = run_cli("verify", "all", "--group", "24", "--seed", "7", "--report", out1)
        p2 = run_cli("verify", "all", "--group", "24", "--seed", "7", "--report", out2)
        assert p1.returncode == 0 and p2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["command"].startswith("verify")
        assert all(c["passed"] for c in report["checks"])


class TestVerifyCoverage:
    def test_every_suite_visits_every_subgroup(self, monkeypatch):
        from mildspec import verify
        from mildspec.groups import all_subgroups

        G = GroupSpec((16, 16))
        visited = {}
        # one per-subgroup call of each suite, whose last argument is the subgroup
        for suite, name in (("group", "quotient"), ("fourier", "comb_ft"), ("mild", "dirac_comb")):
            seen = visited[suite] = set()

            def counting(*args, _inner=getattr(verify, name), _seen=seen):
                _seen.add(args[-1].indices.tobytes())
                return _inner(*args)

            monkeypatch.setattr(verify, name, counting)
        checks = [c for suite in visited for c in verify.run_suite(suite, G, 4, 4, None).checks]
        assert len(all_subgroups(G)) == 83
        assert {suite: len(seen) for suite, seen in visited.items()} == dict.fromkeys(visited, 83)
        assert not any(c.name == "subgroups checked" for c in checks)

    def test_all_runs_each_suite_in_turn(self):
        from mildspec.verify import run_suite

        G = GroupSpec((8,))
        whole = run_suite("all", G, 2, 2, 2, seed=3).checks
        parts = [
            (f"{suite}: {c.name}", c.residual, c.threshold, c.passed)
            for suite in ("group", "fourier", "gabor", "mild", "approx")
            for c in run_suite(suite, G, 2, 2, 2, seed=3).checks
        ]
        assert [(c.name, c.residual, c.threshold, c.passed) for c in whole] == parts

    def test_subgroup_transforms_checked_on_every_subgroup(self):
        from mildspec.verify import verify_fourier

        checks = {c.name: c for c in verify_fourier(GroupSpec((4, 6)), seed=2)}
        assert checks["subgroup and quotient transforms match direct sums"].passed
        assert not any("skipped" in name for name in checks)

    def test_gabor_oracles_run_at_every_order(self):
        from mildspec.verify import verify_gabor

        small = {c.name: c for c in verify_gabor(GroupSpec((64,)), 2, 2)}
        assert small["structured frame operator matches dense oracle"].passed
        assert small["short-time transform matches defining sum"].passed
        assert not any("skipped" in name for name in small)
        # above order 128: the Janssen and Wexler-Raz routes and the sampled defining sum
        large = {c.name: c for c in verify_gabor(GroupSpec((256,)), 2, 2)}
        for name in GABOR_SECOND_ROUTES:
            assert large[name].passed and large[name].threshold is not None, name
        assert "structured frame operator matches dense oracle" not in large
        assert not any("skipped" in name for name in large)

    def test_tolerance_overrides_the_second_route_thresholds(self, tmp_path):
        report = tmp_path / "report.json"
        proc = run_cli("verify", "gabor", "--group", "256", "--seed", "1",
                       "--tolerance", "1e-30", "--report", report)
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        for name in GABOR_SECOND_ROUTES + GABOR_BOUND_GATES:
            assert checks[name]["threshold"] == 1e-30, name
        # a residual at roundoff exceeds 1e-30
        assert proc.returncode == 1
        assert not checks["structured frame operator matches Janssen"]["passed"]


GABOR_SECOND_ROUTES = [
    "structured frame operator matches Janssen",
    "dual window satisfies Wexler-Raz",
    "canonical coefficients have minimal norm",
    "short-time transform matches defining sum",
    "frame bounds match adjoint Gram eigenvalues",
    "canonical dual matches adjoint Gram dual",
]
GABOR_BOUND_GATES = [
    "lower frame bound above Janssen estimate",
    "upper frame bound below Janssen estimate",
]


class TestTransformCommands:
    def test_dft_roundtrip_through_files(self, tmp_path, rng):
        G = GroupSpec((24,))
        f = random_signal(G, rng)
        src = tmp_path / "f.json"
        io.save_signal(src, f)
        hat, back = tmp_path / "hat.json", tmp_path / "back.json"
        assert run_cli("dft", src, "--out", hat).returncode == 0
        assert run_cli("dft", hat, "--out", back, "--inverse").returncode == 0
        g = io.load_signal(back)
        assert np.max(np.abs(g.values - f.values)) < 1e-10

    def test_stft_grid_shape(self, tmp_path, rng):
        G = GroupSpec((8,))
        src = tmp_path / "f.json"
        io.save_signal(src, random_signal(G, rng))
        out = tmp_path / "grid.csv"
        assert run_cli("stft", src, "--out", out).returncode == 0
        rows = read_rows(out)
        assert len(rows) == 1 + 64  # header plus one row per (t, s) pair

    def test_gabor_analyze_synth_roundtrip(self, tmp_path, rng):
        G = GroupSpec((16,))
        f = random_signal(G, rng)
        src = tmp_path / "f.json"
        io.save_signal(src, f)
        coef, back = tmp_path / "c.json", tmp_path / "back.json"
        assert (
            run_cli("gabor", "analyze", src, "--a", "2", "--b", "2", "--out", coef)
            .returncode
            == 0
        )
        assert run_cli("gabor", "synth", coef, "--out", back).returncode == 0
        g = io.load_signal(back)
        assert np.max(np.abs(g.values - f.values)) / f.norm2 < 1e-9

    @pytest.mark.parametrize("flags, requested", [
        (["--a", "4", "--b", "4"], "Z16 a=(4,) b=(4,)"),
        (["--b", "4"], "Z16 a=(2,) b=(4,)"),
        (["--a", "2,2"], "Z16 a=(2, 2) b=(2,)"),
        (["--group", "12"], "Z12 a=(2,) b=(2,)"),
    ], ids=["both", "b", "axis-count", "group"])
    def test_gabor_synth_request_must_match_the_file_lattice(self, tmp_path, rng, flags, requested):
        G = GroupSpec((16,))
        src, coef, out = tmp_path / "f.json", tmp_path / "c.json", tmp_path / "x.json"
        io.save_signal(src, random_signal(G, rng))
        assert run_cli("gabor", "analyze", src, "--a", "2", "--b", "2", "--out", coef).returncode == 0
        proc = run_cli("gabor", "synth", coef, *flags, "--out", out)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [
            f"error: {coef}: file lattice Z16 a=(2,) b=(2,) does not match requested {requested}"
        ]
        assert not out.exists()
        # the file's own lattice, given or left out, synthesizes as before
        assert run_cli("gabor", "synth", coef, "--group", "16", "--a", "2", "--b", "2",
                       "--out", out).returncode == 0

    def test_restrict_then_extend_recovers_lattice_values(self, tmp_path, rng):
        G = GroupSpec((16,))
        f = random_signal(G, rng)
        src = tmp_path / "f.json"
        io.save_signal(src, f)
        sampled, rebuilt = tmp_path / "s.json", tmp_path / "e.json"
        assert run_cli("restrict", src, "--lattice", "4", "--out", sampled).returncode == 0
        assert (
            run_cli(
                "extend", sampled, "--group", "16", "--lattice", "4", "--out", rebuilt
            ).returncode
            == 0
        )
        g = io.load_signal(rebuilt)
        lam = grid_subgroup(G, 4)
        assert np.array_equal(g.values[lam.indices], f.values[lam.indices])

    def test_extend_reads_the_csv_samples_restrict_writes(self, tmp_path, rng):
        src = tmp_path / "f.json"
        io.save_signal(src, random_signal(GroupSpec((16,)), rng))
        outs = []
        for suffix in (".json", ".csv"):
            sampled, rebuilt = tmp_path / f"s{suffix}", tmp_path / f"e{suffix}.json"
            assert run_cli("restrict", src, "--lattice", "4", "--out", sampled).returncode == 0
            proc = run_cli("extend", sampled, "--group", "16", "--lattice", "4", "--out", rebuilt)
            assert proc.returncode == 0, proc.stderr
            outs.append(rebuilt.read_bytes())
        assert outs[0] == outs[1]
        # samples on another grid than --group and --lattice name: a group mismatch
        proc = run_cli("extend", tmp_path / "s.json", "--group", "16", "--lattice", "2",
                       "--out", tmp_path / "wrong.json")
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [
            f"error: {tmp_path / 's.json'}: file group (4,) does not match requested (8,)"
        ]
        assert not (tmp_path / "wrong.json").exists()

    def test_weil_output_lives_on_quotient(self, tmp_path, rng):
        G = GroupSpec((12,))
        f = random_signal(G, rng)
        src = tmp_path / "f.json"
        io.save_signal(src, f)
        out = tmp_path / "q.json"
        assert run_cli("weil", src, "--lattice", "3", "--out", out).returncode == 0
        q = io.load_signal(out)
        assert q.group.moduli == (3,)
        assert abs(q.values.sum() - f.values.sum()) < 1e-12


class TestExitCodes:
    def test_malformed_json_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("dft", bad, "--out", tmp_path / "x.json")
        assert proc.returncode == 3

    def test_missing_file_is_schema_error(self, tmp_path):
        proc = run_cli("dft", tmp_path / "absent.json", "--out", tmp_path / "x.json")
        assert proc.returncode == 3

    def test_csv_without_group_is_schema_error(self, tmp_path, rng):
        G = GroupSpec((8,))
        src = tmp_path / "f.csv"
        io.save_signal(src, random_signal(G, rng))
        proc = run_cli("dft", src, "--out", tmp_path / "x.json")
        assert proc.returncode == 3

    def test_non_divisor_lattice_is_group_mismatch(self, tmp_path, rng):
        G = GroupSpec((8,))
        src = tmp_path / "f.json"
        io.save_signal(src, random_signal(G, rng))
        proc = run_cli("restrict", src, "--lattice", "5", "--out", tmp_path / "x.json")
        assert proc.returncode == 4

    @pytest.mark.parametrize(
        "group,size", [("24", 8), ([True, 4], 4), ([24.0], 24)], ids=["string", "bool", "float"]
    )
    def test_non_integer_group_is_schema_error(self, tmp_path, group, size):
        # each file would load as a coerced group of this size if it were accepted
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"group": group, "values": [[1.0, 0.0]] * size}))
        proc = run_cli("dft", bad, "--out", tmp_path / "x.json")
        assert proc.returncode == 3
        assert "bad 'group'" in proc.stderr

    def test_group_override_mismatch(self, tmp_path, rng):
        G = GroupSpec((8,))
        src = tmp_path / "f.json"
        io.save_signal(src, random_signal(G, rng))
        proc = run_cli("dft", src, "--group", "12", "--out", tmp_path / "x.json")
        assert proc.returncode == 4

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([(0, 1), (1, 2), (2, 3), (5, 4)], "line 5: i0=5 is outside [0, 4)"),
            ([(0, 1), (1, 2), (1, 3), (3, 4)], "line 4: element (1,) is given twice"),
            ([(0, 1), (1, 2), (3, 4)], "element (2,) has no row"),
            ([(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)], "element (3,) is given twice"),
            ([(0, 1), (1, "nan"), (2, 3), (3, 4)], "line 3: 're' is not finite"),
            ([(0, 1), (1, 2), (2, "-inf"), (3, 4)], "line 4: 're' is not finite"),
        ],
        ids=["out-of-range", "duplicate", "missing", "extra-row", "nan", "inf"],
    )
    def test_strict_csv_signal(self, tmp_path, rows, message):
        src = tmp_path / "f.csv"
        src.write_text("i0,re,im\n" + "".join(f"{i},{re},0\n" for i, re in rows))
        proc = run_cli("dft", src, "--group", "4", "--out", tmp_path / "x.json")
        assert proc.returncode == 3
        assert message in proc.stderr

    def test_csv_rows_in_any_order_load(self, tmp_path):
        src = tmp_path / "f.csv"
        src.write_text("i0,i1,re,im\n" + "".join(
            f"{i},{j},{i + 10 * j},{-j}\n" for j in range(3) for i in range(2)
        ))
        f = io.load_signal(src, group=GroupSpec((2, 3)))
        assert f.values.tolist() == [i + 10 * j - 1j * j for i in range(2) for j in range(3)]

    def test_non_finite_signal_json_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"group": [4], "values": [[1, 0], [NaN, 0], [1, 0], [1, 0]]}')
        proc = run_cli("dft", bad, "--out", tmp_path / "x.json")
        assert proc.returncode == 3
        assert "'values': entry 1 is not finite" in proc.stderr

    def test_non_finite_coefficients_are_schema_error(self, tmp_path, rng):
        src = tmp_path / "f.json"
        coeffs = tmp_path / "c.json"
        io.save_signal(src, random_signal(GroupSpec((8,)), rng))
        assert run_cli("gabor", "analyze", src, "--a", "2", "--b", "2",
                       "--out", coeffs).returncode == 0
        data = json.loads(coeffs.read_text())
        data["coeffs"][5][1] = float("inf")
        coeffs.write_text(json.dumps(data))
        proc = run_cli("gabor", "synth", coeffs, "--out", tmp_path / "x.json")
        assert proc.returncode == 3
        assert "'coeffs': entry 5 is not finite" in proc.stderr

    def test_non_finite_sequence_member_is_schema_error(self, tmp_path):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({
            "group": [2],
            "members": [[[1, 0], [0, 0]], [[1, 0], [float("nan"), 0]]],
            "limit": [[1, 0], [0, 0]],
        }))
        proc = run_cli("mild-converge", seq)
        assert proc.returncode == 3
        assert "member 1: entry 1 is not finite" in proc.stderr

    @pytest.mark.parametrize("name, data, args, message", [
        ("f.json", b'\xff\xfe{"group": [2], "values": [[1, 2], [3, 4]]}', ["dft"],
         "not UTF-8 text"),
        ("f.csv", b"i0,re,im\n0,1,\xff\n", ["dft", "--group", "1"], "not UTF-8 text"),
        ("f.csv", b"i0,re,im\r\n0," + b"1" * 140000 + b",0\r\n1,0,0\r\n", ["dft", "--group", "2"],
         "line 2: field larger than field limit"),
        ("f.json", b'{"group": [2], "values": ' + b"[" * 5000 + b"]" * 5000 + b"}", ["dft"],
         "not valid JSON (nested too deeply)"),
        ("s.json", b'{"group": [2], "members": [' + b"[" * 5000 + b"]" * 5000 + b"]}",
         ["mild-converge"], "not valid JSON (nested too deeply)"),
    ], ids=["json-bytes", "csv-bytes", "csv-long-field", "deep-values", "deep-members"])
    def test_unreadable_input_is_schema_error_naming_the_file(self, tmp_path, name, data,
                                                              args, message):
        src = tmp_path / name
        src.write_bytes(data)
        proc = run_cli(args[0], src, *args[1:], "--out", tmp_path / "x.json")
        assert proc.returncode == 3
        assert f"error: {src}: {message}" in proc.stderr

    @pytest.mark.parametrize("row, message", [
        ("1," + "x" * 100000 + ",0", "'re' is missing or malformed"),
        ("1.5,1,0", "'i0' is missing or malformed"),
        ("1,1", "'im' is missing or malformed"),
    ], ids=["long-field", "float-coordinate", "short-row"])
    def test_bad_csv_field_is_named_not_echoed(self, tmp_path, row, message):
        src = tmp_path / "f.csv"
        src.write_text(f"i0,re,im\n0,1,0\n{row}\n2,1,0\n3,1,0\n")
        proc = run_cli("dft", src, "--group", "4", "--out", tmp_path / "x.json")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [f"error: {src}: line 3: {message}"]

    def test_group_over_enumeration_bound_is_domain_rejection(self):
        proc = run_cli("verify", "group", "--group", "8192")
        assert proc.returncode == 1
        assert "exceeds the enumeration bound 4096" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_subgroup_count_over_enumeration_bound_is_domain_rejection(self):
        # (Z2)^8 has order 256 but 417199 subgroups
        proc = run_cli("verify", "group", "--group", ",".join(["2"] * 8))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: subgroup count of Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2 exceeds the enumeration bound 4096"
        ]

    def test_group_order_beyond_array_indices_is_schema_error(self, tmp_path):
        # a trivial lattice on a huge group used to reach the window with an OverflowError
        coeffs = tmp_path / "c.json"
        n = 10**400
        coeffs.write_text(json.dumps(
            {"group": [n], "lattice": {"a": [n], "b": [n]}, "coeffs": [[1, 0]]}
        ))
        proc = run_cli("gabor", "synth", coeffs, "--out", tmp_path / "x.json")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"error: {coeffs}: bad 'group' (group order is above {np.iinfo(np.intp).max}, "
            "the largest array index)"
        ]

    def test_strings_and_booleans_in_pairs_are_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"group": [4], "values": [["1.5", true], [0, "-2"], [1, 0], [1, 0]]}')
        proc = run_cli("dft", bad, "--out", tmp_path / "x.json")
        assert proc.returncode == 3
        assert "'values': entry 0 is [\"1.5\", true], not a pair of numbers" in proc.stderr

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_tolerance_must_be_finite_and_non_negative(self, value):
        proc = run_cli("verify", "group", "--group", "4", "--tolerance", value)
        assert proc.returncode == 2
        assert "tolerance must be finite and >= 0" in proc.stderr

    def test_unknown_demo_is_usage_error(self):
        proc = run_cli("demo", "nonsense")
        assert proc.returncode == 2
        assert "invalid choice: 'demo'" in proc.stderr

    def test_no_arguments_is_usage_error(self):
        assert run_cli().returncode == 2


def _tiny_inputs(d, argv):
    """Files for one run of every command on Z8, and argv with "@name" as a path in d."""
    G = GroupSpec((8,))
    f = random_signal(G, np.random.default_rng(0))
    io.save_signal(d / "f.json", f)
    io.save_signal(d / "half.json", Signal(GroupSpec((4,)), f.values[::2]))
    io.save_coefficients(d / "c.json", GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2)).analyze(f))
    pairs = [[float(v.real), float(v.imag)] for v in f.values]
    (d / "seq.json").write_text(json.dumps({"group": [8], "members": [pairs, pairs], "limit": pairs}))
    return [str(d / a[1:]) if a.startswith("@") else a for a in argv]


class TestOutputSuffix:
    """A fixed-format writer refuses a path whose suffix names the other format."""

    @pytest.mark.parametrize("argv, out, written", [
        (["stft", "@f.json", "--out"], "grid.json", "CSV"),
        (["approx", "--group", "32", "--out"], "e.JSON", "CSV"),
        (["gabor", "analyze", "@f.json", "--out"], "c.csv", "JSON"),
        (["verify", "all", "--group", "8", "--report"], "r.csv", "JSON"),
        (["mild-converge", "@seq.json", "--out"], "m.Csv", "JSON"),
    ], ids=["stft", "approx", "gabor-analyze", "verify", "mild-converge"])
    def test_other_format_suffix_is_usage_error(self, tmp_path, argv, out, written):
        out = tmp_path / out
        proc = run_cli(*_tiny_inputs(tmp_path, argv), out)
        assert proc.returncode == 2
        other = ".csv" if written == "JSON" else ".json"
        assert proc.stderr.splitlines() == [
            f"error: {out}: this command writes {written}; give a path not ending in {other}"]
        # refused before any work: no check ran, nothing was written
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("name", ["s.csv", "s.JSON", "s.txt"])
    def test_signal_outputs_choose_their_format_by_suffix(self, tmp_path, name):
        out = tmp_path / name
        argv = _tiny_inputs(tmp_path, ["gabor", "synth", "@c.json", "--out"])
        assert run_cli(*argv, out).returncode == 0
        assert io.load_signal(out, group=GroupSpec((8,))).group.moduli == (8,)


# the mildspec modules a command loads; a count instead of a clock
_BASE = ["cli", "errors", "groups", "io", "signals"]
_DFT_SET = sorted([*_BASE, "fourier"])
_GABOR_SET = sorted([*_BASE, "gabor"])
_EVERY = sorted([*_DFT_SET, "approx", "gabor", "mild", "reference", "verify"])
_PROBE = """
import json, sys
from mildspec.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("mildspec.")),
                  "numpy.random" in sys.modules]))
"""


class TestModulesLoaded:
    @pytest.mark.parametrize("argv, modules", [
        (["dft", "@f.json", "--out", "@o.json"], _DFT_SET),
        (["restrict", "@f.json", "--lattice", "2", "--out", "@o.json"], _DFT_SET),
        (["weil", "@f.json", "--lattice", "2", "--out", "@o.json"], _DFT_SET),
        (["gabor", "analyze", "@f.json", "--out", "@o.json"], _GABOR_SET),
        (["gabor", "synth", "@c.json", "--out", "@o.json"], _GABOR_SET),
        (["stft", "@f.json", "--out", "@o.csv"], _GABOR_SET),
        (["extend", "@half.json", "--group", "8", "--lattice", "2", "--out", "@o.json"],
         sorted([*_DFT_SET, "approx"])),
        (["mild-converge", "@seq.json", "--out", "@o.json"], sorted([*_DFT_SET, "gabor", "mild"])),
        (["verify", "all", "--group", "4"], _EVERY),
    ], ids=["dft", "restrict", "weil", "gabor-analyze", "gabor-synth", "stft", "extend",
            "mild-converge", "verify-all"])
    def test_command_loads_only_its_modules(self, tmp_path, argv, modules):
        proc = subprocess.run([sys.executable, "-c", _PROBE, *_tiny_inputs(tmp_path, argv)],
                              capture_output=True, text=True)
        code, loaded, random_loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        assert loaded == [f"mildspec.{m}" for m in modules]
        assert not random_loaded

    def test_verify_all_loads_every_module(self):
        package = Path(__file__).resolve().parents[1] / "src" / "mildspec"
        every = sorted(p.stem for p in package.glob("*.py") if not p.stem.startswith("__"))
        assert every == _EVERY


class TestMildConverge:
    def test_sequence_report(self, tmp_path, rng):
        G = GroupSpec((16,))
        limit = random_signal(G, rng)
        members = [
            limit + random_signal(G, rng) * (0.5**k) for k in range(4)
        ]
        seq_file = tmp_path / "seq.json"
        payload = {
            "group": [16],
            "members": [
                [[float(v.real), float(v.imag)] for v in m.values] for m in members
            ],
        }
        seq_file.write_text(json.dumps(payload))
        limit_file = tmp_path / "limit.json"
        io.save_signal(limit_file, limit)
        report_file = tmp_path / "report.json"
        proc = run_cli(
            "mild-converge",
            seq_file,
            "--limit",
            limit_file,
            "--out",
            report_file,
        )
        assert proc.returncode == 0
        report = json.loads(report_file.read_text())
        for key in ("d_pair", "d_stft", "d_coeff", "equivalence_ratios", "monotone"):
            assert key in report
        assert len(report["d_pair"]) == 4
        # the default lattice of Z16, a = b = 2, is written into the report
        assert report["lattice"] == {"a": [2], "b": [2]}
        assert "n=0" in proc.stdout

    def test_missing_limit_everywhere_is_schema_error(self, tmp_path, rng):
        G = GroupSpec((8,))
        payload = {
            "group": [8],
            "members": [
                [[float(v.real), float(v.imag)] for v in random_signal(G, rng).values]
            ],
        }
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps(payload))
        assert run_cli("mild-converge", seq_file).returncode == 3


class TestApproxCommand:
    def test_error_chain_decreases(self, tmp_path):
        out = tmp_path / "errors.csv"
        proc = run_cli(
            "approx", "--group", "256", "--lattice", "16", "--target", "gauss",
            "--out", out,
        )
        assert proc.returncode == 0
        rows = read_rows(out)[1:]
        gaps = [int(r[0]) for r in rows]
        errs = [float(r[1]) for r in rows]
        assert gaps == [16, 8, 4, 2, 1]
        assert all(b < a for a, b in zip(errs[:-1], errs[1:]) if a > 0)

    def test_each_even_step_halves_until_none_is_even(self, tmp_path):
        # the default lattice of Z2xZ4xZ8 is 1x2x4: its odd first step stays
        out = tmp_path / "errors.csv"
        proc = run_cli("approx", "--group", "2,4,8", "--out", out)
        assert proc.returncode == 0
        assert [r[0] for r in read_rows(out)[1:]] == ["1x2x4", "1x1x2", "1x1x1"]

    def test_dirac_target(self):
        proc = run_cli("approx", "--group", "32", "--lattice", "4", "--target", "dirac")
        assert proc.returncode == 0


def _malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    return bad


def _signal(tmp_path):
    src = tmp_path / "f.json"
    io.save_signal(src, random_signal(GroupSpec((8,)), np.random.default_rng(0)))
    return src


def _overflowing_signal(tmp_path, order=2):
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"group": [order], "values": [[1e308, 0]] * order}))
    return src


class TestExitCodeTable:
    """One case per row of cli._EXIT_CODES, in table order."""

    @pytest.mark.parametrize("make_args, code", [
        # SchemaError
        (lambda tmp: ["dft", _malformed(tmp), "--out", tmp / "x.json"], 3),
        # GroupMismatchError
        (lambda tmp: ["restrict", _signal(tmp), "--lattice", "5", "--out", tmp / "x.json"], 4),
        # domain rejections: SupportViolation, NotPeriodic, NotAFrame, DomainError, MemoryError
        (lambda tmp: ["gabor", "analyze", _signal(tmp), "--a", "4", "--b", "4",
                      "--out", tmp / "x.json"], 1),
        # OSError: the input path is a directory
        (lambda tmp: ["dft", tmp, "--out", tmp / "x.json"], 3),
        # any other ValueError: the suites' seeded stream rejects a negative seed
        (lambda tmp: ["verify", "group", "--group", "4", "--seed", "-1"], 2),
    ], ids=["schema", "group-mismatch", "domain", "os-error", "value-error"])
    def test_row(self, tmp_path, make_args, code):
        proc = run_cli(*make_args(tmp_path))
        assert proc.returncode == code
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert proc.stderr.splitlines()[-1] == (
                "error: seed must be a non-negative integer, got seed=-1")

    @pytest.mark.parametrize("command, order", [("dft", 2), ("stft", 4)])
    def test_overflow_is_a_domain_rejection(self, tmp_path, command, order):
        # the inputs are finite, their transforms are not
        out = tmp_path / "x.csv"
        proc = run_cli(command, _overflowing_signal(tmp_path, order), "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: values are not finite: the result overflowed, or inf/nan was given"]
        assert not out.exists()

    def test_overflowing_metric_is_a_domain_rejection(self, tmp_path):
        # a finite member whose deviation metrics overflow
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({
            "group": [8], "members": [[[1e308, 0]] * 8], "limit": [[0, 0]] * 8}))
        out = tmp_path / "report.json"
        proc = run_cli("mild-converge", seq, "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: deviation metrics are not finite: the result overflowed"]
        assert not out.exists()

    def test_failed_allocation_is_a_domain_rejection(self, tmp_path, monkeypatch, capsys):
        # the command raises what NumPy raises for a group too large to hold, without allocating
        from mildspec import cli

        message = ("Unable to allocate 1.00 TiB for an array with shape (1099511627776,) "
                   "and data type bool")

        def refuse(args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_extend", refuse)
        out = tmp_path / "o.json"
        code = main(["extend", str(tmp_path / "two.json"), "--group", "1099511627776",
                     "--lattice", "549755813888", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_one_case_per_row(self):
        from mildspec.cli import _EXIT_CODES

        assert [c for _, c in _EXIT_CODES] == [3, 4, 1, 3, 2]



# option values for fuzzed argv: groups stay at order <= 64; "@name" is a file
# of the fixture directory, valid, malformed, missing or a directory
_GROUPS = ["1", "4", "8", "6", "2,3", "4,4", "8,8", "64", "-4", "2,,3"]
_INTS = ["0", "-3", "1", "2", "3", "4", "7", "8", str(10 ** 30), "2,3", "1,1,1", "1x2", "two"]
_FLOATS = ["0", "1e-12", "1e300", "inf"]
_SHAPES = ["triangle", "bspline2", "indicator", "square"]
_FILES = ["@sig8.json", "@sig8.csv", "@sig6.json", "@coeffs.json", "@seq.json", "@samples.json",
          "@bad.json", "@missing.json", "@dir"]
_WINDOWS = ["gauss", "@sig8.json", "@sig6.json", "@bad.json", "@missing.json", "@dir"]
_OUTS = ["@out.json", "@out.csv", "@dir", "@nodir/out.json"]
_TF = {"--group": _GROUPS, "--a": _INTS, "--b": _INTS}
# subcommand -> (pools of its positionals, pool of each option; None for a switch)
_ARGV = {
    "verify": ([["group", "fourier", "gabor", "mild", "approx", "all", "none"]],
               {**_TF, "--seed": _INTS, "--lattice": _INTS, "--tolerance": _FLOATS,
                "--report": _OUTS}),
    "dft": ([_FILES], {"--out": _OUTS, "--inverse": None, "--unitary": None, "--group": _GROUPS}),
    "stft": ([_FILES], {"--window": _WINDOWS, "--out": _OUTS, "--group": _GROUPS}),
    "gabor": ([["analyze", "synth", "both"], _FILES],
              {**_TF, "--window": _WINDOWS, "--out": _OUTS}),
    "weil": ([_FILES], {"--lattice": _INTS, "--out": _OUTS, "--group": _GROUPS}),
    "restrict": ([_FILES], {"--lattice": _INTS, "--out": _OUTS, "--group": _GROUPS}),
    "extend": ([_FILES], {"--group": _GROUPS, "--lattice": _INTS, "--shape": _SHAPES,
                          "--out": _OUTS}),
    "mild-converge": ([_FILES], {"--limit": _FILES, "--out": _OUTS}),
    "approx": ([], {"--group": _GROUPS, "--lattice": _INTS, "--shape": _SHAPES,
                    "--target": ["gauss", "dirac", *_FILES], "--out": _OUTS}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_ARGV)))
    positionals, options = _ARGV[command]
    argv = [command, *(draw(st.sampled_from(pool)) for pool in positionals)]
    for flag, pool in options.items():
        # each option is left out about as often as any one of its values is drawn
        value = draw(st.sampled_from([False, True] if pool is None else [None, *pool]))
        if value is True:
            argv.append(flag)
        elif value:
            argv += [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    G = GroupSpec((8,))
    f = random_signal(G, np.random.default_rng(0))
    io.save_signal(d / "sig8.json", f)
    io.save_signal(d / "sig8.csv", f)
    io.save_signal(d / "sig6.json", random_signal(GroupSpec((2, 3)), np.random.default_rng(1)))
    system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
    io.save_coefficients(d / "coeffs.json", system.analyze(f))
    pairs = [[float(v.real), float(v.imag)] for v in f.values]
    (d / "seq.json").write_text(json.dumps({"group": [8], "members": [pairs, pairs], "limit": pairs}))
    io.save_signal(d / "samples.json", Signal(GroupSpec((4,)), f.values[::2]))
    (d / "bad.json").write_text("{not json")
    (d / "dir").mkdir()
    return d


class TestFuzzedArgv:
    @settings(max_examples=800)
    @given(_argv())
    def test_every_argv_exits_with_a_documented_code(self, fuzz_dir, argv):
        argv = [str(fuzz_dir / a[1:]) if a.startswith("@") else a for a in argv]
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3, 4), (argv, err.getvalue())
