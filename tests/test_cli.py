import argparse
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mildspec import GroupSpec, grid_subgroup, random_signal
from mildspec import io
from mildspec.cli import build_parser

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
    def test_subgroup_coverage_is_reported(self):
        from mildspec.verify import run_suite

        for suite in ("group", "fourier"):
            full = run_suite(suite, GroupSpec((24,)), None, None, None).checks
            rich = run_suite(suite, GroupSpec((16, 16)), None, None, None).checks
            assert [c.residual for c in full if c.name == "subgroups checked"] == [1.0]
            # every fourth of the 83 subgroups of Z16xZ16, plus the last: 22
            assert [c.residual for c in rich if c.name == "subgroups checked"] == [22 / 83]

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
        assert checks["subgroups checked"].residual == 1.0
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

    def test_group_over_enumeration_bound_is_domain_rejection(self):
        proc = run_cli("verify", "group", "--group", "8192")
        assert proc.returncode == 1
        assert "exceeds the enumeration bound 4096" in proc.stderr
        assert "Traceback" not in proc.stderr

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
        # domain rejections: SupportViolation, NotPeriodic, NotAFrame, DomainError
        (lambda tmp: ["gabor", "analyze", _signal(tmp), "--a", "4", "--b", "4",
                      "--out", tmp / "x.json"], 1),
        # OSError: the input path is a directory
        (lambda tmp: ["dft", tmp, "--out", tmp / "x.json"], 3),
        # any other ValueError: NumPy rejects a negative seed
        (lambda tmp: ["verify", "group", "--group", "4", "--seed", "-1"], 2),
    ], ids=["schema", "group-mismatch", "domain", "os-error", "value-error"])
    def test_row(self, tmp_path, make_args, code):
        proc = run_cli(*make_args(tmp_path))
        assert proc.returncode == code
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in proc.stderr

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

    def test_one_case_per_row(self):
        from mildspec.cli import _EXIT_CODES

        assert [c for _, c in _EXIT_CODES] == [3, 4, 1, 3, 2]

