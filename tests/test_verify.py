import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mildspec import (
    GaborSystem, GroupSpec, Signal, TFLattice, finite_gaussian, random_signal, reference)
from mildspec.cli import main
from mildspec.verify import (
    _ORACLE_MAX_ORDER, _judged, _product_checks, _Stream, run_suite, verify_approx,
    verify_fourier, verify_gabor, verify_group, verify_mild)

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected_verify.json").read_text())
PRODUCT_CHECKS = ("product signal transform factorizes", "product signal norm factorizes")


class TestProductChecks:
    @settings(max_examples=40)
    @given(st.data())
    def test_factorizations_hold_for_any_partner(self, data):
        moduli = data.draw(
            st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
                lambda m: math.prod(m) <= 64),
            label="moduli",
        )
        m = data.draw(st.integers(1, 4), label="partner")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        u = random_signal(GroupSpec(tuple(moduli)), rng)
        v = random_signal(GroupSpec((m,)), rng)
        checks = _judged(_product_checks)(u, v)
        assert [c.name for c in checks] == list(PRODUCT_CHECKS)
        assert all(c.passed and c.threshold == 1e-10 for c in checks)

    @pytest.mark.parametrize("moduli, step", [((4, 8), 2), ((2, 4, 8), 2)], ids=str)
    def test_checked_on_groups_of_several_axes(self, moduli, step):
        checks = {c.name: c for c in verify_approx(GroupSpec(moduli), step, seed=1)}
        for name in PRODUCT_CHECKS:
            assert checks[name].passed and checks[name].threshold == 1e-10


# every name a suite yields as a flag: a verdict, held to threshold 0 under any tolerance
FLAGS = {
    "inverse element cancels", "annihilator order duality", "biduality",
    "quotient partitions the group", "comb transforms to dual comb",
    "undersampled lattice rejected", "frame bounds positive",
    "distance vanishes only at coincidence", "aperiodic input rejected",
    "comb spectrum sits on the annihilator", "extension interpolates the samples",
}


class TestRunner:
    # the command line's default lattices; Z2xZ4xZ8 takes its period on Z4, its first composite axis
    @pytest.mark.parametrize("moduli, ab, step, absent", [
        ((24,), 2, 8, {"undersampled lattice rejected"}),
        ((2, 4, 8), (1, 1, 2), (1, 2, 4), {"undersampled lattice rejected"}),
    ], ids=["Z24", "Z2xZ4xZ8"])
    def test_tolerance_replaces_every_gate_threshold_and_nothing_else(
            self, moduli, ab, step, absent):
        G = GroupSpec(moduli)
        plain = run_suite("all", G, ab, ab, step, seed=1).checks
        report = run_suite("all", G, ab, ab, step, seed=1, tolerance=0.5)
        loose = report.checks
        assert [(c.name, c.residual, c.passed) for c in loose] == [
            (c.name, c.residual, c.passed) for c in plain]
        for before, after in zip(plain, loose):
            name = before.name.split(": ", 1)[1]
            if before.threshold is None:
                assert after.threshold is None, name
            elif name in FLAGS:
                assert before.threshold == after.threshold == 0.0, name
            else:
                assert after.threshold == 0.5, name
        assert FLAGS - {c.name.split(": ", 1)[1] for c in plain} == absent
        # each public suite takes the tolerance as a keyword and gives the rows of "all"
        direct = [
            *verify_group(G, seed=1, tolerance=0.5),
            *verify_fourier(G, seed=1, tolerance=0.5),
            *verify_gabor(G, ab, ab, seed=1, tolerance=0.5),
            *verify_mild(G, ab, ab, seed=1, tolerance=0.5),
            *verify_approx(G, step, seed=1, tolerance=0.5),
        ]
        assert [c._replace(name=c.name.split(": ", 1)[1]) for c in loose] == direct
        # a check is its report row
        assert report.to_json_dict()["checks"] == [c._asdict() for c in loose]

    def test_lines_of_a_gate_a_flag_and_an_info_check(self):
        checks = {c.name: c for c in verify_approx(GroupSpec((24,)), 8, seed=1, tolerance=0.5)}
        assert [checks[name].line() for name in (
            "recovery error shrinks as the lattice refines",
            "extension interpolates the samples",
            "sampled-l1 to concentration-norm ratio",
        )] == [
            "[PASS] recovery error shrinks as the lattice refines: "
            "residual=-1.540625e-02 threshold=5.0e-01",
            "[PASS] extension interpolates the samples: residual=0.000000e+00 threshold=0.0e+00",
            "[INFO] sampled-l1 to concentration-norm ratio: value=5.796464e-03",
        ]

    def test_suites_are_looked_up_on_the_module(self, monkeypatch):
        # a tracer wraps a suite by replacing the module attribute, so a suite
        # reached any other way would run without its span
        from mildspec import verify

        calls = []

        def recording(name):
            suite = getattr(verify, name)

            def run(*args, **kwargs):
                calls.append(name)
                return suite(*args, **kwargs)
            return run

        for name in ("verify_group", "verify_gabor"):
            monkeypatch.setattr(verify, name, recording(name))
        for suite in ("group", "gabor", "all"):
            run_suite(suite, GroupSpec((24,)), 2, 2, 8, seed=1)
        assert calls == ["verify_group", "verify_gabor", "verify_group", "verify_gabor"]


def _in_a_process(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestSeededStream:
    DRAWS = ("from mildspec.verify import _Stream\n"
             "for seed, part in ((0, 0), (7, 0), (7, 1)):\n"
             "    s = _Stream(seed, part)\n"
             "    print(s.standard_normal(9).tobytes().hex(),\n"
             "          s.integers(3, 11, (2, 5)).tobytes().hex())\n")

    def test_a_seed_gives_the_same_draws_in_every_process(self):
        first, second = _in_a_process(self.DRAWS), _in_a_process(self.DRAWS)
        assert first == second
        # different seeds, and the two parts of one seed, draw apart
        assert len(set(first.split())) == 6

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
    def test_normals_have_mean_zero_and_variance_one(self, seed):
        n = 10**5
        x = _Stream(seed).standard_normal(n)
        assert x.shape == (n,) and x.dtype == np.float64
        # 5 sigma: the mean has variance 1/n, the sample variance about 2/n
        assert abs(x.mean()) < 5 / math.sqrt(n)
        assert abs(x.var() - 1.0) < 5 * math.sqrt(2 / n)

    @pytest.mark.parametrize("lo, hi, size", [(0, 1, 5), (0, 24, (200, 3)), (-3, 4, (2, 256)),
                                              (0, 2**40, (3, 1, 2))], ids=str)
    def test_integers_stay_in_range_with_the_requested_shape(self, lo, hi, size):
        x = _Stream(5).integers(lo, hi, size)
        assert x.shape == np.empty(size).shape and x.dtype == np.int64
        assert x.min() >= lo and x.max() < hi
        if hi - lo <= 24:
            assert set(x.ravel().tolist()) == set(range(lo, hi))

    def test_a_verify_process_imports_no_numpy_random_or_hashlib(self):
        # Z256 is above the oracle cap, so the cell stream runs too
        assert 256 > _ORACLE_MAX_ORDER
        out = _in_a_process(
            "import contextlib, io, sys\n"
            "from mildspec.cli import main\n"
            "for args in (['verify', 'all', '--group', '24'],\n"
            "             ['verify', 'gabor', '--group', '256']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(args) == 0\n"
            "    print(args[1], *[m for m in ('numpy.random', 'secrets', 'hashlib', '_hashlib')\n"
            "                     if m in sys.modules])\n")
        assert out.splitlines() == ["all", "gabor"]


class TestCapLines:
    NAMES = ("defining-sum cells sampled (share of |G|^2)",
             "dense frame oracle not built above order cap")

    def test_above_the_oracle_cap_the_report_says_what_it_did_not_run(self):
        checks = {c.name: c for c in verify_gabor(GroupSpec((256,)), 2, 2, seed=1)}
        assert [checks[name].line() for name in self.NAMES] == [
            "[INFO] defining-sum cells sampled (share of |G|^2): value=3.906250e-03",
            "[INFO] dense frame oracle not built above order cap: value=1.280000e+02",
        ]

    def test_at_the_cap_the_report_has_neither_line(self):
        names = {c.name for c in verify_gabor(GroupSpec((128,)), 2, 2, seed=1)}
        assert "structured frame operator matches dense oracle" in names
        assert names.isdisjoint(self.NAMES)


PERIODICITY_CHECKS = ("periodic spectrum leakage", "comb weights match one-period transform",
                      "aperiodic input rejected")
NO_PERIOD_LINE = "periodicity checks not run: no composite axis"


class TestMildPeriodicity:
    # the first composite axis carries the period, even behind a prime first axis
    @pytest.mark.parametrize("moduli, ab", [((2, 4, 8), (1, 1, 2)), ((3, 9), (1, 3)),
                                            ((2, 14), (1, 2)), ((121,), 11)], ids=str)
    def test_a_composite_axis_runs_the_periodicity_checks(self, moduli, ab):
        checks = {c.name: c for c in verify_mild(GroupSpec(moduli), ab, ab, seed=1)}
        for name in PERIODICITY_CHECKS:
            assert checks[name].passed and checks[name].threshold is not None, name
        assert NO_PERIOD_LINE not in checks

    @pytest.mark.parametrize("moduli", [(13,), (2, 3), (1,)], ids=str)
    def test_without_a_composite_axis_the_report_says_so(self, moduli):
        checks = {c.name: c for c in verify_mild(GroupSpec(moduli), 1, 1, seed=1)}
        assert checks.keys().isdisjoint(PERIODICITY_CHECKS)
        assert checks[NO_PERIOD_LINE].line() == f"[INFO] {NO_PERIOD_LINE}: value=0.000000e+00"


class TestGaborStreaming:
    def test_holds_no_full_grid(self):
        # one |G|^2 grid on Z1024 is 16 MiB; the a = b = 2 coefficients are 4 MiB
        G = GroupSpec((1024,))
        tracemalloc.start()
        try:
            checks = verify_gabor(G, 2, 2, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in checks)
        assert peak < 0.75 * 16 * G.order**2

    def test_builds_no_synthesis_matrix(self):
        # the dense synthesis matrix of Z128 at a = b = 2 is 16 |G| |Lambda| bytes, 8 MiB
        G = GroupSpec((128,))
        tracemalloc.start()
        try:
            checks = verify_gabor(G, 2, 2, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in checks)
        assert peak < 16 * G.order * TFLattice(G, 2, 2).size

    @pytest.mark.parametrize("moduli, a, b", [((24,), 2, 3), ((4, 6), 1, 2), ((2, 3, 4), 1, (1, 3, 2))],
                             ids=str)
    def test_blocks_split_give_the_same_report(self, moduli, a, b, monkeypatch):
        from mildspec import gabor

        G = GroupSpec(moduli)
        whole = verify_gabor(G, a, b, seed=4)
        # five rows and five columns per block, the last block short
        monkeypatch.setattr(gabor, "_BLOCK_CELLS", 5 * G.order)
        split = verify_gabor(G, a, b, seed=4)
        assert [c.name for c in split] == [c.name for c in whole]
        assert all(c.passed for c in split)
        for c, d in zip(split, whole):
            assert abs(c.residual - d.residual) <= 1e-12 * (1.0 + abs(d.residual))


def _frames(data, max_order):
    """A group of 1-3 axes and a separable lattice with a_j b_j < N_j on every nontrivial axis."""
    moduli = []
    for _ in range(data.draw(st.integers(1, 3), label="axes")):
        moduli.append(data.draw(st.integers(1, max_order // math.prod(moduli)), label="modulus"))
    a, b = [], []
    for n in moduli:
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        a.append(data.draw(st.sampled_from([d for d in divisors if d < n or n == 1]), label="a"))
        b.append(data.draw(
            st.sampled_from([d for d in divisors if a[-1] * d < n or n == 1]), label="b"))
    return TFLattice(GroupSpec(tuple(moduli)), tuple(a), tuple(b))


def _rel(x, ref):
    return float(np.max(np.abs(x - ref))) / float(np.max(np.abs(ref)))


class TestJanssenOracles:
    @settings(max_examples=40)
    @given(st.data())
    def test_agree_with_the_dense_and_block_routes(self, data):
        lattice = _frames(data, 128)
        G = lattice.group
        # the dense synthesis matrix stays below 4 MiB
        assume(G.order * lattice.size <= 1 << 18)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        gaussian = data.draw(st.booleans(), label="gaussian window")
        window = finite_gaussian(G) if gaussian else random_signal(G, rng)
        system = GaborSystem(window, lattice)
        assume(system.is_frame)
        A, B = system.frame_bounds
        janssen = reference.JanssenFrame(window, lattice)
        f, h = random_signal(G, rng), random_signal(G, rng)

        dense = reference.frame_matrix_dense(system)
        Sf = dense @ f.values
        assert _rel(janssen.matrix(), dense) <= 1e-12
        for route in (janssen.apply(f).values, janssen.matrix() @ f.values,
                      system.apply_frame(f).values):
            assert _rel(route, Sf) <= 1e-12
        lower, upper = janssen.bound_estimates
        assert lower <= A + 1e-12 * B and B <= upper * (1 + 1e-12)

        # the accelerated frame algorithm against the dense least-squares solve
        lsq, *_ = np.linalg.lstsq(reference.synthesis_matrix(window, lattice), h.values, rcond=None)
        minimal = system.analyze(janssen.solve(h)).ravel()
        assert _rel(minimal, lsq) <= 1e-12 * (B / A)

        gd = system.canonical_dual
        assert janssen.wexler_raz_residual(gd) <= 1e-13 * (B / A)
        assert janssen.span_residual(gd) <= 1e-13 * (B / A)
        # the Gram matrix of the adjoint atoms: kappa times its extreme eigenvalues are (A, B),
        # and one solve with it gives the canonical dual; the fibers split it exactly
        atoms = _adjoint_atoms(janssen, G)
        gram = atoms.conj().T @ atoms
        eig = np.linalg.eigvalsh(gram)
        fibered = np.sort(np.linalg.eigvalsh(janssen._fibers).ravel())
        assert np.max(np.abs(fibered - eig)) <= 1e-12 * eig[-1]
        rhs = janssen._inner(f.values).astype(np.complex128)
        in_span = janssen.synthesize(np.linalg.solve(gram, rhs.ravel()).reshape(rhs.shape))
        assert _rel(janssen._in_span(rhs), in_span) <= 1e-12 * (B / A)
        assert np.max(np.abs(np.subtract(janssen.bounds, (A, B)))) <= 1e-12 * B
        assert _rel(janssen.dual.values, gd.values) <= 1e-12 * (B / A)
        # a dual window off the span: add a signal orthogonal to every pi(mu) g
        x = random_signal(G, rng)
        x_perp = x.values - janssen.synthesize(
            np.linalg.lstsq(atoms, x.values, rcond=None)[0].reshape(janssen.coefficients.shape))
        if np.linalg.norm(x_perp) > 1e-6 * x.norm2:
            other = Signal(G, gd.values + x_perp / np.linalg.norm(x_perp) * gd.norm2)
            assert janssen.wexler_raz_residual(other) <= 1e-10 * (B / A)
            assert janssen.span_residual(other) > 0.1

    def test_solve_holds_on_an_ill_conditioned_critical_frame(self, rng):
        # redundancy 1 and B/A = 5.2e9: S^-1 h agrees with the dense solve to a few eps B/A
        G = GroupSpec((2, 14))
        lattice = TFLattice(G, (1, 1), (2, 14))
        system = GaborSystem(finite_gaussian(G), lattice)
        A, B = system.frame_bounds
        janssen = reference.JanssenFrame(system.window, lattice)
        h = random_signal(G, rng)
        dense = np.linalg.solve(janssen.matrix(), h.values)
        assert _rel(janssen.solve(h).values, dense) <= 4 * np.finfo(float).eps * (B / A)

    def test_bounds_and_dual_hold_only_the_fibers(self):
        # |L^o| = 2048: a dense Gram matrix alone would take 64 MiB, the 64 fibers take 1 MiB
        G = GroupSpec((4096,))
        _assert_fibered_peaks(finite_gaussian(G), TFLattice(G, 64, 32), 16 << 20)

    def test_bounds_and_dual_hold_only_the_fibers_at_a_coarse_time_step(self, rng):
        # a = |G|, b = 1: 2048 fibers of size 1, and S = |G| |g|^2 Id is a frame for a window
        # without zeros; a (prod a_j)^2 long-double table over the frequencies of L^o takes 128 MiB
        G = GroupSpec((2048,))
        _assert_fibered_peaks(random_signal(G, rng), TFLattice(G, 2048, 1), 4 << 20)

    def test_minimal_norm_on_an_ill_conditioned_cyclic_frame(self):
        # B/A = 7.5e8: with the fibers formed in extended precision, "canonical coefficients
        # have minimal norm" reads 2.9e-11 against its threshold 1e-8
        assert _failed(verify_gabor(GroupSpec((15,)), 15, 1, seed=1)) == set()


def _assert_fibered_peaks(window, lattice, limit):
    """JanssenFrame's construction, bounds and dual each peak under limit bytes of tracemalloc,
    and its bounds and dual agree with the Walnut route's."""
    peaks = []
    tracemalloc.start()
    try:
        janssen = reference.JanssenFrame(window, lattice)
        peaks.append(tracemalloc.get_traced_memory()[1])
        for read in (lambda: janssen.bounds, lambda: janssen.dual):
            tracemalloc.reset_peak()
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < limit
    system = GaborSystem(window, lattice)
    A, B = system.frame_bounds
    assert np.max(np.abs(np.subtract(janssen.bounds, (A, B)))) <= 1e-12 * B
    assert _rel(janssen.dual.values, system.canonical_dual.values) <= 1e-12 * (B / A)


def _adjoint_atoms(janssen, G):
    """The atoms pi(mu) g of the adjoint lattice as columns, one synthesis per unit vector."""
    shape = janssen.coefficients.shape
    units = np.eye(math.prod(shape))
    return np.stack([janssen.synthesize(e.reshape(shape)) for e in units], axis=1)


class TestLatticeClassification:
    @settings(max_examples=80)
    @given(st.data())
    def test_every_separable_lattice_gets_a_report(self, data):
        moduli = data.draw(
            st.lists(st.integers(1, 36), min_size=1, max_size=3).filter(
                lambda m: math.prod(m) <= 36),
            label="moduli",
        )

        def steps(label):
            return tuple(
                data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), label=label)
                for n in moduli
            )

        a, b = steps("a"), steps("b")
        checks = verify_gabor(GroupSpec(tuple(moduli)), a, b, seed=data.draw(st.integers(0, 99)))
        assert _failed(checks) == set()


def _failed(checks):
    return {c.name for c in checks if not c.passed}


class TestMutationsFailAGate:
    def test_window_not_tensorized_across_axes(self, rng, monkeypatch):
        from mildspec import gabor
        from mildspec.signals import _axis_gaussian

        # one Gaussian over all |G| indices: the same window on Z24, not a tensor on Z24 x Z2
        monkeypatch.setattr(gabor, "finite_gaussian", lambda G: Signal(
            G, np.array(_axis_gaussian(G.order))))
        u, v = random_signal(GroupSpec((24,)), rng), random_signal(GroupSpec((2,)), rng)
        assert _failed(_judged(_product_checks)(u, v)) == {"product signal norm factorizes"}

    def test_time_shift_on_one_axis_only(self, monkeypatch):
        from mildspec import gabor

        shifted_conj = gabor._shifted_conj

        def first_axis_only(grid):
            read = shifted_conj(grid)
            keep = np.eye(1, grid.ndim, dtype=np.int64)[0]
            return lambda times: read(times * keep)

        monkeypatch.setattr(gabor, "_shifted_conj", first_axis_only)
        failed = _failed(verify_gabor(GroupSpec((4, 8)), (1, 2), (1, 2), seed=1))
        assert {"short-time transform matches defining sum",
                "transform rotates the time-frequency plane"} <= failed

    def test_column_kernel_off_by_one_frequency(self, monkeypatch):
        stft_columns = reference.stft_columns

        def next_frequency(f, window):
            full = reference.stft_direct(f, window)
            for block, _ in stft_columns(f, window):
                yield block, full[:, (np.arange(f.group.order)[block] + 1) % f.group.order]

        monkeypatch.setattr(reference, "stft_columns", next_frequency)
        assert _failed(verify_gabor(GroupSpec((24,)), 2, 2, seed=1)) == {
            "transform rotates the time-frequency plane"}

    @pytest.mark.parametrize("moduli, ab, scale, gate", [
        pytest.param((24,), 2, 1e-9, "dual window satisfies Wexler-Raz", id="(24,)-2"),
        pytest.param((2, 4, 8), (1, 1, 2), 1e-9, "dual window satisfies Wexler-Raz",
                     id="(2, 4, 8)-(1, 1, 2)"),
        pytest.param((256,), 2, 1e-10, "canonical dual matches adjoint Gram dual",
                     id="(256,)-2-1e-10"),
    ])
    def test_canonical_dual_scaled(self, moduli, ab, scale, gate, monkeypatch):
        from mildspec import gabor

        dual = gabor.GaborSystem.canonical_dual
        monkeypatch.setattr(gabor.GaborSystem, "canonical_dual", property(
            lambda system: Signal(system.group, dual.fget(system).values * (1 + scale))))
        assert gate in _failed(verify_gabor(GroupSpec(moduli), ab, ab, seed=1))

    @pytest.mark.parametrize("ab, caught_by_others", [(16, True), (8, False)])
    def test_walnut_blocks_rolled_by_one_residue(self, ab, caught_by_others, monkeypatch):
        from mildspec import gabor

        frame_blocks = gabor._frame_blocks
        # block r gets the matrix of block r - 1: the same eigenvalues, so the same (A, B)
        monkeypatch.setattr(gabor, "_frame_blocks", lambda window, lattice: np.roll(
            frame_blocks(window, lattice), 1, axis=0))
        failed = _failed(verify_gabor(GroupSpec((1024,)), ab, ab, seed=1))
        exact = {"structured frame operator matches Janssen",
                 "canonical dual matches adjoint Gram dual"}
        assert exact <= failed
        # at a = b = 8 the blocks differ by 1e-11 relative, and only the roundoff-level gates see it
        assert (failed != exact) == caught_by_others


@pytest.mark.parametrize("group", sorted(EXPECTED["checks"]))
def test_ladder_report_keeps_every_gated_check(group, tmp_path, capsys):
    # the benchmark's ladder holds each report to these names; a rename fails here first
    report = tmp_path / "report.json"
    rc = main(["verify", "all", "--group", group, "--seed", "1", "--report", str(report)])
    data = json.loads(report.read_text())
    gated = {c["name"]: c["passed"] for c in data["checks"] if c["threshold"] is not None}
    assert [n for n in EXPECTED["checks"][group] if n not in gated] == []
    for name in PRODUCT_CHECKS:
        assert f"approx: {name}" in gated
    # and to its verdicts: exactly the known defects fail, and they decide the exit code
    known = EXPECTED["known_defects"].get(group, [])
    assert sorted(n for n, ok in gated.items() if not ok) == known
    assert data["passed"] == (not known)
    assert rc == (1 if known else 0)
