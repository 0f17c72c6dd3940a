import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mildspec import (
    CoefficientArray,
    GaborSystem,
    GroupMismatchError,
    GroupSpec,
    NotAFrame,
    Signal,
    TFLattice,
    dft,
    dirac,
    finite_gaussian,
    gabor_coefficients,
    gabor_synthesis,
    random_signal,
    s0_norm,
    s0prime_norm,
    stft,
    tf_shift,
    translate,
)
from mildspec import reference
from mildspec.gabor import _BLOCK_CELLS, _tf_abs_max, _tf_analysis, _tf_rows
from mildspec.groups import _phases


class TestSTFT:
    def test_diagonal_value_is_energy(self, rng):
        G = GroupSpec((16,))
        g = random_signal(G, rng)
        V = stft(g, g)
        assert abs(V.values[0, 0] - g.norm2**2) < 1e-10

    def test_dirac_rows_follow_window(self):
        G = GroupSpec((8,))
        g = finite_gaussian(G)
        V = stft(dirac(G, G.zero()), g)
        # each time row has constant modulus g(-t) = g(t)
        for ti in range(8):
            assert_allclose(np.abs(V.values[ti]), g.values[ti].real, atol=1e-12)

    def test_shift_covariance_in_modulus(self, rng):
        G = GroupSpec((12,))
        g = finite_gaussian(G)
        f = random_signal(G, rng)
        u, w = 3, 5
        shifted = tf_shift(f, G.element(u), G.element(w))
        lhs = np.abs(stft(shifted, g).values)
        rhs = np.roll(np.roll(np.abs(stft(f, g).values), u, axis=0), w, axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_matches_direct_oracle(self, rng):
        G = GroupSpec((12,))
        f, g = random_signal(G, rng), random_signal(G, rng)
        fast = stft(f, g).values
        slow = reference.stft_direct(f, g)
        assert np.max(np.abs(fast - slow)) < 1e-11

    @pytest.mark.parametrize("moduli", [(12,), (4, 6), (2, 3, 4)], ids=str)
    def test_column_kernel_matches_direct_sum_and_rows(self, rng, moduli):
        G = GroupSpec(moduli)
        f, g = random_signal(G, rng), random_signal(G, rng)
        blocks = list(reference.stft_columns(f, g))
        assert [b for b, _ in blocks] == [slice(0, G.order)]
        cols = blocks[0][1]
        slow = reference.stft_direct(f, g)
        assert np.max(np.abs(cols - slow)) < 1e-12 * np.max(np.abs(slow))
        assert np.max(np.abs(cols - stft(f, g).values)) < 1e-12 * np.max(np.abs(slow))

    @pytest.mark.parametrize("moduli", [(24,), (4, 6), (2, 3, 4)], ids=str)
    def test_column_kernel_split_over_blocks(self, rng, moduli, monkeypatch):
        from mildspec import gabor

        G = GroupSpec(moduli)
        f, g = random_signal(G, rng), random_signal(G, rng)
        # five columns per block: the last block of 24 columns holds four
        monkeypatch.setattr(gabor, "_BLOCK_CELLS", 5 * G.order)
        blocks = list(reference.stft_columns(f, g))
        assert [(b.start, b.stop) for b, _ in blocks] == [
            (i, min(i + 5, 24)) for i in range(0, 24, 5)]
        slow = reference.stft_direct(f, g)
        for block, cols in blocks:
            assert np.max(np.abs(cols - slow[:, block])) < 1e-12 * np.max(np.abs(slow))

    def test_column_kernel_group_mismatch(self, rng):
        f = random_signal(GroupSpec((8,)), rng)
        with pytest.raises(GroupMismatchError):
            next(reference.stft_columns(f, finite_gaussian(GroupSpec((12,)))))

    def test_energy_identity(self, rng):
        G = GroupSpec((24,))
        f, g = random_signal(G, rng), random_signal(G, rng)
        V = stft(f, g)
        lhs = np.sum(np.abs(V.values) ** 2)
        rhs = G.order * (g.norm2**2) * (f.norm2**2)
        assert abs(lhs - rhs) / rhs < 1e-10

    def test_transform_rotates_grid(self, rng):
        G = GroupSpec((20,))
        g0 = finite_gaussian(G)
        f = random_signal(G, rng)
        V = np.abs(stft(f, g0).values)
        fhat = dft(f) * (1.0 / np.sqrt(G.order))
        Vhat = np.abs(stft(fhat, g0).values)
        neg = G.negation_permutation()
        rotated = np.abs(V[neg, :]).T
        assert np.max(np.abs(Vhat - rotated)) < 1e-9

    def test_group_mismatch(self, rng):
        f = random_signal(GroupSpec((8,)), rng)
        g = finite_gaussian(GroupSpec((12,)))
        with pytest.raises(GroupMismatchError):
            stft(f, g)


class TestConcentrationNorms:
    def test_zero_signal(self):
        G = GroupSpec((16,))
        assert s0_norm(Signal(G, np.zeros(16))) == 0.0

    def test_homogeneous(self, rng):
        G = GroupSpec((16,))
        f = random_signal(G, rng)
        assert abs(s0_norm(f * (-2.5)) - 2.5 * s0_norm(f)) < 1e-10 * s0_norm(f)

    def test_triangle_inequality(self, rng):
        G = GroupSpec((16,))
        f, g = random_signal(G, rng), random_signal(G, rng)
        assert s0_norm(f + g) <= s0_norm(f) + s0_norm(g) + 1e-10

    def test_direct_double_sum(self, rng):
        G = GroupSpec((16,))
        f = random_signal(G, rng)
        g0 = finite_gaussian(G)
        direct = np.sum(np.abs(reference.stft_direct(f, g0))) / g0.norm2**2
        assert abs(s0_norm(f) - direct) / direct < 1e-10

    def test_dual_norm_of_dirac_is_window_peak(self):
        G = GroupSpec((16,))
        peak = finite_gaussian(G).values[0].real
        for xi in range(0, 16, 3):
            got = s0prime_norm(dirac(G, G.element(xi)))
            assert abs(got - peak) < 1e-12

    def test_dual_norm_translation_invariant(self, rng):
        G = GroupSpec((16,))
        f = random_signal(G, rng)
        moved = translate(f, G.element(7))
        assert abs(s0prime_norm(moved) - s0prime_norm(f)) < 1e-10

    def test_dirac_pairs_stay_separated(self):
        # max-STFT of a dirac difference dominates the window gap, so point
        # masses at distinct sites never collapse in the dual norm
        G = GroupSpec((16,))
        g0 = finite_gaussian(G)
        for xi in range(16):
            for yi in range(xi + 1, 16):
                x, y = G.element(xi), G.element(yi)
                sigma = dirac(G, x) - dirac(G, y)
                gap = g0.values[0].real - g0.values[G.index(G.add(x, G.neg(y)))].real
                assert s0prime_norm(sigma) >= gap - 1e-12


class TestFrameOperator:
    def test_dense_lattice_dirac_window_is_scaled_identity(self, rng):
        G = GroupSpec((4,))
        system = GaborSystem(dirac(G, G.zero()), TFLattice(G, 1, 1))
        f = random_signal(G, rng)
        assert_allclose(system.apply_frame(f).values, 4.0 * f.values, atol=1e-12)

    def test_commutes_with_lattice_shift(self, rng):
        G = GroupSpec((16,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        f = random_signal(G, rng)
        lam_t, lam_s = G.element(2), G.element(2)
        lhs = system.apply_frame(tf_shift(f, lam_t, lam_s)).values
        rhs = tf_shift(system.apply_frame(f), lam_t, lam_s).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_positive(self, rng):
        G = GroupSpec((12,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 3, 2))
        for _ in range(5):
            f = random_signal(G, rng)
            q = np.vdot(f.values, system.apply_frame(f).values)
            assert abs(q.imag) < 1e-10 * abs(q)
            assert q.real > -1e-12

    def test_matches_atom_sum_oracle(self, rng):
        G = GroupSpec((12,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        f = random_signal(G, rng)
        fast = system.apply_frame(f).values
        slow = reference.frame_apply_direct(system, f).values
        assert np.max(np.abs(fast - slow)) < 1e-10


class TestFrameBounds:
    def test_dense_lattice_is_tight(self):
        G = GroupSpec((8,))
        g = finite_gaussian(G)
        g = g * (1.0 / g.norm2)
        system = GaborSystem(g, TFLattice(G, 1, 1))
        A, B = system.frame_bounds
        assert abs(A - 8.0) < 1e-10
        assert abs(B - 8.0) < 1e-10

    def test_ordered(self):
        G = GroupSpec((16,))
        A, B = GaborSystem(finite_gaussian(G), TFLattice(G, 4, 2)).frame_bounds
        assert 0 < A <= B

    def test_oversampling_improves_conditioning(self):
        G = GroupSpec((16,))
        g = finite_gaussian(G)
        twice = GaborSystem(g, TFLattice(G, 4, 2)).frame_bounds
        quad = GaborSystem(g, TFLattice(G, 2, 2)).frame_bounds
        assert quad[0] > twice[0]
        assert quad[1] / quad[0] < twice[1] / twice[0]

    def test_gaussian_critical_density_degenerates(self):
        # the finite Gaussian at exactly one atom per sample fails to span,
        # mirroring the classical critical-density obstruction
        G = GroupSpec((16,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 4, 4))
        assert not system.is_frame

    def test_is_frame_flags(self):
        G = GroupSpec((16,))
        g = finite_gaussian(G)
        assert GaborSystem(g, TFLattice(G, 2, 2)).is_frame
        assert not GaborSystem(g, TFLattice(G, 8, 8)).is_frame


class TestCanonicalDual:
    def test_dense_lattice_dual_is_rescaled_window(self):
        G = GroupSpec((8,))
        g = finite_gaussian(G)
        g = g * (1.0 / g.norm2)
        dual = GaborSystem(g, TFLattice(G, 1, 1)).canonical_dual
        assert_allclose(dual.values, g.values / 8.0, atol=1e-12)

    def test_frame_operator_sends_dual_to_window(self):
        G = GroupSpec((16,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        dual = system.canonical_dual
        assert np.max(np.abs(system.apply_frame(dual).values - system.window.values)) < 1e-9

    def test_undersampled_raises(self):
        G = GroupSpec((16,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 8, 8))
        assert system.lattice.redundancy < 1
        with pytest.raises(NotAFrame) as info:
            _ = system.canonical_dual
        assert abs(info.value.bound_estimate) < 1e-10

    def test_dual_reconstruction(self, rng):
        G = GroupSpec((16,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        for _ in range(5):
            f = random_signal(G, rng)
            coeffs = system.analyze(f, window=system.canonical_dual)
            back = system.synthesize(coeffs)
            assert np.max(np.abs(back.values - f.values)) / f.norm2 < 1e-9


class TestCoefficients:
    def test_atom_roundtrip(self):
        G = GroupSpec((16,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        sigma = tf_shift(system.window, G.element(4), G.element(6))
        c = gabor_coefficients(sigma, system)
        back = gabor_synthesis(c, system)
        assert np.max(np.abs(back.values - sigma.values)) < 1e-9

    def test_coefficients_follow_lattice_order(self, rng):
        G = GroupSpec((12,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 3, 4))
        f = random_signal(G, rng)
        dual = system.canonical_dual
        flat = gabor_coefficients(f, system).ravel()
        for k, (t, s) in enumerate(system.lattice.points()):
            expect = np.vdot(tf_shift(dual, t, s).values, f.values)
            assert abs(flat[k] - expect) < 1e-10

    def test_minimal_l2_norm(self, rng):
        G = GroupSpec((12,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        sigma = random_signal(G, rng)
        c = gabor_coefficients(sigma, system).ravel()
        D = reference.synthesis_matrix(system.window, system.lattice)
        assert np.max(np.abs(D @ c - sigma.values)) < 1e-9
        c_min, *_ = np.linalg.lstsq(D, sigma.values, rcond=None)
        assert np.max(np.abs(c - c_min)) < 1e-8
        # adding any synthesis null vector can only grow the l2 norm
        _, sv, Vh = np.linalg.svd(D)
        null = Vh[len(sv):].conj().T
        for j in range(null.shape[1]):
            h = null[:, j]
            assert np.linalg.norm(c) <= np.linalg.norm(c + h) + 1e-10

    def test_containers_copy_only_what_others_could_write(self):
        G = GroupSpec((8,))
        lat = TFLattice(G, 2, 2)
        writeable = np.zeros((4, 4), dtype=complex)
        c = CoefficientArray(lat, writeable)
        writeable[0, 0] = 1.0
        assert c.values[0, 0] == 0 and not c.values.flags.writeable
        frozen = np.zeros((4, 4), dtype=complex)
        frozen.setflags(write=False)
        assert np.shares_memory(CoefficientArray(lat, frozen).values, frozen)
        # a read-only view does not own its data: its base may still change
        view = np.zeros((8, 8), dtype=complex)[:, :]
        view.setflags(write=False)
        assert not np.shares_memory(CoefficientArray(TFLattice(G, 1, 1), view).values, view)

    def test_stft_holds_one_grid(self):
        # the Z512 grid is 4 MiB; a copy on construction would double the peak
        G = GroupSpec((512,))
        f, g = random_signal(G, np.random.default_rng(0)), finite_gaussian(G)
        tracemalloc.start()
        try:
            V = stft(f, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert V.values.shape == (512, 512)
        assert peak < 1.5 * 16 * G.order**2

    def test_coefficient_array_validates_size(self):
        G = GroupSpec((8,))
        lat = TFLattice(G, 2, 2)
        with pytest.raises(ValueError):
            CoefficientArray(lat, np.zeros(5))


class TestSynthesis:
    def test_unit_coefficient_reproduces_window(self):
        G = GroupSpec((8,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        arr = np.zeros((4, 4), dtype=complex)
        arr[0, 0] = 1.0
        out = gabor_synthesis(CoefficientArray(system.lattice, arr), system)
        assert_allclose(out.values, system.window.values, atol=1e-12)

    def test_linear(self, rng):
        G = GroupSpec((8,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = gabor_synthesis(CoefficientArray(system.lattice, a + b), system).values
        rhs = (
            gabor_synthesis(CoefficientArray(system.lattice, a), system).values
            + gabor_synthesis(CoefficientArray(system.lattice, b), system).values
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_reconstruction_corpus(self, rng):
        G = GroupSpec((24,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 3))
        for _ in range(20):
            f = random_signal(G, rng)
            back = gabor_synthesis(gabor_coefficients(f, system), system)
            assert np.max(np.abs(back.values - f.values)) / f.norm2 < 1e-9


class TestLattice:
    def test_rejects_non_divisor_steps(self):
        G = GroupSpec((12,))
        with pytest.raises(GroupMismatchError):
            TFLattice(G, 5, 2)
        with pytest.raises(GroupMismatchError):
            TFLattice(G, 2, (3, 3))

    def test_size_and_redundancy(self):
        G = GroupSpec((4, 6))
        lat = TFLattice(G, (2, 3), (2, 2))
        assert lat.size == (2 * 2) * (2 * 3)
        assert lat.redundancy == pytest.approx(lat.size / 24)

    def test_points_order_and_count(self):
        G = GroupSpec((8,))
        lat = TFLattice(G, 4, 4)
        pts = list(lat.points())
        assert len(pts) == lat.size
        assert pts[0] == ((0,), (0,))
        # frequency runs fastest
        assert pts[1] == ((0,), (4,))


def _draw_lattice(data):
    """A group of order <= 64 with <= 3 axes, divisor steps a and b, and a seeded rng."""
    moduli = data.draw(
        st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
            lambda m: math.prod(m) <= 64
        ),
        label="moduli",
    )
    divisors = [[q for q in range(1, n + 1) if n % q == 0] for n in moduli]
    a = tuple(data.draw(st.sampled_from(d), label="a") for d in divisors)
    b = tuple(data.draw(st.sampled_from(d), label="b") for d in divisors)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    return TFLattice(GroupSpec(tuple(moduli)), a, b), np.random.default_rng(seed)


def _dense_frame_data(system):
    S = reference.frame_matrix_dense(system)
    eig = np.linalg.eigvalsh(S)
    return eig[0], eig[-1], S


def _assert_blocks_match_dense(system, tol=1e-12):
    A, B = system.frame_bounds
    dense_A, dense_B, S = _dense_frame_data(system)
    assert abs(A - dense_A) <= tol * dense_B
    assert abs(B - dense_B) <= tol * dense_B
    if system.is_frame:
        dual = system.canonical_dual.values
        dense_dual = np.linalg.solve(S, system.window.values)
        assert np.max(np.abs(dual - dense_dual)) <= tol * np.max(np.abs(dense_dual))
    else:
        with pytest.raises(NotAFrame):
            system.canonical_dual


# (moduli, a, b): 1-D, 2-D and 3-D groups, unequal per-axis steps, the full
# lattice, and undersampled or critical lattices that are not frames
BLOCK_CASES = [
    ((256,), 2, 2),
    ((16, 32), 2, 2),
    ((12, 18), (2, 3), (3, 2)),
    ((2, 4, 8), (1, 2, 2), (2, 1, 4)),
    ((6, 10), (3, 5), (2, 1)),
    ((8,), 1, 1),
    ((4, 6), 1, 1),
    ((12,), 3, 4),
    ((16,), 8, 8),
    ((4, 8), (2, 2), (2, 4)),
]


class TestStructuredFrameOperator:
    @pytest.mark.parametrize("moduli,a,b", BLOCK_CASES, ids=lambda v: str(v))
    def test_bounds_and_dual_match_dense_oracle(self, moduli, a, b):
        G = GroupSpec(moduli)
        _assert_blocks_match_dense(GaborSystem(finite_gaussian(G), TFLattice(G, a, b)))

    @pytest.mark.parametrize("moduli,a,b", BLOCK_CASES[:6], ids=lambda v: str(v))
    def test_random_window_matches_dense_oracle(self, rng, moduli, a, b):
        G = GroupSpec(moduli)
        _assert_blocks_match_dense(GaborSystem(random_signal(G, rng), TFLattice(G, a, b)))

    @pytest.mark.parametrize("moduli,a,b", BLOCK_CASES[2:6], ids=lambda v: str(v))
    def test_apply_frame_matches_atom_sum(self, rng, moduli, a, b):
        G = GroupSpec(moduli)
        system = GaborSystem(finite_gaussian(G), TFLattice(G, a, b))
        f = random_signal(G, rng)
        fast = system.apply_frame(f).values
        slow = reference.frame_apply_direct(system, f).values
        assert np.max(np.abs(fast - slow)) < 1e-10 * np.max(np.abs(slow))

    def test_undersampled_raises_not_a_frame_before_solving(self):
        # a singular block would make the solve fail; the bound test runs first
        G = GroupSpec((4, 8))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, (4, 4), (2, 4)))
        assert system.lattice.redundancy < 1
        with pytest.raises(NotAFrame):
            system.canonical_dual

    @settings(max_examples=30)
    @given(st.data())
    def test_random_groups_and_lattices_match_dense_oracle(self, data):
        lattice, rng = _draw_lattice(data)
        window = random_signal(lattice.group, rng)
        _assert_blocks_match_dense(GaborSystem(window, lattice), tol=1e-10)

    def test_no_dense_matrix_is_allocated(self):
        # the dense operator on Z4096 would be 256 MiB; the blocks are 2 x 2
        G = GroupSpec((4096,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        tracemalloc.start()
        try:
            system.frame_bounds
            system.canonical_dual
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * G.order**2 / 64

    def test_apply_frame_streams_its_coefficients(self):
        # the Z4096 coefficients at a = b = 2 take 64 MiB; apply_frame holds one row block
        G = GroupSpec((4096,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        f = random_signal(G, np.random.default_rng(0))
        tracemalloc.start()
        try:
            system.apply_frame(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_apply_frame_rejects_another_group_of_the_same_order(self, rng):
        G = GroupSpec((4, 8))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        with pytest.raises(GroupMismatchError):
            system.apply_frame(random_signal(GroupSpec((32,)), rng))


def _numpy_stft_rows(f, g, rows):
    """Rows of V_g f from numpy alone: FFT of f times the rolled conjugate window."""
    axes = tuple(range(f.group.ndim))
    out = []
    for t in rows:
        shift = f.group.element_at(int(t))
        windowed = f.grid() * np.conj(np.roll(g.grid(), shift, axis=axes))
        out.append(np.fft.fftn(windowed).reshape(-1))
    return np.array(out)


class TestStreamedSTFT:
    @pytest.mark.parametrize("moduli", [(12,), (4, 6), (2, 3, 4)], ids=str)
    def test_reductions_match_full_grid_and_direct_sum(self, rng, moduli):
        from mildspec import mild_deviation_stft

        G = GroupSpec(moduli)
        g0 = finite_gaussian(G)
        f, h, w = random_signal(G, rng), random_signal(G, rng), random_signal(G, rng)
        full = np.abs(stft(f, g0).values)
        direct = np.abs(reference.stft_direct(f, g0))
        scale = g0.norm2**2
        for grid in (full, direct):
            assert abs(s0_norm(f) - grid.sum() / scale) < 1e-12 * s0_norm(f)
            assert abs(s0prime_norm(f) - grid.max()) < 1e-12 * grid.max()
        dev = np.abs(reference.stft_direct(f - h, w)).max()
        assert abs(mild_deviation_stft(f, h, window=w) - dev) < 1e-12 * dev
        assert abs(mild_deviation_stft(f, h, window=w)
                   - np.abs(stft(f - h, w).values).max()) < 1e-12 * dev

    @pytest.mark.parametrize("moduli", [(2048,), (32, 64)], ids=str)
    def test_grid_spanning_several_row_blocks(self, rng, moduli):
        # rows of 2048 cells come in blocks of _BLOCK_CELLS // 2048 = 16 rows,
        # so rows 511 and 512 (and 1023 and 1024) sit in different blocks
        G = GroupSpec(moduli)
        g0 = finite_gaussian(G)
        f = random_signal(G, rng)
        V = stft(f, g0).values
        rows = [0, 511, 512, 1023, 1500, 2047]
        want = _numpy_stft_rows(f, g0, rows)
        assert np.max(np.abs(V[rows] - want)) < 1e-12 * np.max(np.abs(want))
        full_sum = float(np.sum(np.abs(V)))
        assert abs(s0_norm(f) * g0.norm2**2 - full_sum) < 1e-12 * full_sum
        assert s0prime_norm(f) == float(np.max(np.abs(V)))

    def test_norms_never_hold_the_full_grid(self, rng):
        # the Z4096 grid is 256 MiB; a row block is 512 KiB
        from mildspec import mild_deviation_stft

        G = GroupSpec((4096,))
        f, h = random_signal(G, rng), random_signal(G, rng)
        finite_gaussian(G)
        tracemalloc.start()
        try:
            s0_norm(f)
            s0prime_norm(f)
            mild_deviation_stft(f, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * G.order**2 / 4

    def test_s0_norm_holds_one_row_block(self, rng):
        # Z1024: blocks of 32 time points, 512 KiB each; the sum keeps none while the next is read
        G = GroupSpec((1024,))
        f, g0 = random_signal(G, rng), finite_gaussian(G)
        s0_norm(f)
        tracemalloc.start()
        try:
            value = s0_norm(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * 16 * _BLOCK_CELLS
        blocks = _tf_rows(f.values, g0, TFLattice(G, 1, 1))
        assert value == float(sum(np.sum(np.abs(v)) for _, v in blocks)) / g0.norm2**2


class TestStackedKernel:
    """A stack of signals takes one kernel pass, and each row reads as if it were alone."""

    @settings(max_examples=40)
    @given(st.data())
    def test_stack_maxima_are_the_single_signal_maxima(self, data):
        lattice, rng = _draw_lattice(data)
        G = lattice.group
        window = random_signal(G, rng)
        count = data.draw(st.integers(1, 4), label="signals")
        rows = [random_signal(G, rng).values for _ in range(count)]
        zero = data.draw(st.integers(0, len(rows)), label="zero row")
        rows.insert(zero, np.zeros(G.order, dtype=np.complex128))
        got = _tf_abs_max(np.array(rows), window, lattice)
        want = np.array([np.max(np.abs(_tf_analysis(row, window, lattice))) for row in rows])
        if G.order > 1:
            assert got.tobytes() == want.tobytes()
        else:
            # the one cell is f conj(g): NumPy rounds a one-element in-place complex product
            # plainly, and a longer one with the fused multiply-add of its vector loop
            assert_allclose(got, want, rtol=2**-52, atol=0)
        assert got[zero] == 0.0

    def test_stack_spanning_several_row_blocks(self, rng):
        # four rows of 512 cells per time point: blocks of _BLOCK_CELLS // 2048 = 16 time points
        G = GroupSpec((512,))
        plane, g0 = TFLattice(G, 1, 1), finite_gaussian(G)
        rows = np.array([random_signal(G, rng).values for _ in range(4)])
        want = [s0prime_norm(Signal(G, row)) for row in rows]
        assert _tf_abs_max(rows, g0, plane).tolist() == want


class TestJanssenCharacters:
    """The Janssen frame reads its characters off the L roots of unity: exp of the same phases."""

    @pytest.mark.parametrize("moduli,a,b", [((24,), 2, 3), ((60,), 4, 5), ((4, 8), (2, 2), (2, 4)),
                                            ((6, 10), (2, 5), (3, 2)), ((2, 4, 8), (1, 2, 2), (2, 2, 4))],
                             ids=str)
    def test_characters_and_gram_are_the_exponentials(self, rng, moduli, a, b):
        G = GroupSpec(moduli)
        frame = reference.JanssenFrame(random_signal(G, rng), TFLattice(G, a, b))
        L, tau = G._char_lcm, 4 * np.arccos(np.longdouble(0))
        wide = _phases(G, frame._freqs.coords_array, GroupSpec(frame.lattice.time_steps)._coords)
        want = np.exp((tau * 1j / L) * wide.astype(np.longdouble))
        assert want.dtype == frame._chars.dtype and np.array_equal(frame._chars, want)
        # the Gram fibers: H[d][t, t'] = chi_d(t) conj(c_{t'-t, d}) in long double, summed over d
        t, box = frame._times.coords_array, frame.lattice.time_steps
        phases = _phases(G, frame._freqs.coords_array, t)
        chars = np.exp((tau * 1j / L) * phases.astype(np.longdouble))
        dt = np.searchsorted(frame._times.indices, G._index_rows(t[None] - t[:, None]))
        entries = (chars[:, :, None] * np.conj(frame._wide).T[:, dt]).reshape(box + dt.shape)
        fibers = np.fft.ifftn(entries, axes=tuple(range(len(box))), norm="forward")
        assert fibers.dtype == frame._wide.dtype == want.dtype
        assert frame._fibers.tobytes() == fibers.astype(np.complex128).tobytes()


def _numpy_synthesis_rows(c, g, lattice, rows):
    """sum over the given time rows of c(t, s) M_s T_t g, from numpy alone.

    Per time point the coefficients sit on the frequency lattice bZ of a
    zero spectrum; |G| times its inverse FFT is the tone sum_s c(t, s) chi_s.
    """
    G = lattice.group
    axes = tuple(range(G.ndim))
    on_lattice = tuple(slice(None, None, bj) for bj in lattice.freq_steps)
    out = np.zeros(G.moduli, dtype=np.complex128)
    for i in rows:
        spectrum = np.zeros(G.moduli, dtype=np.complex128)
        spectrum[on_lattice] = c[i].reshape(spectrum[on_lattice].shape)
        shift = G.element_at(int(lattice.time_lattice.indices[i]))
        out += np.roll(g.grid(), shift, axis=axes) * G.order * np.fft.ifftn(spectrum)
    return out.reshape(-1)


class TestTimeFrequencyKernels:
    """Analysis and synthesis held to the synthesis matrix and to plain NumPy rows."""

    @settings(max_examples=40)
    @given(st.data())
    def test_analysis_and_synthesis_match_synthesis_matrix(self, data):
        lattice, rng = _draw_lattice(data)
        G = lattice.group
        window, f = random_signal(G, rng), random_signal(G, rng)
        c = rng.standard_normal(lattice.size) + 1j * rng.standard_normal(lattice.size)
        system = GaborSystem(window, lattice)
        M = reference.synthesis_matrix(window, lattice)
        want = M.conj().T @ f.values
        got = system.analyze(f).ravel()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        want = M @ c
        got = system.synthesize(CoefficientArray(lattice, c)).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("moduli,a,b", [((1024,), 2, 2), ((32, 64), (1, 2), (2, 4))],
                             ids=str)
    def test_lattice_spanning_several_row_blocks(self, rng, moduli, a, b):
        from mildspec.gabor import _BLOCK_CELLS

        G = GroupSpec(moduli)
        lattice = TFLattice(G, a, b)
        g, f = random_signal(G, rng), random_signal(G, rng)
        system = GaborSystem(g, lattice)
        per_block = _BLOCK_CELLS // G.order
        nt = lattice.time_lattice.order
        assert nt >= 4 * per_block
        # the first and last rows of the first two blocks, and the last row
        rows = [0, per_block - 1, per_block, 2 * per_block - 1, nt - 1]

        on_lattice = tuple(slice(None, None, bj) for bj in lattice.freq_steps)
        full = _numpy_stft_rows(f, g, lattice.time_lattice.indices[rows])
        want = full.reshape((len(rows),) + moduli)[(slice(None),) + on_lattice]
        got = system.analyze(f).values[rows]
        assert np.max(np.abs(got - want.reshape(len(rows), -1))) < 1e-12 * np.max(np.abs(want))

        c = np.zeros((nt, lattice.freq_lattice.order), dtype=np.complex128)
        c[rows] = rng.standard_normal((len(rows), c.shape[1])) + 1j * rng.standard_normal(
            (len(rows), c.shape[1]))
        want = _numpy_synthesis_rows(c, g, lattice, rows)
        got = system.synthesize(CoefficientArray(lattice, c)).values
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_kernels_hold_their_output_and_a_few_blocks(self, rng):
        # Z512 at a = b = 2: 1 MiB of coefficients, in blocks of 64 time points whose
        # windowed signals fill one block.  Besides its output, the analysis holds a
        # block and its fold, the synthesis a block of terms and its tones (half a
        # block each here), and each at most one more block of FFT copies and ufunc
        # buffers, which vary between NumPy releases.  With NumPy 2.4.6 the peaks are
        # 1.77 and 0.90 MiB against bounds of 2.5 and 1.5 MiB
        block = 16 * _BLOCK_CELLS
        G = GroupSpec((512,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        f = random_signal(G, rng)
        c = gabor_coefficients(f, system)
        peaks = []
        for run in (lambda: gabor_coefficients(f, system), lambda: gabor_synthesis(c, system)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= c.values.nbytes + 3 * block
        assert peaks[1] <= f.values.nbytes + 3 * block

    def test_frame_blocks_spanning_several_row_blocks(self, rng):
        # prod b = 256 window shifts of 512 cells are four blocks of _BLOCK_CELLS
        G = GroupSpec((512,))
        _assert_blocks_match_dense(GaborSystem(random_signal(G, rng), TFLattice(G, 1, 256)))
