import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mildspec import (
    GroupMismatchError,
    GroupSpec,
    Signal,
    SubgroupSignal,
    SupportViolation,
    adjoint_restriction,
    character,
    dirac,
    dirac_comb,
    finite_gaussian,
    full_subgroup,
    grid_subgroup,
    modulate,
    pure_frequency,
    random_signal,
    signal_to_comb,
    subgroup_generated,
    tf_shift,
    translate,
    trivial_subgroup,
)
from mildspec import reference
from mildspec.signals import _fold, _translate_sum


class TestSignalBasics:
    def test_length_validation(self):
        G = GroupSpec((8,))
        with pytest.raises(ValueError):
            Signal(G, np.zeros(5))

    def test_rejects_non_finite(self):
        G = GroupSpec((4,))
        with pytest.raises(ValueError):
            Signal(G, np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError):
            Signal(G, np.array([np.inf, 0.0, 0.0, 0.0]))

    def test_values_are_read_only(self):
        G = GroupSpec((4,))
        f = Signal(G, np.ones(4))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_norms(self):
        G = GroupSpec((4,))
        f = Signal(G, np.array([3.0, -4.0, 0.0, 0.0]))
        assert f.norm1 == 7.0
        assert f.norm2 == 5.0
        assert f.norm_inf == 4.0

    def test_arithmetic(self, rng):
        G = GroupSpec((6,))
        f, g = random_signal(G, rng), random_signal(G, rng)
        assert_allclose((f + g).values, f.values + g.values)
        assert_allclose((f - g).values, f.values - g.values)
        assert_allclose((2j * f).values, 2j * f.values)
        assert_allclose((-f).values, -f.values)

    def test_random_signal_reproducible(self):
        G = GroupSpec((16,))
        a = random_signal(G, np.random.default_rng(7))
        b = random_signal(G, np.random.default_rng(7))
        assert_array_equal(a.values, b.values)


class TestDiracAndFrequency:
    def test_dirac_positions(self):
        G = GroupSpec((4,))
        assert_array_equal(dirac(G, G.element(0)).values, [1, 0, 0, 0])
        assert_array_equal(dirac(G, G.element(3)).values, [0, 0, 0, 1])

    def test_diracs_partition_unity(self):
        G = GroupSpec((6,))
        total = sum(dirac(G, x).values for x in G.elements())
        assert_array_equal(total, np.ones(6))

    def test_pure_frequency_values(self):
        G = GroupSpec((4,))
        assert_allclose(pure_frequency(G, G.element(0)).values, [1, 1, 1, 1], atol=1e-15)
        assert_allclose(
            pure_frequency(G, G.element(1)).values, [1, 1j, -1, -1j], atol=1e-15
        )
        assert_allclose(
            pure_frequency(G, G.element(2)).values, [1, -1, 1, -1], atol=1e-15
        )


class TestCombs:
    def test_comb_of_even_lattice(self):
        G = GroupSpec((8,))
        lam = grid_subgroup(G, 2)
        assert_array_equal(dirac_comb(lam).values, [1, 0, 1, 0, 1, 0, 1, 0])

    def test_degenerate_lattices(self):
        G = GroupSpec((8,))
        assert_array_equal(dirac_comb(trivial_subgroup(G)).values, dirac(G, G.zero()).values)
        assert_array_equal(dirac_comb(full_subgroup(G)).values, np.ones(8))

    def test_comb_signal_roundtrip(self):
        G = GroupSpec((8,))
        lam = subgroup_generated(G, [G.element(4)])
        comb = SubgroupSignal(lam, np.array([1.0, 1.0]))
        sig = adjoint_restriction(comb)
        assert_array_equal(sig.values, [1, 0, 0, 0, 1, 0, 0, 0])
        back = signal_to_comb(sig, lam, eps=1e-12)
        assert_array_equal(back.values, comb.values)

    def test_support_violation_reports_offender(self):
        G = GroupSpec((8,))
        lam = subgroup_generated(G, [G.element(4)])
        vals = np.zeros(8, dtype=complex)
        vals[0], vals[1], vals[4] = 1.0, 0.5, 1.0
        with pytest.raises(SupportViolation) as info:
            signal_to_comb(Signal(G, vals), lam)
        assert info.value.element == G.element(1)
        assert_allclose(info.value.magnitude, 0.5)


class TestShifts:
    def test_translate_is_cyclic_shift(self):
        G = GroupSpec((4,))
        f = Signal(G, np.array([1.0, 2.0, 3.0, 4.0]))
        assert_array_equal(translate(f, G.element(1)).values, [4, 1, 2, 3])

    def test_modulating_ones_gives_pure_frequency(self):
        G = GroupSpec((12,))
        ones = Signal(G, np.ones(12))
        s = G.element(5)
        assert_allclose(modulate(ones, s).values, pure_frequency(G, s).values)

    def test_tf_shift_of_dirac(self):
        G = GroupSpec((4,))
        shifted = tf_shift(dirac(G, G.zero()), G.element(1), G.element(1))
        assert_allclose(shifted.values, [0, 1j, 0, 0], atol=1e-15)

    def test_commutation_relation(self, rng):
        # modulate(translate(f,t),s) = character(s,t) * translate(modulate(f,s),t)
        G = GroupSpec((12,))
        f = random_signal(G, rng)
        for _ in range(20):
            t = G.element_at(int(rng.integers(G.order)))
            s = G.element_at(int(rng.integers(G.order)))
            lhs = modulate(translate(f, t), s).values
            rhs = character(G, s, t) * translate(modulate(f, s), t).values
            assert_allclose(lhs, rhs, atol=1e-13)

    def test_translate_arity_mismatch(self):
        G, H = GroupSpec((4,)), GroupSpec((4, 6))
        f = Signal(G, np.ones(4))
        with pytest.raises(ValueError):
            translate(f, H.element((1, 2)))


class TestTranslateSum:
    @pytest.mark.parametrize("moduli, steps", [
        ((12,), (3,)), ((12,), (1,)), ((12,), (12,)),
        ((4, 6), (2, 3)), ((4, 6), (4, 1)),
        ((2, 3, 4), (1, 3, 2)), ((2, 3, 4), (2, 3, 4)),
    ])
    def test_matches_one_translate_per_point(self, rng, moduli, steps):
        G = GroupSpec(moduli)
        H = grid_subgroup(G, steps)
        f = random_signal(G, rng)
        assert_allclose(_translate_sum(f, H), reference.translate_sum_direct(f, H),
                        rtol=0, atol=1e-13)

    def test_result_is_exactly_periodic(self, rng):
        G = GroupSpec((12, 8))
        out = _translate_sum(random_signal(G, rng), grid_subgroup(G, (3, 4))).reshape(12, 8)
        assert_array_equal(out, np.tile(out[:3, :4], (4, 2)))

    def test_non_grid_lattice_rejected(self, rng):
        G = GroupSpec((6, 6))
        H = subgroup_generated(G, [(1, 1)])
        with pytest.raises(GroupMismatchError, match="grid lattice"):
            _translate_sum(random_signal(G, rng), H)


class TestFold:
    @pytest.mark.parametrize("moduli, steps", [
        ((12,), (3,)), ((12,), (1,)), ((4, 6), (2, 3)), ((2, 3, 4), (1, 3, 2)),
    ])
    def test_sums_each_coset_with_leading_axes_kept(self, rng, moduli, steps):
        values = rng.standard_normal((5,) + moduli)
        want = np.zeros((5,) + steps)
        for x in np.ndindex(*moduli):
            r = tuple(xj % a for xj, a in zip(x, steps))
            want[(slice(None),) + r] += values[(slice(None),) + x]
        assert_allclose(_fold(values, steps), want, rtol=0, atol=1e-13)

    def test_trivial_lattice_returns_its_input(self, rng):
        values = rng.standard_normal((3, 4, 6))
        assert _fold(values, (4, 6)) is values


class TestFiniteGaussian:
    def test_single_point_value(self):
        # sum_m exp(-pi m^2), the theta value at one point
        G = GroupSpec((1,))
        assert_allclose(finite_gaussian(G).values[0], 1.0864348112133082, rtol=1e-14)

    def test_symmetry(self):
        G = GroupSpec((16,))
        g = finite_gaussian(G).values
        for k in range(1, 16):
            assert_allclose(g[k], g[16 - k], rtol=1e-14)

    def test_positive(self):
        for n in (3, 8, 17):
            g = finite_gaussian(GroupSpec((n,))).values
            assert np.all(g.real > 0)
            assert_allclose(g.imag, 0.0, atol=1e-300)

    def test_peak_at_zero(self):
        g = finite_gaussian(GroupSpec((32,))).values
        assert np.argmax(np.abs(g)) == 0

    def test_tensor_structure(self):
        Ga, Gb = GroupSpec((4,)), GroupSpec((6,))
        G = GroupSpec((4, 6))
        expect = np.outer(finite_gaussian(Ga).values, finite_gaussian(Gb).values).ravel()
        assert_allclose(finite_gaussian(G).values, expect, rtol=1e-14)
