import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mildspec import (
    GroupSpec,
    Signal,
    SupportViolation,
    adjoint_restriction,
    all_subgroups,
    annihilator,
    character_vector,
    comb_ft,
    dft,
    dft_quotient,
    dft_subgroup,
    dirac,
    dirac_comb,
    duality_sampling_periodization,
    finite_gaussian,
    grid_subgroup,
    idft,
    pair,
    poisson_check,
    pure_frequency,
    quotient,
    random_signal,
    restriction,
    signal_to_comb,
    subgroup_generated,
    weil_map,
)
from mildspec import reference


class TestTransform:
    def test_dirac_to_constant(self):
        G = GroupSpec((8,))
        assert_allclose(dft(dirac(G, G.zero())).values, np.ones(8), atol=1e-14)

    def test_pure_frequency_to_scaled_dirac(self):
        G = GroupSpec((24,))
        for r in G.elements():
            hat = dft(pure_frequency(G, r)).values
            expect = 24.0 * dirac(G, r).values
            assert np.max(np.abs(hat - expect)) < 1e-10

    # the unitary pair is the counting pair times |G|^power
    @pytest.mark.parametrize("fast, slow, power", [
        (dft, reference.naive_dft, -0.5), (idft, reference.naive_idft, 0.5),
    ], ids=["dft", "idft"])
    @pytest.mark.parametrize("unitary", [False, True], ids=["counting", "unitary"])
    @pytest.mark.parametrize("moduli", [(16,), (4, 6)], ids=["Z16", "Z4xZ6"])
    def test_matches_naive_oracle(self, rng, fast, slow, power, unitary, moduli):
        f = random_signal(GroupSpec(moduli), rng)
        want = slow(f).values * (f.group.order ** power if unitary else 1.0)
        got = fast(f, unitary=unitary).values
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    @pytest.mark.parametrize("moduli", [(24,), (4, 6), (2, 3, 4)])
    def test_roundtrip(self, moduli, rng):
        G = GroupSpec(moduli)
        f = random_signal(G, rng)
        back = idft(dft(f)).values
        assert np.max(np.abs(back - f.values)) / np.max(np.abs(f.values)) < 1e-10

    def test_inverse_of_constant(self):
        G = GroupSpec((8,))
        assert_allclose(idft(Signal(G, np.ones(8))).values, dirac(G, G.zero()).values,
                        atol=1e-14)

    def test_inverse_of_scaled_dirac(self):
        G = GroupSpec((12,))
        r = G.element(5)
        f = Signal(G, 12.0 * dirac(G, r).values)
        assert_allclose(idft(f).values, pure_frequency(G, r).values, atol=1e-13)

    def test_plancherel_counting(self, rng):
        G = GroupSpec((4, 6))
        f = random_signal(G, rng)
        lhs = np.sum(np.abs(dft(f).values) ** 2)
        rhs = G.order * np.sum(np.abs(f.values) ** 2)
        assert abs(lhs - rhs) / rhs < 1e-12

    def test_unitary_convention_is_isometric(self, rng):
        G = GroupSpec((24,))
        f = random_signal(G, rng)
        fu = dft(f, unitary=True)
        assert abs(fu.norm2 - f.norm2) / f.norm2 < 1e-12
        back = idft(fu, unitary=True)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_double_transform_reflects(self, rng):
        G = GroupSpec((4, 6))
        f = random_signal(G, rng)
        twice = dft(dft(f)).values
        assert_allclose(twice, G.order * f.values[G.negation_permutation()], atol=1e-10)


class TestMildTransform:
    def test_pairing_contract(self, rng):
        G = GroupSpec((12,))
        sigma, f = random_signal(G, rng), random_signal(G, rng)
        lhs = pair(dft(sigma), f)
        rhs = pair(sigma, dft(f))
        assert abs(lhs - rhs) / abs(rhs) < 1e-12

    def test_dirac_transforms_to_conjugate_frequency(self):
        G = GroupSpec((8,))
        x = G.element(3)
        assert_allclose(
            dft(dirac(G, x)).values, np.conj(character_vector(G, x)), atol=1e-13
        )

    def test_comb_transforms_to_dual_comb(self):
        G = GroupSpec((8,))
        lam = grid_subgroup(G, 2)
        hat = dft(dirac_comb(lam)).values
        expect = np.zeros(8)
        expect[[0, 4]] = 4.0
        assert_allclose(hat, expect, atol=1e-12)


class TestRestriction:
    def test_read_off_values(self):
        G = GroupSpec((8,))
        f = Signal(G, np.arange(1.0, 9.0))
        H = grid_subgroup(G, 2)
        assert_array_equal(restriction(f, H).values, [1, 3, 5, 7])

    def test_constant_restricts_to_constant(self):
        G = GroupSpec((12,))
        H = grid_subgroup(G, 3)
        sig = restriction(Signal(G, np.ones(12)), H).as_signal()
        assert_array_equal(sig.values, np.ones(4))

    def test_character_restricts_to_character(self):
        G = GroupSpec((12,))
        H = grid_subgroup(G, 3)
        reduced = GroupSpec((4,))
        for s in G.elements():
            got = restriction(pure_frequency(G, s), H).as_signal()
            expect = pure_frequency(reduced, reduced.element(s[0] % 4))
            assert_allclose(got.values, expect.values, atol=1e-12)

    def test_adjoint_embedding(self):
        G = GroupSpec((8,))
        H = subgroup_generated(G, [G.element(4)])
        mu = restriction(Signal(G, np.ones(8)), H)
        assert_array_equal(adjoint_restriction(mu).values, [1, 0, 0, 0, 1, 0, 0, 0])

    def test_adjoint_pairing_identity(self, rng):
        G = GroupSpec((12,))
        H = grid_subgroup(G, 3)
        f = random_signal(G, rng)
        mu = restriction(random_signal(G, rng), H)
        lhs = pair(adjoint_restriction(mu), f)
        rhs = np.sum(mu.values * restriction(f, H).values)
        assert abs(lhs - rhs) < 1e-12

    def test_adjoint_of_dirac(self):
        G = GroupSpec((8,))
        H = grid_subgroup(G, 2)
        from mildspec import SubgroupSignal

        mu = SubgroupSignal(H, np.array([1.0, 0, 0, 0]))
        assert_array_equal(adjoint_restriction(mu).values, dirac(G, G.zero()).values)


class TestWeilMap:
    def test_hand_periodization(self):
        G = GroupSpec((8,))
        f = Signal(G, np.arange(1.0, 9.0))
        H = subgroup_generated(G, [G.element(4)])
        assert_array_equal(weil_map(f, H).values, [6, 8, 10, 12])

    def test_dirac_goes_to_coset_indicator(self):
        G = GroupSpec((8,))
        H = grid_subgroup(G, 2)
        q = weil_map(dirac(G, G.element(5)), H)
        expect = np.zeros(q.quotient.size)
        expect[q.quotient.coset_map[G.index(5)]] = 1.0
        assert_array_equal(q.values, expect)

    def test_total_mass_preserved(self, rng):
        G = GroupSpec((4, 6))
        f = random_signal(G, rng)
        for H in all_subgroups(G):
            q = weil_map(f, H)
            assert abs(q.values.sum() - f.values.sum()) < 1e-12

    def test_l1_contraction_with_equality_for_positive(self, rng):
        G = GroupSpec((12,))
        H = grid_subgroup(G, 4)
        f = random_signal(G, rng)
        assert np.sum(np.abs(weil_map(f, H).values)) <= f.norm1 + 1e-12
        pos = Signal(G, np.abs(f.values))
        assert abs(np.sum(np.abs(weil_map(pos, H).values)) - pos.norm1) < 1e-12

    def test_representative_independent(self, rng):
        # summing each coset in canonical element order makes the result
        # independent of which representative labels the coset
        G = GroupSpec((12,))
        H = grid_subgroup(G, 3)
        f = random_signal(G, rng)
        q = weil_map(f, H)
        Q = quotient(G, H)
        by_hand = np.zeros(Q.size, dtype=complex)
        for i, x in enumerate(G.elements()):
            by_hand[Q.coset_map[i]] += f.values[i]
        assert_array_equal(q.values, by_hand)


class TestPoisson:
    def test_dirac_both_sides_one(self):
        G = GroupSpec((24,))
        f = dirac(G, G.zero())
        for H in all_subgroups(G):
            res = poisson_check(f, H)
            assert_allclose(res.lhs, 1.0, atol=1e-12)
            assert_allclose(res.rhs, 1.0, atol=1e-12)

    def test_gaussian_residual(self):
        G = GroupSpec((24,))
        f = finite_gaussian(G)
        res = poisson_check(f, grid_subgroup(G, 4))
        assert res.residual <= 1e-10 * f.norm1

    def test_random_over_all_subgroups_of_z36(self, rng):
        G = GroupSpec((36,))
        subs = all_subgroups(G)
        assert len(subs) == 9
        f = random_signal(G, rng)
        for H in subs:
            assert poisson_check(f, H).residual <= 1e-10


class TestSamplingPeriodizationDuality:
    def test_dirac_case_constant(self):
        G = GroupSpec((8,))
        H = grid_subgroup(G, 2)
        res = duality_sampling_periodization(dirac(G, G.zero()), H)
        assert res.lhs.quotient.size == 4
        assert_allclose(res.lhs.values, 2.0, atol=1e-12)
        assert res.residual < 1e-12

    def test_gaussian_on_z64(self):
        G = GroupSpec((64,))
        f = finite_gaussian(G)
        res = duality_sampling_periodization(f, grid_subgroup(G, 8))
        assert res.residual <= 1e-9

    def test_annihilator_frequency_concentrates(self):
        G = GroupSpec((8,))
        H = grid_subgroup(G, 2)
        s = G.element(4)  # lies in the annihilator of H
        res = duality_sampling_periodization(pure_frequency(G, s), H)
        peak = np.max(np.abs(res.lhs.values))
        assert_allclose(peak, H.order * annihilator(H).order, atol=1e-10)
        assert res.residual < 1e-10

    @pytest.mark.parametrize("moduli", [(24,), (4, 6)])
    def test_random_matrix(self, moduli, rng):
        G = GroupSpec(moduli)
        f = random_signal(G, rng)
        for H in all_subgroups(G):
            assert duality_sampling_periodization(f, H).residual <= 1e-10


class TestCombTransform:
    def test_even_lattice(self):
        G = GroupSpec((8,))
        comb = comb_ft(grid_subgroup(G, 2))
        assert comb.subgroup.elements == ((0,), (4,))
        assert_allclose(comb.values, 4.0, atol=1e-12)

    def test_trivial_lattice(self):
        G = GroupSpec((8,))
        comb = comb_ft(subgroup_generated(G, []))
        assert comb.subgroup.order == 8
        assert_allclose(comb.values, 1.0, atol=1e-12)

    def test_full_lattice(self):
        G = GroupSpec((8,))
        comb = comb_ft(grid_subgroup(G, 1))
        assert comb.subgroup.order == 1
        assert_allclose(comb.values, 8.0, atol=1e-12)

    def test_certification_rejects_off_lattice_mass(self):
        G = GroupSpec((8,))
        with pytest.raises(SupportViolation):
            signal_to_comb(finite_gaussian(G), grid_subgroup(G, 2))


class TestSubgroupQuotientTransforms:
    def test_subgroup_transform_matches_reduced_group(self, rng):
        # transform on H = aZ_N agrees with the plain transform on Z_{N/a}
        G = GroupSpec((12,))
        H = grid_subgroup(G, 3)
        f = random_signal(G, rng)
        mu = restriction(f, H)
        hat = dft_subgroup(mu)
        reduced = mu.as_signal()
        expect = dft(reduced).values
        assert_allclose(hat.values, expect, atol=1e-11)

    def test_quotient_transform_inverts_subgroup_transform(self, rng):
        G = GroupSpec((12,))
        H = grid_subgroup(G, 4)
        f = random_signal(G, rng)
        q = weil_map(f, H)
        back = dft_quotient(q)
        # transforming the periodization samples the transform on the annihilator
        expect = restriction(dft(f), annihilator(H))
        assert_allclose(back.values, expect.values, atol=1e-11)

    def test_full_subgroup_transform_holds_no_table(self, rng):
        # a character table on Z4096 would be 256 MiB
        G = GroupSpec((4096,))
        mu = restriction(random_signal(G, rng), grid_subgroup(G, 1))
        tracemalloc.start()
        try:
            hat = dft_subgroup(mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert_allclose(hat.values, dft(mu.as_signal()).values, atol=1e-9)
