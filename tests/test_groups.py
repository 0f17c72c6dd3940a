import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mildspec import (
    DomainError,
    GroupMismatchError,
    GroupSpec,
    Subgroup,
    all_subgroups,
    annihilator,
    character,
    character_vector,
    dft_quotient,
    dirac_comb,
    dft_subgroup,
    grid_subgroup,
    quotient,
    random_signal,
    restriction,
    subgroup_generated,
    weil_map,
)
from mildspec import reference


class TestGroupSpec:
    def test_order_and_shape(self):
        G = GroupSpec((4, 6))
        assert G.order == 24
        assert G.ndim == 2
        assert repr(G) == "Z4xZ6"

    def test_bad_moduli(self):
        with pytest.raises(ValueError):
            GroupSpec((0,))
        with pytest.raises(ValueError):
            GroupSpec(())
        with pytest.raises(ValueError):
            GroupSpec((4, -2))
        for moduli in ((10**400,), (2**32, 2**32)):  # every index array is intp
            with pytest.raises(ValueError, match="largest array index"):
                GroupSpec(moduli)

    def test_element_reduction(self):
        G = GroupSpec((4, 6))
        assert G.element((5, -1)) == (1, 5)
        assert type(G.element((5, -1))) is tuple
        with pytest.raises(ValueError):
            G.element(7)  # scalar shorthand is for one-axis groups only

    def test_scalar_element_on_1d(self):
        G = GroupSpec((8,))
        assert G.element(11) == (3,)
        assert type(G.element(11)) is tuple

    def test_arithmetic(self):
        G = GroupSpec((4, 6))
        x, y = G.element((3, 5)), G.element((2, 4))
        assert G.add(x, y) == (1, 3)
        assert G.add(x, G.neg(y)) == (1, 1)
        assert G.add(x, G.neg(x)) == G.zero() == (0, 0)
        assert type(G.add(x, y)) is type(G.neg(x)) is type(G.element_at(7)) is tuple

    def test_canonical_order_is_row_major(self):
        G = GroupSpec((2, 3))
        assert list(G.elements()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        for i, e in enumerate(G.elements()):
            assert G.index(e) == i
            assert G.element_at(i) == e

    def test_negation_permutation(self):
        G = GroupSpec((4, 6))
        perm = G.negation_permutation()
        for i, e in enumerate(G.elements()):
            assert G.element_at(perm[i]) == G.neg(e)

    def test_json_roundtrip(self):
        G = GroupSpec((4, 6))
        assert GroupSpec.from_json(G.to_json()) == G


class TestCharacter:
    def test_trivial_character(self):
        G = GroupSpec((8,))
        assert character(G, G.element(0), G.element(5)) == 1

    def test_z8_known_value(self):
        G = GroupSpec((8,))
        # exp(2 pi i * 4/8) = -1
        assert_allclose(character(G, G.element(2), G.element(2)), -1.0, atol=1e-15)

    def test_product_group_value(self):
        G = GroupSpec((4, 6))
        # exp(2 pi i (2/4 + 3/6)) = exp(2 pi i) = 1
        val = character(G, G.element((1, 3)), G.element((2, 1)))
        assert_allclose(val, 1.0, atol=1e-15)

    def test_symmetric_in_arguments(self, rng):
        G = GroupSpec((4, 6))
        for _ in range(50):
            s = G.element_at(int(rng.integers(G.order)))
            x = G.element_at(int(rng.integers(G.order)))
            assert_allclose(character(G, s, x), character(G, x, s), atol=1e-15)

    @pytest.mark.parametrize("moduli", [(8,), (12,), (4, 6), (2, 3, 5)])
    def test_multiplicativity(self, moduli, rng):
        G = GroupSpec(moduli)
        for _ in range(100):
            i, j, k = rng.integers(0, G.order, size=3)
            s, x, y = G.element_at(int(i)), G.element_at(int(j)), G.element_at(int(k))
            lhs = character(G, s, G.add(x, y))
            rhs = character(G, s, x) * character(G, s, y)
            assert abs(lhs - rhs) < 1e-13

    def test_character_vector_matches_pointwise(self):
        G = GroupSpec((4, 6))
        s = G.element((3, 2))
        vec = character_vector(G, s)
        for i, x in enumerate(G.elements()):
            assert_allclose(vec[i], character(G, s, x), atol=1e-14)

    @pytest.mark.parametrize("moduli", [(13,), (24,), (60,), (6, 10)])
    def test_scalar_and_vector_agree_bit_for_bit(self, moduli):
        # one phase expression: the scalar value is an entry of the vector
        G = GroupSpec(moduli)
        for s in G.elements():
            vec = character_vector(G, s)
            for x in G.elements():
                assert character(G, s, x) == vec[G.index(x)]

    def test_unit_modulus(self):
        G = GroupSpec((7,))
        for s in G.elements():
            assert_allclose(np.abs(character_vector(G, s)), 1.0, atol=1e-14)


class TestSubgroups:
    def test_generated_by_two_in_z8(self):
        G = GroupSpec((8,))
        H = subgroup_generated(G, [G.element(2)])
        assert H.elements == ((0,), (2,), (4,), (6,))
        assert H.order == 4

    def test_generated_by_nothing(self):
        G = GroupSpec((8,))
        H = subgroup_generated(G, [])
        assert H.order == 1
        assert H.elements[0] == G.zero()

    def test_diagonal_in_z4xz4(self):
        G = GroupSpec((4, 4))
        H = subgroup_generated(G, [G.element((1, 1))])
        assert H.elements == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert H.axis_steps is None  # not a per-axis grid

    @pytest.mark.parametrize("moduli, steps", [
        ((4, 6), (2, 3)), ((4, 6), (4, 1)), ((2, 4, 8), (1, 4, 8)), ((6, 10), (6, 10)),
        ((12, 18), (3, 2)),
    ])
    def test_grid_subgroup_is_the_join_of_its_axes(self, moduli, steps):
        G = GroupSpec(moduli)
        H = grid_subgroup(G, steps)
        axes = [tuple(row) for row, a, n in zip(np.diag(steps), steps, moduli) if a < n]
        assert H == subgroup_generated(G, axes)
        # the greedy generators take the least element first: the last axis
        assert H.generators == tuple(reversed(axes))

    def test_grid_subgroup_steps(self):
        G = GroupSpec((8,))
        H = grid_subgroup(G, 2)
        assert H.axis_steps == (2,)
        assert H.order == 4
        with pytest.raises(GroupMismatchError):
            grid_subgroup(G, 3)

    def test_membership_helpers(self):
        G = GroupSpec((8,))
        H = grid_subgroup(G, 2)
        assert list(H.indices) == [0, 2, 4, 6]
        assert H.mask.sum() == 4
        assert H.mask[G.index(6)] and not H.mask[G.index(3)]
        assert H.mask[G.index(-2)]  # index reduces its argument first
        assert H.elements.index(G.element(4)) == 2

    def test_restriction_and_comb_refuse_a_non_subgroup(self, rng):
        # {0, 3} is not closed in Z8: it used to give a two-value restriction
        # and a comb on {0, 3} without an error
        G = GroupSpec((8,))
        f = random_signal(G, rng)
        with pytest.raises(GroupMismatchError, match="not the sorted elements of a subgroup"):
            restriction(f, Subgroup(G, [0, 3]))
        with pytest.raises(GroupMismatchError, match="not the sorted elements of a subgroup"):
            dirac_comb(Subgroup(G, [0, 3]))

    def test_building_and_annihilating_leaves_numpy_ma_unimported(self):
        # np.isin on a sparse span goes through np.unique, which imports numpy.ma
        code = (
            "import sys\n"
            "from mildspec import GroupSpec, annihilator, grid_subgroup, subgroup_generated\n"
            "annihilator(grid_subgroup(GroupSpec((512,)), 2))\n"
            "annihilator(subgroup_generated(GroupSpec((64, 64)), [(1, 3)]))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestAnnihilator:
    def test_even_subgroup_of_z8(self):
        G = GroupSpec((8,))
        H = subgroup_generated(G, [G.element(2)])
        perp = annihilator(H)
        assert perp.elements == ((0,), (4,))

    def test_trivial_and_full(self):
        G = GroupSpec((8,))
        assert annihilator(subgroup_generated(G, [])).order == 8
        assert annihilator(grid_subgroup(G, 1)).order == 1

    @pytest.mark.parametrize("moduli", [(24,), (36,), (4, 6)])
    def test_order_duality(self, moduli):
        G = GroupSpec(moduli)
        for H in all_subgroups(G):
            assert H.order * annihilator(H).order == G.order

    @pytest.mark.parametrize("moduli", [(24,), (36,), (4, 6), (2, 2)])
    def test_biduality_exact(self, moduli):
        G = GroupSpec(moduli)
        for H in all_subgroups(G):
            # built from the generators of H-perp, not handed back as H
            again = annihilator(annihilator(H))
            assert again == H and again is not H

    def test_computed_once_per_subgroup(self, rng):
        G = GroupSpec((4, 6))
        H = grid_subgroup(G, (2, 3))
        assert annihilator(H) is annihilator(H)
        assert quotient(G, H) is quotient(G, H)
        f = random_signal(G, rng)
        assert dft_subgroup(restriction(f, H)).quotient is weil_map(f, annihilator(H)).quotient

    def test_characters_actually_annihilate(self):
        G = GroupSpec((4, 6))
        for H in all_subgroups(G):
            for s in annihilator(H).elements:
                for h in H.elements:
                    assert abs(character(G, s, h) - 1.0) < 1e-12


class TestQuotient:
    def test_z8_mod_half(self):
        G = GroupSpec((8,))
        H = subgroup_generated(G, [G.element(4)])
        Q = quotient(G, H)
        assert Q.representatives == ((0,), (1,), (2,), (3,))
        assert Q.size == 4

    def test_quotient_by_trivial(self):
        G = GroupSpec((8,))
        Q = quotient(G, subgroup_generated(G, []))
        assert Q.size == 8

    def test_z4xz2_four_cosets(self):
        G = GroupSpec((4, 2))
        H = subgroup_generated(G, [G.element((2, 0))])
        Q = quotient(G, H)
        assert Q.size == 4

    def test_coset_map_consistency(self):
        G = GroupSpec((4, 6))
        for H in all_subgroups(G):
            Q = quotient(G, H)
            assert Q.size * H.order == G.order
            # every element lands in the coset of its representative
            for i, x in enumerate(G.elements()):
                rep = Q.representatives[Q.coset_map[G.index(x)]]
                assert Q.coset_map[G.index(rep)] == Q.coset_map[i]
                assert H.mask[G.index(G.add(x, G.neg(rep)))]

    def test_representatives_are_lex_minimal(self):
        G = GroupSpec((12,))
        H = grid_subgroup(G, 3)
        Q = quotient(G, H)
        assert Q.representatives == ((0,), (1,), (2,))

    def test_generators_must_generate_the_elements(self):
        # the constructor derives the greedy generators, which must span
        # exactly the indices; quotient labels and annihilator phases follow them
        G = GroupSpec((8,))
        for indices in ([0, 3], [0, 0], [4, 0], [1, 5], [], [0, 8]):
            with pytest.raises(GroupMismatchError, match="not the sorted elements of a subgroup"):
                Subgroup(G, indices)
        assert Subgroup(G, [0, 4]).generators == ((4,),)

    def test_large_quotient_by_order_two_subgroup(self):
        G = GroupSpec((65536,))
        H = grid_subgroup(G, 32768)
        Q = quotient(G, H)
        assert_array_equal(Q.rep_indices, np.arange(32768))
        assert_array_equal(Q.coset_map, np.arange(65536) % 32768)
        assert Q.representatives[-1] == G.element(32767)


class TestAllSubgroups:
    @pytest.mark.parametrize(
        "moduli,count",
        [((6,), 4), ((7,), 2), ((2, 2), 5), ((4, 6), 16), ((36,), 9), ((24,), 8),
         ((16, 16), 83), ((64, 64), 367), ((4096,), 13)]
        + [((2,) * d, n) for d, n in zip(range(1, 7), (2, 5, 16, 67, 374, 2825))]
        + [((3,) * d, n) for d, n in zip(range(1, 6), (2, 6, 28, 212, 2664))],
    )
    def test_counts(self, moduli, count):
        # counts cross-checked against brute-force closure enumeration; the
        # Z16 x Z16 count is from Hampejs, Holighaus, Toth & Wiesmeyr (J. Numbers 2014),
        # the (Z_p)^d counts are the sums of Gaussian binomial coefficients
        assert len(all_subgroups(GroupSpec(moduli))) == count

    def test_two_axis_counts_match_the_closed_form(self):
        # Z_m x Z_n has sum over a | m, b | n of gcd(a, b) subgroups (Hampejs et al.)
        def closed_form(m, n):
            return sum(math.gcd(a, b) for a in range(1, m + 1) if m % a == 0
                       for b in range(1, n + 1) if n % b == 0)
        pairs = [(m, n) for m in range(1, 25) for n in range(1, 25)] + [(n, n) for n in range(25, 49)]
        for m, n in pairs:
            assert len(all_subgroups(GroupSpec((m, n)))) == closed_form(m, n), (m, n)

    def test_subgroup_count_over_the_bound_is_refused(self):
        # (Z2)^7 has order 128 but 29212 subgroups
        with pytest.raises(DomainError, match="subgroup count of Z2xZ2xZ2xZ2xZ2xZ2xZ2 exceeds "
                                              "the enumeration bound 4096"):
            all_subgroups(GroupSpec((2,) * 7))

    def test_each_is_closed(self):
        G = GroupSpec((4, 6))
        for H in all_subgroups(G):
            members = set(H.elements)
            for a in H.elements:
                for b in H.elements:
                    assert G.add(a, b) in members

    def test_no_duplicates(self):
        G = GroupSpec((36,))
        subs = all_subgroups(G)
        assert len({H.elements for H in subs}) == len(subs)

    def test_cyclic_one_per_divisor(self):
        G = GroupSpec((12,))
        orders = sorted(H.order for H in all_subgroups(G))
        assert orders == [1, 2, 3, 4, 6, 12]


def _same_subgroup_lists(fast, oracle):
    assert len(fast) == len(oracle)
    for H, R in zip(fast, oracle):
        assert_array_equal(H.indices, R.indices)
        assert H.generators == reference._reduced_generators(H.parent, R.elements)


def _oracle_coset_map(G, H):
    """Position of each element's coset, cosets ordered by their lex-min member."""
    reps = [min(G.add(x, h) for h in H.elements) for x in G.elements()]
    order = {r: i for i, r in enumerate(sorted(set(reps)))}
    return [order[r] for r in reps]


class TestAgainstClosureOracle:
    @pytest.mark.parametrize(
        "moduli", [(1,), (24,), (64,), (4, 8), (6, 6), (2, 4, 8), (3, 3, 3)]
    )
    def test_matches_object_closure(self, moduli):
        G = GroupSpec(moduli)
        fast = all_subgroups(G)
        oracle = reference.subgroups_by_closure(G)
        _same_subgroup_lists(fast, oracle)
        by_elements = {frozenset(R.elements): R for R in oracle}
        for H, R in zip(fast, oracle):
            assert H.axis_steps == R.axis_steps
            assert H.elements == R.elements
            A = annihilator(H)
            gens = reference._reduced_generators(G, R.elements)
            perp = by_elements[frozenset(
                s for s in G.elements()
                if all(abs(character(G, s, h) - 1.0) < 1e-9 for h in gens)
            )]
            assert_array_equal(A.indices, perp.indices)
            assert A.generators == reference._reduced_generators(G, perp.elements)
            assert quotient(G, H).coset_map.tolist() == _oracle_coset_map(G, R)

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
            lambda m: math.prod(m) <= 64
        )
    )
    def test_random_groups_match_object_closure(self, moduli):
        G = GroupSpec(tuple(moduli))
        _same_subgroup_lists(all_subgroups(G), reference.subgroups_by_closure(G))

    @settings(max_examples=20)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
            lambda m: math.prod(m) <= 64
        )
    )
    def test_random_quotients_and_transforms_match_oracles(self, moduli):
        G = GroupSpec(tuple(moduli))
        f = random_signal(G, np.random.default_rng(math.prod(moduli)))
        for H in all_subgroups(G):
            assert quotient(G, H).coset_map.tolist() == _oracle_coset_map(G, H)
            perp = annihilator(H)
            onto = quotient(G, perp)
            mu = restriction(f, H)
            assert_allclose(
                dft_subgroup(mu).values,
                reference.dft_subgroup_direct(mu, onto).values, rtol=0, atol=1e-12 * H.order)
            q = weil_map(f, perp)
            assert_allclose(
                dft_quotient(q).values,
                reference.dft_quotient_direct(q, H).values, rtol=0, atol=1e-12 * G.order)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3)
        .filter(lambda m: math.prod(m) <= 64)
        .flatmap(lambda m: st.tuples(
            st.just(tuple(m)),
            st.lists(st.tuples(*(st.integers(0, n - 1) for n in m)), min_size=1, max_size=3),
        ))
    )
    def test_random_generated_subgroups_match_closure(self, case):
        moduli, gens = case
        G = GroupSpec(moduli)
        H = subgroup_generated(G, gens)
        elements = sorted(reference._closure(G, [G.zero()], gens))
        assert_array_equal(H.indices, [G.index(x) for x in elements])
        assert H.generators == reference._reduced_generators(G, elements)

    def test_generated_subgroup_matches_closure(self):
        G = GroupSpec((4, 6))
        gens = [(1, 2), (2, 3)]
        H = subgroup_generated(G, gens)
        elements = reference._closure(G, [G.zero()], gens)
        assert H.elements == tuple(sorted(elements))

    def test_large_grid_subgroup_indices(self):
        H = grid_subgroup(GroupSpec((65536,)), 2)
        assert_array_equal(H.indices, np.arange(0, 65536, 2))
        assert H.axis_steps == (2,)
