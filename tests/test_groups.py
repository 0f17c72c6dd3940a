import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mildspec import (
    GroupMismatchError,
    GroupSpec,
    Subgroup,
    all_subgroups,
    annihilator,
    character,
    character_vector,
    dft_quotient,
    dft_subgroup,
    full_subgroup,
    grid_subgroup,
    quotient,
    random_signal,
    restriction,
    subgroup_generated,
    trivial_subgroup,
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

    def test_element_reduction(self):
        G = GroupSpec((4, 6))
        assert G.element((5, -1)).coords == (1, 5)
        with pytest.raises(ValueError):
            G.element(7)  # scalar shorthand is for one-axis groups only

    def test_scalar_element_on_1d(self):
        G = GroupSpec((8,))
        assert G.element(11).coords == (3,)

    def test_arithmetic(self):
        G = GroupSpec((4, 6))
        x, y = G.element((3, 5)), G.element((2, 4))
        assert G.add(x, y).coords == (1, 3)
        assert G.sub(x, y).coords == (1, 1)
        assert G.add(x, G.neg(x)) == G.zero()

    def test_canonical_order_is_row_major(self):
        G = GroupSpec((2, 3))
        coords = [e.coords for e in G.elements()]
        assert coords == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
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

    def test_unit_modulus(self):
        G = GroupSpec((7,))
        for s in G.elements():
            assert_allclose(np.abs(character_vector(G, s)), 1.0, atol=1e-14)


class TestSubgroups:
    def test_generated_by_two_in_z8(self):
        G = GroupSpec((8,))
        H = subgroup_generated(G, [G.element(2)])
        assert [e.coords[0] for e in H.elements] == [0, 2, 4, 6]
        assert H.order == 4

    def test_generated_by_nothing(self):
        G = GroupSpec((8,))
        H = subgroup_generated(G, [])
        assert H.order == 1
        assert H.elements[0] == G.zero()

    def test_diagonal_in_z4xz4(self):
        G = GroupSpec((4, 4))
        H = subgroup_generated(G, [G.element((1, 1))])
        assert sorted(e.coords for e in H.elements) == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert H.axis_steps is None  # not a per-axis grid

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
        assert H.position(G.element(4)) == 2
        assert H.contains(G.element(6)) and not H.contains(G.element(3))
        with pytest.raises(GroupMismatchError):
            H.position(G.element(3))

    def test_subgroup_json_roundtrip(self):
        G = GroupSpec((4, 6))
        H = grid_subgroup(G, (2, 3))
        from mildspec import Subgroup

        assert Subgroup.from_json(H.to_json()) == H


class TestAnnihilator:
    def test_even_subgroup_of_z8(self):
        G = GroupSpec((8,))
        H = subgroup_generated(G, [G.element(2)])
        perp = annihilator(H)
        assert [e.coords[0] for e in perp.elements] == [0, 4]

    def test_trivial_and_full(self):
        G = GroupSpec((8,))
        assert annihilator(trivial_subgroup(G)).order == 8
        assert annihilator(full_subgroup(G)).order == 1

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
        assert [r.coords[0] for r in Q.representatives] == [0, 1, 2, 3]
        assert Q.size == 4

    def test_quotient_by_trivial(self):
        G = GroupSpec((8,))
        Q = quotient(G, trivial_subgroup(G))
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
                rep = Q.representatives[Q.coset_map[i]]
                assert Q.coset_rep(x) == rep
                assert G.sub(x, rep) in H.element_set

    def test_representatives_are_lex_minimal(self):
        G = GroupSpec((12,))
        H = grid_subgroup(G, 3)
        Q = quotient(G, H)
        assert [r.coords[0] for r in Q.representatives] == [0, 1, 2]

    def test_generators_must_generate_the_elements(self):
        # quotient labels and annihilator phases follow the generators, so
        # they must span the stored elements; [0, 3] is not even a subgroup
        G = GroupSpec((8,))
        for generators, indices in [((), [0, 4]), ((2,), [0, 4]), ((3,), [0, 3])]:
            H = Subgroup(G, tuple(G.element(g) for g in generators), indices)
            with pytest.raises(GroupMismatchError, match="do not generate its elements"):
                quotient(G, H)
            with pytest.raises(GroupMismatchError, match="do not generate its elements"):
                annihilator(H)

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
         ((16, 16), 83)],
    )
    def test_counts(self, moduli, count):
        # counts cross-checked against brute-force closure enumeration; the
        # Z16 x Z16 count is from Hampejs, Holighaus, Toth & Wiesmeyr (J. Numbers 2014)
        assert len(all_subgroups(GroupSpec(moduli))) == count

    def test_each_is_closed(self):
        G = GroupSpec((4, 6))
        for H in all_subgroups(G):
            members = H.element_set
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
        assert H.generators == R.generators


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
        by_elements = {R.element_set: R for R in oracle}
        for H, R in zip(fast, oracle):
            assert H.axis_steps == R.axis_steps
            assert H.elements == R.elements
            A = annihilator(H)
            perp = by_elements[frozenset(
                s for s in G.elements()
                if all(abs(character(G, s, h) - 1.0) < 1e-9 for h in R.generators)
            )]
            assert_array_equal(A.indices, perp.indices)
            assert A.generators == perp.generators
            assert quotient(G, H).coset_map.tolist() == _oracle_coset_map(G, R)

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
            lambda m: math.prod(m) <= 64
        )
    )
    def test_random_groups_match_object_closure(self, moduli):
        G = GroupSpec(tuple(moduli))
        _same_subgroup_lists(all_subgroups(G), reference.subgroups_by_closure(G))

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
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

    def test_generated_subgroup_matches_closure(self):
        G = GroupSpec((4, 6))
        H = subgroup_generated(G, [(1, 2), (2, 3)])
        elements = reference._closure(G, [G.zero()], H.generators)
        assert H.elements == tuple(sorted(elements))

    def test_large_grid_subgroup_indices(self):
        H = grid_subgroup(GroupSpec((65536,)), 2)
        assert_array_equal(H.indices, np.arange(0, 65536, 2))
        assert H.axis_steps == (2,)
