"""Finite abelian groups and their duality structure.

A group is a product of cyclic factors Z_N1 x ... x Z_Nd.  Elements are
coordinate tuples reduced per axis and ordered lexicographically; the same
order fixes how signals index the group (row-major over the axes).  The dual
group is indexed by the same spec: frequency s acts through the character

    chi_s(x) = exp(2 pi i sum_j s_j x_j / N_j),

so subgroups, annihilators and quotients all live in one coordinate system,
and every subgroup is built one way: the box image of a triangular basis.
Character phases are integer residues mod L = lcm(N_j), which keeps algebraic
identities (annihilator membership, biduality, pure frequencies) exact, and
every character value is read off one table of the L roots of unity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DomainError, GroupMismatchError

__all__ = [
    "GroupSpec",
    "Subgroup",
    "QuotientSpec",
    "character",
    "character_vector",
    "subgroup_generated",
    "grid_subgroup",
    "annihilator",
    "quotient",
    "all_subgroups",
]


def _as_coords(value) -> tuple[int, ...]:
    if isinstance(value, (int, np.integer)):
        return (int(value),)
    return tuple(int(c) for c in value)


def _int_list(data, what: str) -> tuple[int, ...]:
    """A JSON list of integers; strings, bools and floats are rejected, not coerced."""
    if not isinstance(data, list) or not all(type(n) is int for n in data):
        raise TypeError(f"{what}, got {data!r}")
    return tuple(data)


@dataclass(frozen=True)
class GroupSpec:
    """Product of cyclic groups, given by the tuple of axis moduli."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        mod = _as_coords(self.moduli)
        if not mod:
            raise ValueError("a group needs at least one axis")
        if any(n < 1 for n in mod):
            raise ValueError(f"axis moduli must be >= 1, got {mod}")
        if math.prod(mod) > np.iinfo(np.intp).max:
            raise ValueError(f"group order is above {np.iinfo(np.intp).max}, the largest array index")
        object.__setattr__(self, "moduli", mod)

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def ndim(self) -> int:
        return len(self.moduli)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        # row-major: index = sum_j coords[j] * strides[j]
        strides = []
        acc = 1
        for n in reversed(self.moduli):
            strides.append(acc)
            acc *= n
        return tuple(reversed(strides))

    @cached_property
    def _char_lcm(self) -> int:
        return math.lcm(*self.moduli)

    @cached_property
    def _char_weights(self) -> np.ndarray:
        L = self._char_lcm
        return np.array([L // n for n in self.moduli], dtype=np.int64)

    @cached_property
    def _coords(self) -> np.ndarray:
        """All element coordinates, shape (order, ndim), canonical order."""
        grids = np.indices(self.moduli)
        arr = grids.reshape(self.ndim, -1).T.astype(np.int64)
        arr.setflags(write=False)
        return arr

    def element(self, coords) -> tuple[int, ...]:
        """Build an element, reducing each coordinate mod its axis modulus."""
        c = _as_coords(coords)
        if len(c) != self.ndim:
            raise GroupMismatchError(
                f"expected {self.ndim} coordinates, got {len(c)}"
            )
        return tuple(v % n for v, n in zip(c, self.moduli))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ndim

    def add(self, x, y) -> tuple[int, ...]:
        x, y = self.element(x), self.element(y)
        return tuple((a + b) % n for a, b, n in zip(x, y, self.moduli))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % n for a, n in zip(self.element(x), self.moduli))

    def index(self, x) -> int:
        """Canonical (row-major) index of an element."""
        return sum(c * s for c, s in zip(self.element(x), self._strides))

    def element_at(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise IndexError(f"index {index} out of range for group of order {self.order}")
        return tuple(self._coords[index].tolist())

    def _index_rows(self, coords) -> np.ndarray:
        """Canonical indices of integer coordinate rows (last axis), reduced per axis."""
        return np.asarray(coords) % np.array(self.moduli) @ np.array(self._strides)

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All elements in canonical (lexicographic) order."""
        return map(tuple, self._coords.tolist())

    def negation_permutation(self) -> np.ndarray:
        """Index permutation sending index(x) to index(-x)."""
        return self._index_rows(-self._coords)

    def to_json(self) -> list[int]:
        return list(self.moduli)

    @staticmethod
    def from_json(data) -> "GroupSpec":
        """Read the moduli list; strings, bools and floats are rejected, not coerced."""
        return GroupSpec(_int_list(data, "a group is a list of integer moduli"))

    def __repr__(self) -> str:
        return "Z" + "xZ".join(str(n) for n in self.moduli)


def character(group: GroupSpec, s, x) -> complex:
    """Value of the character chi_s at x, exp(2 pi i sum s_j x_j / N_j).

    The phase numerator is summed in Python integers and reduced mod lcm(N_j)
    before the exponential, so which characters and points give the same
    phase is exact at any order: membership in an annihilator and biduality
    do not drift.  The value is exp of that phase in floating point and still
    rounds: character(GroupSpec((4,)), 1, 1) is 6.1e-17+1j, not 1j.
    """
    L = group._char_lcm
    k = sum(a * b * (L // n) for a, b, n in zip(group.element(s), group.element(x), group.moduli))
    return complex(_roots_of_unity(k % L, L))


def _roots_of_unity(phases, L: int):
    """exp(2 pi i k / L) in complex128 for integer phases k: every character value is read off it."""
    return np.exp((2 * math.pi * 1j / L) * phases)


def _phases(group: GroupSpec, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Integer phases sum_j r_j c_j (L / N_j) mod L, L = lcm(N_j), for rows (m,d), cols (n,d),
    exact in int64 while |G|^2 < 2^63 (each term is below L N_j): every caller holds |G| entries."""
    return (rows * group._char_weights) @ cols.T % group._char_lcm


def _character_block(group: GroupSpec, rows, cols) -> np.ndarray:
    """Matrix exp(2 pi i <r, c>) for coordinate arrays rows (m,d), cols (n,d): reads of the L roots."""
    L = group._char_lcm
    return _roots_of_unity(np.arange(L), L)[_phases(group, rows, cols)]


def character_vector(group: GroupSpec, s) -> np.ndarray:
    """chi_s sampled over the whole group in canonical order."""
    return _character_block(group, np.array([group.element(s)]), group._coords)[0]


@dataclass(frozen=True, eq=False)
class Subgroup:
    """Subgroup stored as the sorted canonical parent indices of its elements.

    ``indices`` is the only store.  Row-major index order equals
    lexicographic coordinate order, so it lists the elements in sorted order.
    The constructor derives the generators, which checks that the indices are
    a subgroup's sorted elements; the membership mask, the coordinate rows,
    the element tuples, the annihilator and the quotient are derived on first
    use.  x is a member when ``mask[parent.index(x)]`` holds.
    """

    parent: GroupSpec
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        self.generators  # deriving them is the check that idx is a subgroup

    @property
    def order(self) -> int:
        return len(self.indices)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.coords_array.tolist()))

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Greedy generators: each is the least element outside the span of those before.

        Raises GroupMismatchError, from the constructor, unless that span is exactly the indices.
        """
        group, idx = self.parent, self.indices
        gens: list[tuple[int, ...]] = []
        inside = np.zeros(group.order, dtype=bool)
        inside[0] = True  # the span of no generators
        candidates = idx[(idx >= 0) & (idx < group.order)]
        # each step adds an element, so the loop ends on any index set, [0, 0] too
        while len(outside := candidates[~inside[candidates]]):
            gens.append(group.element_at(int(outside[0])))
            inside[_box_image(group, _triangular(group, gens))] = True
        if not np.array_equal(np.flatnonzero(inside), idx):
            raise GroupMismatchError(f"indices are not the sorted elements of a subgroup of {group!r}")
        return tuple(gens)

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean membership mask over the parent's canonical order."""
        m = np.zeros(self.parent.order, dtype=bool)
        m[self.indices] = True
        m.setflags(write=False)
        return m

    @cached_property
    def coords_array(self) -> np.ndarray:
        arr = self.parent._coords[self.indices]
        arr.setflags(write=False)
        return arr

    @cached_property
    def axis_steps(self) -> tuple[int, ...] | None:
        """Per-axis steps (a_1, ..., a_d) if this is the grid a_1 Z x ... x a_d Z.

        Returns None when the subgroup is not a product of per-axis cyclic
        subgroups (a diagonal, say).  Step N_j means the axis is collapsed
        to {0}.
        """
        steps = tuple(
            math.gcd(n, int(np.gcd.reduce(self.coords_array[:, j])))
            for j, n in enumerate(self.parent.moduli)
        )
        expected = math.prod(n // a for n, a in zip(self.parent.moduli, steps))
        return steps if expected == self.order else None

    @cached_property
    def _annihilator(self) -> "Subgroup":
        group = self.parent
        gens = np.array(self.generators, dtype=np.int64).reshape(-1, group.ndim)
        phases = _phases(group, group._coords, gens)
        return Subgroup(group, np.flatnonzero(np.all(phases == 0, axis=1)))

    @cached_property
    def _quotient(self) -> "QuotientSpec":
        group, reps = self.parent, self.parent._coords
        for i, row in enumerate(_triangular(group, self.generators)):
            reps = (reps - (reps[:, i] // row[i])[:, None] * row) % group.moduli
        label = group._index_rows(reps)
        is_rep = label == np.arange(group.order)
        rep_indices = np.flatnonzero(is_rep)
        coset_map = (np.cumsum(is_rep) - 1)[label]
        rep_indices.setflags(write=False)
        coset_map.setflags(write=False)
        return QuotientSpec(self, rep_indices, coset_map)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.indices.tobytes() == other.indices.tobytes()

    def __hash__(self) -> int:
        return hash((self.parent, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent!r})"


def _triangular(group: GroupSpec, rows) -> np.ndarray:
    """Upper-triangular basis B, B_jj | N_j, of the subgroup that reduced coordinate rows generate.

    Euclid's steps on whole rows, the rows N_j e_j among them, clear each column
    but one pivot row; reducing mod N adds only multiples of rows N_k e_k not yet used.
    """
    rows = [list(r) for r in rows] + np.diag(group.moduli).tolist()
    basis = []
    for j in range(group.ndim):
        while len(live := [r for r in rows if r[j]]) > 1:
            p = min(live, key=lambda r: r[j])
            for r in live:
                q = r[j] // p[j] if r is not p else 0
                r[j:] = [(a - q * b) % n for a, b, n in zip(r[j:], p[j:], group.moduli[j:])]
        basis.append(live[0])
        rows.remove(live[0])
    return np.array(basis, dtype=np.int64)


def _box_image(group: GroupSpec, basis: np.ndarray) -> np.ndarray:
    """Sorted indices of kB mod N over the box 0 <= k_i < N_i / B_ii, B triangular.

    Each element appears once: at the first axis i where k and k' differ,
    kB - k'B is (k_i - k'_i) B_ii, which is not 0 mod N_i.
    """
    box = GroupSpec(tuple(n // int(h) for n, h in zip(group.moduli, np.diag(basis))))
    return np.sort(group._index_rows(box._coords @ basis)).astype(np.intp)


def subgroup_generated(group: GroupSpec, generators) -> Subgroup:
    """Smallest subgroup containing the given generators, from their triangular basis.

    Only the elements are kept: the result's ``generators`` are its own
    greedy set, not the ones given here.
    """
    return Subgroup(group, _box_image(group, _triangular(group, map(group.element, generators))))


def _grid_steps(group: GroupSpec, steps) -> tuple[int, ...]:
    """Per-axis steps from a scalar or a tuple, each dividing its axis modulus."""
    if isinstance(steps, (int, np.integer)):
        steps = (int(steps),) * group.ndim
    steps = tuple(int(a) for a in steps)
    if len(steps) != group.ndim:
        raise GroupMismatchError(f"expected {group.ndim} steps, got {len(steps)}")
    for a, n in zip(steps, group.moduli):
        if a < 1 or n % a != 0:
            raise GroupMismatchError(f"step {a} does not divide the axis modulus {n}")
    return steps


def grid_subgroup(group: GroupSpec, steps) -> Subgroup:
    """Product of per-axis cyclic subgroups a_1 Z_N1 x ... x a_d Z_Nd.

    A scalar step applies to every axis.  Each step must divide its axis
    modulus; step N_j collapses that axis to {0}.  Factor subgroups such as
    Z_N1 x {0} (the discrete stand-in for a continuous-direction subgroup)
    are the steps (1, N2) case.
    """
    return Subgroup(group, _box_image(group, np.diag(_grid_steps(group, steps))))


def annihilator(subgroup: Subgroup) -> Subgroup:
    """Frequencies whose character is 1 on the whole subgroup.

    Membership is decided in integer arithmetic: s annihilates H iff
    lcm | sum_j s_j h_j (lcm / N_j) for every generator h.  The result
    satisfies |H| * |annihilator(H)| = |G| and annihilator(annihilator(H)) = H.
    Computed once per subgroup, from the greedy generators derived from its
    indices.
    """
    return subgroup._annihilator


@dataclass(frozen=True, eq=False)
class QuotientSpec:
    """Quotient G/H with one canonical representative per coset.

    Representatives are the lexicographic minima of their cosets, stored as
    their sorted canonical parent indices ``rep_indices``; ``coset_map`` sends
    each canonical parent index to the position of its coset's
    representative, so x lies in coset ``coset_map[parent.index(x)]``.  The
    representatives as element tuples are derived on first use.
    """

    subgroup: Subgroup
    rep_indices: np.ndarray = field(repr=False)
    coset_map: np.ndarray = field(repr=False)

    @property
    def parent(self) -> GroupSpec:
        return self.subgroup.parent

    @property
    def size(self) -> int:
        return len(self.rep_indices)

    @cached_property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.parent._coords[self.rep_indices].tolist()))

    def __repr__(self) -> str:
        return f"QuotientSpec({self.parent!r} / order-{self.subgroup.order} subgroup, {self.size} cosets)"


def quotient(group: GroupSpec, subgroup: Subgroup) -> QuotientSpec:
    """Quotient of the group by a subgroup, with lex-min coset representatives.

    Each element is labelled with the index of its coset's lex-min member,
    its reduction by a triangular basis B of the subgroup: row i brings
    coordinate i into [0, B_ii) and leaves those before it.  Computed once per subgroup.
    """
    if subgroup.parent != group:
        raise GroupMismatchError("subgroup belongs to a different group")
    return subgroup._quotient


_ENUMERATION_BOUND = 4096


def _normal_forms(group: GroupSpec, form: np.ndarray, i: int) -> Iterator[np.ndarray]:
    """Hermite normal forms of the subgroups that agree with form below row i.

    Row i is (0, ..., h_i, o_i,i+1, ...) with h_i | N_i and 0 <= o_ij < h_j,
    and (N_i / h_i) times row i must lie in the span of the rows below it, so
    that the lattice contains diag(N) Z^d.  Rows up to i of form are N_k e_k.
    """
    n = group.moduli[i]
    inside = np.zeros(group.order, dtype=bool)
    inside[_box_image(group, form)] = True
    offsets = GroupSpec((1,) * (i + 1) + tuple(np.diag(form)[i + 1:].tolist()))._coords
    for h in (h for h in range(1, n + 1) if n % h == 0):
        for o in offsets[inside[group._index_rows(n // h * offsets)]]:
            filled = form.copy()
            filled[i] = o
            filled[i, i] = h
            yield from _normal_forms(group, filled, i - 1) if i else [filled]


def all_subgroups(group: GroupSpec) -> list[Subgroup]:
    """Every subgroup, sorted by order and then by sorted element list.

    Each subgroup is the box image of its one Hermite normal form, so nothing
    is searched or deduplicated.  The group order, and then the number of
    forms, counted before any subgroup is built, are held to the bound.
    """
    if group.order > _ENUMERATION_BOUND:
        raise DomainError(f"group order {group.order} exceeds the enumeration bound {_ENUMERATION_BOUND}")
    forms = _normal_forms(group, np.diag(group.moduli), group.ndim - 1)
    forms = list(itertools.islice(forms, _ENUMERATION_BOUND + 1))
    if len(forms) > _ENUMERATION_BOUND:
        raise DomainError(f"subgroup count of {group!r} exceeds the enumeration bound {_ENUMERATION_BOUND}")
    out = [Subgroup(group, _box_image(group, form)) for form in forms]
    out.sort(key=lambda h: (h.order, h.indices.tolist()))
    return out
