"""Finite abelian groups and their duality structure.

A group is a product of cyclic factors Z_N1 x ... x Z_Nd.  Elements are
coordinate tuples reduced per axis and ordered lexicographically; the same
order fixes how signals index the group (row-major over the axes).  The dual
group is indexed by the same spec: frequency s acts through the character

    chi_s(x) = exp(2 pi i sum_j s_j x_j / N_j),

so subgroups, annihilators and quotients all live in one coordinate system.
Character phases are computed from integer residues mod lcm(N_j), which keeps
algebraic identities (annihilator membership, biduality, restriction of pure
frequencies) exact rather than float-approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DomainError, GroupMismatchError

__all__ = [
    "GroupSpec",
    "GroupElement",
    "Subgroup",
    "QuotientSpec",
    "character",
    "character_vector",
    "subgroup_generated",
    "grid_subgroup",
    "trivial_subgroup",
    "full_subgroup",
    "annihilator",
    "quotient",
    "all_subgroups",
]


@dataclass(frozen=True, order=True)
class GroupElement:
    """Point of a finite abelian group: reduced coordinates, one per axis."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __getitem__(self, j: int) -> int:
        return self.coords[j]

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return f"GroupElement{self.coords}"


def _as_coords(value) -> tuple[int, ...]:
    if isinstance(value, GroupElement):
        return value.coords
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

    def element(self, coords) -> GroupElement:
        """Build an element, reducing each coordinate mod its axis modulus."""
        c = _as_coords(coords)
        if len(c) != self.ndim:
            raise GroupMismatchError(
                f"expected {self.ndim} coordinates, got {len(c)}"
            )
        return GroupElement(tuple(v % n for v, n in zip(c, self.moduli)))

    def zero(self) -> GroupElement:
        return GroupElement((0,) * self.ndim)

    def check(self, x: GroupElement) -> GroupElement:
        """Validate that x is a reduced element of this group."""
        if not isinstance(x, GroupElement):
            return self.element(x)
        if len(x.coords) != self.ndim:
            raise GroupMismatchError(
                f"element has {len(x.coords)} coordinates, group has {self.ndim} axes"
            )
        if any(not 0 <= c < n for c, n in zip(x.coords, self.moduli)):
            return self.element(x.coords)
        return x

    def add(self, x, y) -> GroupElement:
        x, y = self.check(x), self.check(y)
        return GroupElement(
            tuple((a + b) % n for a, b, n in zip(x.coords, y.coords, self.moduli))
        )

    def neg(self, x) -> GroupElement:
        x = self.check(x)
        return GroupElement(tuple((-a) % n for a, n in zip(x.coords, self.moduli)))

    def sub(self, x, y) -> GroupElement:
        return self.add(x, self.neg(y))

    def index(self, x) -> int:
        """Canonical (row-major) index of an element."""
        x = self.check(x)
        return sum(c * s for c, s in zip(x.coords, self._strides))

    def element_at(self, index: int) -> GroupElement:
        if not 0 <= index < self.order:
            raise IndexError(f"index {index} out of range for group of order {self.order}")
        return GroupElement(self._coords[index])

    def _index_rows(self, coords) -> np.ndarray:
        """Canonical indices of integer coordinate rows (last axis), reduced per axis."""
        return np.asarray(coords) % np.array(self.moduli) @ np.array(self._strides)

    def elements(self) -> Iterator[GroupElement]:
        """All elements in canonical (lexicographic) order."""
        for row in self._coords:
            yield GroupElement(tuple(int(v) for v in row))

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

    The phase numerator is reduced as an integer mod lcm(N_j) before the
    exponential, so rational phases that are exactly 0, 1/2, etc. evaluate
    without drift.
    """
    s, x = group.check(s), group.check(x)
    L = group._char_lcm
    k = sum(
        sj * xj * w for sj, xj, w in zip(s.coords, x.coords, group._char_weights)
    ) % L
    return complex(np.exp(2j * np.pi * (int(k) / L)))


def _character_block(group: GroupSpec, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix exp(2 pi i <r, c>) for coordinate arrays rows (m,d), cols (n,d)."""
    L = group._char_lcm
    K = (rows * group._char_weights) @ cols.T % L
    return np.exp((2j * np.pi / L) * K)


def character_vector(group: GroupSpec, s) -> np.ndarray:
    """chi_s sampled over the whole group in canonical order."""
    s = group.check(s)
    row = np.array([s.coords], dtype=np.int64)
    return _character_block(group, row, group._coords)[0]


@dataclass(frozen=True, eq=False)
class Subgroup:
    """Subgroup stored as the sorted canonical parent indices of its elements.

    ``indices`` is the only element store.  Row-major index order equals
    lexicographic coordinate order, so it lists the elements in sorted order;
    the membership mask, the coordinate rows, the ``GroupElement`` views, the
    annihilator and the quotient are derived from it on first use.
    """

    parent: GroupSpec
    generators: tuple[GroupElement, ...]
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def order(self) -> int:
        return len(self.indices)

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(row) for row in self.coords_array.tolist())

    @cached_property
    def element_set(self) -> frozenset[GroupElement]:
        return frozenset(self.elements)

    def contains(self, x) -> bool:
        return bool(self.mask[self.parent.index(x)])

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

    def position(self, x) -> int:
        """Position of x inside the sorted element list."""
        x = self.parent.check(x)
        if not self.contains(x):
            raise GroupMismatchError(f"{x!r} is not in the subgroup")
        return int(np.searchsorted(self.indices, self.parent.index(x)))

    def to_json(self) -> dict:
        return {
            "group": self.parent.to_json(),
            "generators": [list(g.coords) for g in self.generators],
        }

    @staticmethod
    def from_json(data) -> "Subgroup":
        group = GroupSpec.from_json(data["group"])
        return subgroup_generated(group, data.get("generators", []))

    @cached_property
    def _annihilator(self) -> "Subgroup":
        group = self.parent
        if not np.array_equal(subgroup_generated(group, self.generators).indices, self.indices):
            raise GroupMismatchError("subgroup generators do not generate its elements")
        L = group._char_lcm
        gens = self.generators if self.generators else (group.zero(),)
        gcoords = np.array([g.coords for g in gens], dtype=np.int64)
        phases = (group._coords * group._char_weights) @ gcoords.T % L
        indices = np.flatnonzero(np.all(phases == 0, axis=1))
        return Subgroup(group, _reduced_generators(group, indices), indices)

    @cached_property
    def _quotient(self) -> "QuotientSpec":
        group = self.parent
        own = np.arange(group.order)
        label = own
        for g in self.generators:
            shift = group._index_rows(group._coords + g.coords)
            g_order = math.lcm(*(n // math.gcd(n, c) for n, c in zip(group.moduli, g.coords)))
            for _ in range((g_order - 1).bit_length()):
                label = np.minimum(label, label[shift])
                shift = shift[shift]
        is_rep = label == own
        rep_indices = np.flatnonzero(is_rep)
        if np.any(label[self.indices]) or len(rep_indices) * self.order != group.order:
            raise GroupMismatchError("subgroup generators do not generate its elements")
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
        gens = ",".join(str(tuple(g.coords)) for g in self.generators) or "0"
        return f"Subgroup(<{gens}> of {self.parent!r}, order {self.order})"


def _join(group: GroupSpec, indices: np.ndarray, g) -> np.ndarray:
    """Sorted indices of H + <g>, for H given by its sorted indices.

    With k the least k > 0 such that k g lies in H, the cosets H + j g for
    0 <= j < k are disjoint and cover the join, so one broadcast lists every
    element exactly once.
    """
    g = np.asarray(g, dtype=np.int64)
    member = np.zeros(group.order, dtype=bool)
    member[indices] = True
    # the exponent lcm(N_j) kills g, so the multiples up to it contain k g
    multiples = group._index_rows(np.arange(1, group._char_lcm + 1)[:, None] * g)
    k = int(np.argmax(member[multiples])) + 1
    shifts = np.arange(k)[:, None, None] * g
    cosets = group._index_rows(group._coords[indices][None, :, :] + shifts)
    return np.sort(cosets, axis=None).astype(np.intp)


def _reduced_generators(group: GroupSpec, indices: np.ndarray) -> tuple[GroupElement, ...]:
    """Greedy small generating set: repeatedly add the least element outside the span."""
    gens: list[GroupElement] = []
    span = np.zeros(1, dtype=np.intp)
    while len(span) < len(indices):
        i = indices[np.argmin(np.isin(indices, span, assume_unique=True))]
        gens.append(group.element_at(int(i)))
        span = _join(group, span, group._coords[i])
    return tuple(gens)


def subgroup_generated(group: GroupSpec, generators) -> Subgroup:
    """Smallest subgroup containing the given generators.

    Built by joining one generator at a time; in a finite group every
    element's negation is one of its own multiples, so the joins are closed.
    """
    gens = tuple(group.element(g) for g in generators)
    indices = np.zeros(1, dtype=np.intp)
    for g in gens:
        indices = _join(group, indices, g.coords)
    return Subgroup(group, gens, indices)


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
    steps = _grid_steps(group, steps)
    # one generator a_j e_j per axis that is not collapsed
    gens = [row for row, a, n in zip(np.diag(steps), steps, group.moduli) if a < n]
    return subgroup_generated(group, gens)


def trivial_subgroup(group: GroupSpec) -> Subgroup:
    return subgroup_generated(group, [])


def full_subgroup(group: GroupSpec) -> Subgroup:
    return grid_subgroup(group, 1)


def annihilator(subgroup: Subgroup) -> Subgroup:
    """Frequencies whose character is 1 on the whole subgroup.

    Membership is decided in integer arithmetic: s annihilates H iff
    lcm | sum_j s_j h_j (lcm / N_j) for every generator h.  The result
    satisfies |H| * |annihilator(H)| = |G| and annihilator(annihilator(H)) = H.
    Computed once per subgroup, from its own generators, checked to span it.
    """
    return subgroup._annihilator


@dataclass(frozen=True, eq=False)
class QuotientSpec:
    """Quotient G/H with one canonical representative per coset.

    Representatives are the lexicographic minima of their cosets, stored as
    their sorted canonical parent indices ``rep_indices``; ``coset_map`` sends
    each canonical parent index to the position of its coset's
    representative.  The ``GroupElement`` view is derived on first use.
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
    def representatives(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(row) for row in self.parent._coords[self.rep_indices].tolist())

    def coset_index(self, x) -> int:
        return int(self.coset_map[self.parent.index(x)])

    def coset_rep(self, x) -> GroupElement:
        return self.representatives[self.coset_index(x)]

    def __repr__(self) -> str:
        return f"QuotientSpec({self.parent!r} / order-{self.subgroup.order} subgroup, {self.size} cosets)"


def quotient(group: GroupSpec, subgroup: Subgroup) -> QuotientSpec:
    """Quotient of the group by a subgroup, with lex-min coset representatives.

    Each element is labelled with the least (row-major, so lex-min) index of
    its coset: per generator g, label(x) = min(label(x), label(x + 2^k g)) for
    each 2^k below the order of g reaches every multiple of g.  Computed once per subgroup.
    """
    if subgroup.parent != group:
        raise GroupMismatchError("subgroup belongs to a different group")
    return subgroup._quotient


_ENUMERATION_MAX_ORDER = 4096


def all_subgroups(group: GroupSpec) -> list[Subgroup]:
    """Every subgroup, sorted by order and then by sorted element list.

    Every subgroup is a join of cyclic subgroups, so a breadth-first search
    from the trivial subgroup that joins each found subgroup with one
    generator per distinct cyclic subgroup reaches them all.  Subgroups are
    keyed by their index bytes; the desk-scale bound on |G| stays.
    """
    if group.order > _ENUMERATION_MAX_ORDER:
        raise DomainError(
            f"group order {group.order} exceeds the enumeration bound {_ENUMERATION_MAX_ORDER}"
        )
    trivial = np.zeros(1, dtype=np.intp)
    cyclic: dict[bytes, np.ndarray] = {}
    for x in group._coords[1:]:
        cyclic.setdefault(_join(group, trivial, x).tobytes(), x)
    found = {trivial.tobytes(): trivial}
    queue = [trivial]
    while queue:
        current = queue.pop()
        for x in cyclic.values():
            bigger = _join(group, current, x)
            key = bigger.tobytes()
            if key not in found:
                found[key] = bigger
                queue.append(bigger)
    out = [
        Subgroup(group, _reduced_generators(group, idx), idx) for idx in found.values()
    ]
    out.sort(key=lambda h: (h.order, h.indices.tolist()))
    return out
