"""Slow reference implementations used as oracles.

Everything here is written from the defining sums, with exact integer
character phases and no FFT shortcuts, and none of it calls the kernels it
checks; the fast paths are tested against these at small sizes and the
runtime verify suites reuse them.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import COUNTING, FourierConvention
from .gabor import GaborSystem, TFLattice
from .groups import GroupElement, GroupSpec, Subgroup, _character_block
from .signals import Signal, tf_shift, translate

__all__ = [
    "naive_dft",
    "naive_idft",
    "stft_direct",
    "synthesis_matrix",
    "frame_apply_direct",
    "frame_matrix_dense",
    "subgroups_by_closure",
    "translate_sum_direct",
]


def _dft_matrix(group: GroupSpec) -> np.ndarray:
    return np.conj(_character_block(group, group._coords, group._coords))


def naive_dft(f: Signal, convention: FourierConvention = COUNTING) -> Signal:
    """O(|G|^2) transform straight from the definition."""
    out = _dft_matrix(f.group) @ f.values
    if convention.normalization == "unitary":
        out = out / math.sqrt(f.group.order)
    return Signal(f.group, out)


def naive_idft(f: Signal, convention: FourierConvention = COUNTING) -> Signal:
    out = np.conj(_dft_matrix(f.group)) @ f.values
    if convention.normalization == "unitary":
        out = out / math.sqrt(f.group.order)
    else:
        out = out / f.group.order
    return Signal(f.group, out)


def stft_direct(f: Signal, window: Signal) -> np.ndarray:
    """Full STFT grid by the double sum; O(|G|^3), small groups only."""
    group = f.group
    n = group.order
    W = _dft_matrix(group)
    out = np.empty((n, n), dtype=np.complex128)
    wgrid = window.grid()
    axes = tuple(range(group.ndim))
    for ti in range(n):
        t = group.element_at(ti)
        shifted = np.roll(wgrid, shift=t.coords, axis=axes).reshape(-1)
        out[ti] = W @ (f.values * np.conj(shifted))
    return out


def synthesis_matrix(window: Signal, lattice: TFLattice) -> np.ndarray:
    """Dense synthesis operator: columns are pi(lambda) g = M_s T_t g in lattice order."""
    group = lattice.group
    shifted = np.stack([translate(window, t).values for t in lattice.time_lattice.coords_array])
    chars = _character_block(group, lattice.freq_lattice.coords_array, group._coords)
    return (shifted[:, None, :] * chars[None, :, :]).reshape(lattice.size, group.order).T


def frame_apply_direct(system: GaborSystem, f: Signal) -> Signal:
    """Frame operator straight from the definition, one atom at a time."""
    out = np.zeros(f.group.order, dtype=np.complex128)
    for t, s in system.lattice.points():
        atom = tf_shift(system.window, t, s).values
        out += np.vdot(atom, f.values) * atom
    return Signal(f.group, out)


def frame_matrix_dense(system: GaborSystem) -> np.ndarray:
    """Dense |G| x |G| frame operator S = M M^H, M the synthesis matrix."""
    M = synthesis_matrix(system.window, system.lattice)
    S = M @ M.conj().T
    return (S + S.conj().T) / 2


def _closure(group: GroupSpec, seed, extra) -> set[GroupElement]:
    """Additive closure of seed (already closed or arbitrary) and extra generators."""
    seen = set(seed)
    seen.add(group.zero())
    frontier = list(seen)
    gens = list(extra)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.add(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _reduced_generators(group: GroupSpec, elements) -> tuple[GroupElement, ...]:
    """Greedy small generating set for a subgroup given as an element list."""
    gens: list[GroupElement] = []
    span: set[GroupElement] = {group.zero()}
    for e in sorted(elements):
        if e not in span:
            gens.append(e)
            span = _closure(group, span, [e])
    return tuple(gens)


def subgroups_by_closure(group: GroupSpec) -> list[Subgroup]:
    """Every subgroup, by breadth-first closure over GroupElement objects.

    Brute force: each found subgroup is closed again under every element it
    misses.  Sorted by (order, sorted elements) with greedy generators, the
    contract of groups.all_subgroups.
    """
    triv = frozenset([group.zero()])
    found = {triv}
    queue = [triv]
    all_elems = list(group.elements())
    while queue:
        current = queue.pop()
        for x in all_elems:
            if x not in current:
                bigger = frozenset(_closure(group, current, [x]))
                if bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)
    out = [
        Subgroup(group, _reduced_generators(group, e), [group.index(x) for x in sorted(e)])
        for e in found
    ]
    out.sort(key=lambda h: (h.order, h.elements))
    return out


def translate_sum_direct(f: Signal, lattice: Subgroup) -> np.ndarray:
    """sum over t in the lattice of T_t f, one translate per lattice point."""
    out = np.zeros(f.group.order, dtype=np.complex128)
    for t in lattice.coords_array:
        out += translate(f, t).values
    return out
