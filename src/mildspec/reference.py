"""Slow reference implementations used as oracles.

Everything here is written from the defining sums, with exact integer
character phases and no FFT shortcuts, and none of it calls the kernels it
checks; the fast paths are tested against these at small sizes and the
runtime verify suites reuse them.  Two exceptions are second FFT routes
that share nothing with the kernel they check: stft_columns, the STFT read
on the frequency side, checks gabor's shifted-window fold at orders where
the defining sums cannot run, and extension_by_convolution, the weighted
comb convolved with phi, checks approx's double sum of translates.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import GroupMismatchError
from .fourier import COUNTING, FourierConvention, adjoint_restriction
from .gabor import _BLOCK_CELLS, GaborSystem, TFLattice, _row_blocks
from .groups import GroupElement, GroupSpec, QuotientSpec, Subgroup, _character_block
from .signals import QuotientSignal, Signal, SubgroupSignal, tf_shift, translate

__all__ = [
    "naive_dft",
    "naive_idft",
    "stft_direct",
    "stft_columns",
    "dft_subgroup_direct",
    "dft_quotient_direct",
    "synthesis_matrix",
    "frame_apply_direct",
    "frame_matrix",
    "frame_matrix_dense",
    "subgroups_by_closure",
    "translate_sum_direct",
    "extension_by_convolution",
]


def _character_sum(
    group: GroupSpec, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, sign: int = -1
) -> np.ndarray:
    """sum_c exp(sign 2 pi i <r, c>) values[c] for each coordinate row r.

    Phases are exact integer residues mod lcm(N_j).  The character table is
    built one block of rows at a time, at most _BLOCK_CELLS entries at once;
    values may carry trailing columns, summed alike.
    """
    out = np.empty((len(rows),) + values.shape[1:], dtype=np.complex128)
    step = max(1, _BLOCK_CELLS // len(cols))
    for start in range(0, len(rows), step):
        table = _character_block(group, rows[start:start + step], cols)
        out[start:start + step] = (np.conj(table) if sign < 0 else table) @ values
    return out


def naive_dft(f: Signal, convention: FourierConvention = COUNTING) -> Signal:
    """O(|G|^2) transform straight from the definition."""
    coords = f.group._coords
    out = _character_sum(f.group, coords, coords, f.values)
    if convention.normalization == "unitary":
        out = out / math.sqrt(f.group.order)
    return Signal(f.group, out)


def naive_idft(f: Signal, convention: FourierConvention = COUNTING) -> Signal:
    coords = f.group._coords
    out = _character_sum(f.group, coords, coords, f.values, sign=1)
    if convention.normalization == "unitary":
        out = out / math.sqrt(f.group.order)
    else:
        out = out / f.group.order
    return Signal(f.group, out)


def stft_direct(f: Signal, window: Signal) -> np.ndarray:
    """Full STFT grid by the double sum; O(|G|^3), small groups only."""
    group = f.group
    wgrid = window.grid()
    axes = tuple(range(group.ndim))
    # column t holds f * conj(T_t g)
    windowed = np.stack([
        f.values * np.conj(np.roll(wgrid, shift=t, axis=axes).reshape(-1))
        for t in group._coords.tolist()
    ], axis=1)
    return _character_sum(group, group._coords, group._coords, windowed).T


def stft_columns(f: Signal, window: Signal) -> Iterator[tuple[slice, np.ndarray]]:
    """Full STFT grid by columns, one block of frequencies at a time.

    Yields (block, V) with V[x, j] = V_g f(x, s_j) for every time x and the
    frequencies s_j of the block, both in element order.  At a fixed s the
    STFT is the correlation of f chi_{-s} with g, so on the frequency side

        V_g f(., s) = IFFT(f^(. + s) conj g^),

    one inverse FFT of size |G| per column, with no shifted window and no
    fold.  The blocks are the row blocks of gabor's kernel on the full
    lattice, so a column block pairs with the row block of the same slice.
    """
    group = f.group
    if window.group != group:
        raise GroupMismatchError("window and signal live on different groups")
    fhat = np.fft.fftn(f.grid()).reshape(-1)
    ghat_conj = np.conj(np.fft.fftn(window.grid())).reshape(-1)
    coords = group._coords
    axes = tuple(range(1, group.ndim + 1))
    for block in _row_blocks(group.order, group.order):
        # row j holds f^(w + s_j) for every w
        spectra = fhat[group._index_rows(coords[None, :, :] + coords[block, None, :])]
        np.multiply(spectra, ghat_conj, out=spectra)
        spectra = spectra.reshape((-1,) + group.moduli)
        cols = np.fft.ifftn(spectra, axes=axes, out=spectra)
        yield block, cols.reshape(len(cols), -1).T


def dft_subgroup_direct(mu: SubgroupSignal, onto: QuotientSpec) -> QuotientSignal:
    """Transform on H by the defining sum over H, at the representatives of G^/H-perp."""
    group = mu.subgroup.parent
    reps = group._coords[onto.rep_indices]
    return QuotientSignal(onto, _character_sum(group, reps, mu.subgroup.coords_array, mu.values))


def dft_quotient_direct(q: QuotientSignal, onto: Subgroup) -> SubgroupSignal:
    """Transform on G/H by the defining sum over the representatives, at H-perp."""
    group = onto.parent
    reps = group._coords[q.quotient.rep_indices]
    return SubgroupSignal(onto, _character_sum(group, onto.coords_array, reps, q.values))


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


def frame_matrix(M: np.ndarray) -> np.ndarray:
    """Dense |G| x |G| frame operator S = M M^H of a synthesis matrix M."""
    S = M @ M.conj().T
    return (S + S.conj().T) / 2


def frame_matrix_dense(system: GaborSystem) -> np.ndarray:
    """Dense frame operator of a system, from its synthesis matrix."""
    return frame_matrix(synthesis_matrix(system.window, system.lattice))


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


def extension_by_convolution(samples: SubgroupSignal, phi: Signal) -> Signal:
    """Semidiscrete extension as one FFT convolution of the weighted comb with phi.

    Equal to the double sum up to rounding, so not exact at lattice points.
    """
    comb = adjoint_restriction(samples)
    spec = np.fft.fftn(comb.grid()) * np.fft.fftn(phi.grid())
    return Signal(phi.group, np.fft.ifftn(spec).reshape(-1))
