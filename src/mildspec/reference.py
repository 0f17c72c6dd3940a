"""Slow reference implementations used as oracles.

Everything here is written from the defining sums, with characters read off the
L roots of unity at exact integer phases and no FFT shortcuts, and none of it
calls the kernels it checks; the fast paths are tested against these at small
sizes and the runtime verify suites reuse them.  The exceptions are FFT routes
that share nothing with the kernel they check: stft_columns, the STFT read on
the frequency side, checks gabor's shifted-window fold where the defining sums
cannot run; extension_by_convolution checks approx's double sum of translates;
JanssenFrame's DFTs over F = (aZ)^perp are long-double FFTs of size prod a_j
over the classes x mod a, where gabor's are of size prod N_j/b_j in double
over the classes x mod N/b, and its Walnut blocks take none.

JanssenFrame is the frame operator of a Gabor system on the adjoint lattice
L^o = (bZ)^perp x (aZ)^perp, of prod a_j b_j points: the Janssen sum
S = kappa sum c_mu pi(mu), applied in O(|L^o| |G|) or as a dense matrix,
its frame-bound estimates, the Wexler-Raz residual, and the Gram matrix of
the atoms pi(mu) g as prod a_j fibers of size prod b_j.  Their eigenvalues
are the frame bounds; one solve per fiber gives the canonical dual and the
projection onto span pi(L^o) g, and S^{-1} is the dual system's Janssen sum.
stft_cells evaluates the defining STFT sum at chosen cells, at any order; the
dense synthesis matrix, frame operators and direct-sum STFT are test oracles.
pairing_deviations is d_pair over explicit probes by one s0_norm each and
one dense product; over mild.default_probes it is the oracle of mild's d_pair.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import GroupMismatchError
from .fourier import adjoint_restriction
from .gabor import _BLOCK_CELLS, GaborSystem, TFLattice, _row_blocks, s0_norm
from .groups import GroupSpec, QuotientSpec, Subgroup, _character_block, annihilator
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
    "frame_matrix_dense",
    "stft_cells",
    "pairing_deviations",
    "JanssenFrame",
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


def naive_dft(f: Signal) -> Signal:
    """O(|G|^2) transform straight from the definition."""
    coords = f.group._coords
    return Signal(f.group, _character_sum(f.group, coords, coords, f.values))


def naive_idft(f: Signal) -> Signal:
    coords = f.group._coords
    out = _character_sum(f.group, coords, coords, f.values, sign=1)
    return Signal(f.group, out / f.group.order)


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


def frame_matrix_dense(system: GaborSystem) -> np.ndarray:
    """Dense |G| x |G| frame operator S = M M^H of a system's synthesis matrix M."""
    M = synthesis_matrix(system.window, system.lattice)
    S = M @ M.conj().T
    return (S + S.conj().T) / 2


def stft_cells(values: np.ndarray, window: Signal, times: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """V_g f at the cells (times[i], freqs[i]), element indices, by the defining sum.

    values is one signal's (|G|,) or a stack (m, |G|) on the window's group;
    the result has shape values.shape[:-1] + (cells,).
    """
    group = window.group
    coords = group._coords
    out = np.empty(values.shape[:-1] + (len(times),), dtype=np.complex128)
    for block in _row_blocks(len(times), group.order):
        # g(x - t) for the time of each cell
        shifted = window.values[group._index_rows(coords[None] - coords[times[block], None])]
        atoms = _character_block(group, coords[freqs[block]], coords) * shifted
        out[..., block] = (np.conj(atoms) @ values.T).T
    return out


def pairing_deviations(deltas: np.ndarray, probes) -> np.ndarray:
    """max over probes f of |pair(delta, f)| / (1 + s0_norm(f)) per row of deltas (members, |G|)."""
    values = np.array([p.values for p in probes])
    norms = np.array([s0_norm(p) for p in probes])
    return (np.abs(deltas @ values.T) / (1.0 + norms)).max(axis=1)


# The Janssen sum cancels down to multipliers as small as the lower frame bound A, so it is
# formed in extended precision where the platform has it (x86: 64-bit mantissa), rounded once.
_WIDE = np.clongdouble


class JanssenFrame:
    """The frame operator of (g, aZ x bZ) on the adjoint lattice (Janssen representation).

    With kappa = |G| / prod a_j b_j and c_mu = <g, pi(mu) g> for mu = (t, s)
    in L^o = (bZ)^perp x (aZ)^perp = prod (N_j/b_j)Z x prod (N_j/a_j)Z,

        S f = kappa sum_{mu in L^o} c_mu pi(mu) f,      pi(t, s) = M_s T_t.

    Every chi_s with s in F = (N/a)Z depends on x mod a only, so the sum over
    the frequencies of L^o folds into one multiplier per time shift t, a
    function on Z_a, and S f(x) = sum_t m_t(x mod a) f(x - t) costs O(|L^o| |G|).
    F is Z_a's dual: c_mu, the multipliers, a synthesis and the fibers each take
    one DFT over F, an FFT in extended precision, rounded once.
    """

    def __init__(self, window: Signal, lattice: TFLattice):
        group = lattice.group
        if window.group != group:
            raise GroupMismatchError("window and lattice live on different groups")
        self.window = window
        self.lattice = lattice
        self.kappa = group.order / math.prod(lattice.time_steps + lattice.freq_steps)
        self._times = annihilator(lattice.freq_lattice)
        # index of x - t for every time point t of L^o, one row per t
        self._shifts = group._index_rows(group._coords[None] - self._times.coords_array[:, None])
        self._residues = residues = GroupSpec(lattice.time_steps)
        self._residue = residue = residues._index_rows(group._coords)
        # the residue classes x mod a as consecutive runs, for np.add.reduceat
        self._by_residue = np.argsort(residue, kind="stable")
        self._class_starts = np.searchsorted(residue[self._by_residue], np.arange(residues.order))
        self._wide = wide = self._inner(window.values)
        self.coefficients = wide.astype(np.complex128)
        self._multipliers = self._over_f(self.kappa * wide, inverse=True)

    def _over_f(self, values: np.ndarray, inverse: bool = False) -> np.ndarray:
        """sum_u v(u) conj chi_s(u) at the s in F for each row v of values (rows, prod a), or with
        inverse sum_s v(s) chi_s(u) at the u in Z_a, rounded to complex128: long-double FFTs."""
        wide = np.asarray(values, dtype=_WIDE).reshape((len(values),) + self._residues.moduli)
        if inverse:
            out = np.fft.ifftn(wide, axes=range(1, wide.ndim), norm="forward")
            return out.reshape(values.shape).astype(np.complex128)
        return np.fft.fftn(wide, axes=range(1, wide.ndim)).reshape(values.shape)

    def _inner(self, values: np.ndarray) -> np.ndarray:
        """<f, pi(mu) g> on L^o in extended precision, shape (time points, frequency points)."""
        folded = np.empty((len(self._shifts), self._residues.order), dtype=_WIDE)
        for block in _row_blocks(len(self._shifts), len(values)):
            # f(x) conj g(x - t), summed over each residue class x mod a
            terms = values.astype(_WIDE) * np.conj(self.window.values[self._shifts[block]])
            folded[block] = np.add.reduceat(terms[:, self._by_residue], self._class_starts, axis=1)
        return self._over_f(folded)

    def _combine(self, multipliers: np.ndarray, values: np.ndarray) -> np.ndarray:
        """sum_t m_t(x mod a) v(x - t) for multipliers of shape (time points, prod a)."""
        out = np.zeros(len(values), dtype=np.complex128)
        for block in _row_blocks(len(self._shifts), len(values)):
            terms = multipliers[block][:, self._residue] * values[self._shifts[block]]
            out += np.sum(terms, axis=0)
        return out

    def apply(self, f: Signal) -> Signal:
        """S f = kappa sum_mu c_mu pi(mu) f."""
        return Signal(f.group, self._combine(self._multipliers, f.values))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_mu d_mu pi(mu) g for coefficients d on L^o."""
        return self._combine(self._over_f(coeffs, inverse=True), self.window.values)

    def matrix(self) -> np.ndarray:
        """The same sum as a dense |G| x |G| matrix, S[x, x - t] = m_t(x); small groups only."""
        n = len(self._residue)
        S = np.zeros((n, n), dtype=np.complex128)
        S[np.arange(n), self._shifts] = self._multipliers[:, self._residue]
        return (S + S.conj().T) / 2

    @property
    def bound_estimates(self) -> tuple[float, float]:
        """kappa (c_0 - sum_{mu != 0} |c_mu|) <= A and B <= kappa sum_mu |c_mu|."""
        total = float(np.sum(np.abs(self.coefficients)))
        return self.kappa * (2 * float(self.coefficients[0, 0].real) - total), self.kappa * total

    def wexler_raz_residual(self, gamma: Signal) -> float:
        """max_mu |kappa <gamma, pi(mu) g> - delta_{mu,0}|: 0 exactly for the dual windows."""
        r = self.kappa * self._inner(gamma.values)
        r[0, 0] -= 1
        return float(np.max(np.abs(r)))

    @cached_property
    def _fibers(self) -> np.ndarray:
        """The fibers H_k = sum_{d in F} chi_d(k) H[d] of Gamma: prod a_j blocks of size prod b_j.

        Gamma[mu, mu'] = <pi(mu') g, pi(mu) g> = H[s'-s][t, t'] = chi_{s'-s}(t) conj(c_{mu'-mu}),
        and chi_d(t) = chi_d(t mod a) only shifts k: H_k[t, t'] = W[t'-t, k+t], W = DFT^-1 conj c.
        """
        group, residues, t = self.window.group, self._residues, self._times.coords_array
        # position of t' - t among the time points, row t, column t', and k + t in Z_a, row k
        dt = np.searchsorted(self._times.indices, group._index_rows(t[None] - t[:, None]))
        shifted = residues._index_rows(residues._coords[:, None] + t[None])
        return self._over_f(np.conj(self._wide), inverse=True)[dt[None], shifted[:, :, None]]

    @property
    def bounds(self) -> tuple[float, float]:
        """The frame bounds (A, B): kappa spec(Gamma) spans exactly [A, B] (Ron-Shen duality)."""
        eig = np.linalg.eigvalsh(self._fibers)
        return self.kappa * float(eig.min()), self.kappa * float(eig.max())

    def _in_span(self, rhs: np.ndarray) -> np.ndarray:
        """sum_mu d_mu pi(mu) g with Gamma d = rhs: a DFT over F and one solve per fiber."""
        spectra = self._over_f(rhs).astype(np.complex128).T
        solved = np.linalg.solve(self._fibers, spectra[:, :, None])[:, :, 0].T
        # d's inverse DFT over F and synthesize's DFT back to Z_a cancel to u -> -u
        return self._combine(solved[:, self._residues.negation_permutation()], self.window.values)

    @cached_property
    def dual(self) -> Signal:
        """The canonical dual: the sum with Gamma d = e_0 / kappa, Wexler-Raz on the span."""
        e0 = np.eye(1, self.coefficients.size).reshape(self.coefficients.shape) / self.kappa
        return Signal(self.window.group, self._in_span(e0))

    def span_residual(self, gamma: Signal) -> float:
        """||gamma - P gamma|| / ||gamma||, P the projection onto span pi(L^o) g.

        P gamma solves Gamma d = <gamma, pi(mu) g>; of all duals only the canonical one is in it.
        """
        projection = self._in_span(self._inner(gamma.values).astype(np.complex128))
        return float(np.linalg.norm(gamma.values - projection)) / gamma.norm2

    @cached_property
    def _dual_frame(self) -> JanssenFrame:
        return JanssenFrame(self.dual, self.lattice)

    def solve(self, h: Signal) -> Signal:
        """S^{-1} h, whose analysis with g gives the minimal-norm coefficients of h.

        S commutes with every pi(lambda), so S^{-1} = S^{-1} S S^{-1} is the
        frame operator of (dual, lattice), applied as its Janssen sum.
        """
        return self._dual_frame.apply(h)


def _closure(group: GroupSpec, seed, extra) -> set[tuple[int, ...]]:
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


def _reduced_generators(group: GroupSpec, elements) -> tuple[tuple[int, ...], ...]:
    """Greedy small generating set for a subgroup given as an element list."""
    gens: list[tuple[int, ...]] = []
    span: set[tuple[int, ...]] = {group.zero()}
    for e in sorted(elements):
        if e not in span:
            gens.append(e)
            span = _closure(group, span, [e])
    return tuple(gens)


def subgroups_by_closure(group: GroupSpec) -> list[Subgroup]:
    """Every subgroup, by breadth-first closure over coordinate tuples.

    Brute force: each found subgroup is closed again under every element it
    misses.  Sorted by (order, sorted elements), the contract of
    groups.all_subgroups.
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
    out = [Subgroup(group, [group.index(x) for x in sorted(e)]) for e in found]
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
