"""Short-time Fourier transform, concentration norms, and Gabor frames.

The STFT with window g is V_g f(t, s) = <f, M_s T_t g> = sum_x f(x)
conj(chi_s(x) g(x - t)).  One kernel computes it on a separable
time-frequency lattice aZ x bZ (per-axis steps dividing the moduli): for
each time point t in aZ the windowed signal f(x) conj g(x - t) is folded
over PZ, P = N/b the annihilator step of bZ, and one FFT of size prod P
gives V_g f(t, s) at every s in bZ (the aliasing identity).  The shifted
windows of a block of time points are one indexed read of a sliding-window
view of a wrap-padded copy of conj g, and every kernel works in blocks of
at most _BLOCK_CELLS cells.  Synthesis is the exact adjoint: per time point
an inverse FFT gives the tone on one period, whose periodic extension is
multiplied by g(x - t).  It takes the row blocks in the order the analysis
yields them, so apply_frame synthesizes row block by row block and never
holds the coefficient array.

The full STFT grid is the lattice a = b = 1, where nothing is folded.
Against the canonical Gaussian window g0 it yields the two norms

    s0_norm(f)       = sum_{t,s} |V_g0 f(t,s)| / ||g0||_2^2
    s0prime_norm(f)  = max_{t,s} |pair(f, M_s T_t g0)| = max_{t,s} |V_g0 f(t, -s)|,

the second because the bilinear pairing flips the sign of the frequency
relative to the conjugating inner product; the grids coincide, so the max
is taken over |V_g0 f| directly.  Both reduce block by block, so neither
holds the |G| x |G| grid; stft() still returns the full grid, as the
CoefficientArray of the lattice a = b = 1 that GaborSystem.analyze returns
for any other lattice.

The frame operator S f = sum_lambda <f, pi(lambda) g> pi(lambda) g
couples x only with x + PZ (the Walnut form).  Grouping x = r + kP by its
residue r in Z_P splits S into prod P_j Hermitian blocks of size prod b_j,

    M_r[k, k'] = prod P_j * sum_{t in aZ} g(r + kP - t) conj g(r + k'P - t),

whose entries come from the same shifted-window read and an aZ fold.  The
frame bounds (A, B) are the extreme block eigenvalues and the canonical
dual window S^{-1} g comes from one batched block solve.  All three are
read off a GaborSystem (apply_frame, frame_bounds, canonical_dual), and
is_frame, A > FRAME_TOL * B, is the one frame test: canonical_dual raises
NotAFrame exactly when it fails.  Useful constants under the counting
convention: the full lattice a = b = 1 gives S = |G| ||g||_2^2 Id, and
Moyal's identity reads sum_{t,s} |V_g f|^2 = |G| ||g||_2^2 ||f||_2^2.

The same S lives on the adjoint lattice L^o = PZ x (N/a)Z, the time-frequency
shifts that commute with every pi(lambda); it has prod a_j b_j points.  In
this normalization the Janssen representation reads

    S = kappa sum_{mu in L^o} c_mu pi(mu),   c_mu = <g, pi(mu) g>,   kappa = |G| / prod a_j b_j,

so kappa (c_0 - sum_{mu != 0} |c_mu|) <= A and B <= kappa sum_mu |c_mu|, and a
window gamma is dual to g exactly when kappa <gamma, pi(mu) g> = delta_{mu,0}
on L^o (Wexler-Raz).  The Gram matrix Gamma of the atoms pi(mu) g has
kappa spec(Gamma) spanning [A, B] (Ron-Shen), and the canonical dual, the one
dual in span pi(L^o) g, is sum_mu d_mu pi(mu) g with Gamma d = e_0 / kappa.
reference.JanssenFrame computes all of this without the blocks, as a second route.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GroupMismatchError, NotAFrame
from .groups import GroupSpec, Subgroup, _grid_steps, grid_subgroup
from .signals import Signal, _as_values, _coset_shape, _fold, finite_gaussian

__all__ = [
    "TFLattice",
    "CoefficientArray",
    "GaborSystem",
    "FRAME_TOL",
    "stft",
    "s0_norm",
    "s0prime_norm",
    "gabor_coefficients",
    "gabor_synthesis",
]

# a lattice counts as a frame when A exceeds this fraction of B
FRAME_TOL = 1e-10


@dataclass(frozen=True)
class TFLattice:
    """Separable time-frequency lattice aZ x bZ inside G x G^."""

    group: GroupSpec
    time_steps: tuple[int, ...]
    freq_steps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "time_steps", _grid_steps(self.group, self.time_steps))
        object.__setattr__(self, "freq_steps", _grid_steps(self.group, self.freq_steps))

    @cached_property
    def time_lattice(self) -> Subgroup:
        return grid_subgroup(self.group, self.time_steps)

    @cached_property
    def freq_lattice(self) -> Subgroup:
        return grid_subgroup(self.group, self.freq_steps)

    @property
    def size(self) -> int:
        """prod N_j/a_j times prod N_j/b_j, known before either lattice is built."""
        moduli = self.group.moduli
        return (math.prod(n // a for n, a in zip(moduli, self.time_steps))
                * math.prod(n // b for n, b in zip(moduli, self.freq_steps)))

    @property
    def redundancy(self) -> float:
        """Lattice points per group element; below 1 no frame is possible."""
        return self.size / self.group.order

    def points(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Lattice points, time outer loop, both factors in element order."""
        return itertools.product(self.time_lattice.elements, self.freq_lattice.elements)

    def __repr__(self) -> str:
        return (
            f"TFLattice({self.group!r}, a={self.time_steps}, b={self.freq_steps}, "
            f"redundancy {self.redundancy:g})"
        )


@dataclass(frozen=True, eq=False)
class CoefficientArray:
    """Values on a time-frequency lattice, shape (time points, frequency points).

    Gabor coefficients on a lattice, and on the full lattice a = b = 1 the
    whole STFT: rows indexed by time shift, columns by frequency.
    """

    lattice: TFLattice
    values: np.ndarray

    def __post_init__(self):
        shape = (self.lattice.time_lattice.order, self.lattice.freq_lattice.order)
        object.__setattr__(self, "values", _as_values(self.values, *shape))

    @property
    def size(self) -> int:
        return self.lattice.size

    def ravel(self) -> np.ndarray:
        """Flat coefficients in the order of TFLattice.points()."""
        return self.values.reshape(-1)

    def __repr__(self) -> str:
        return f"CoefficientArray({self.values.shape} on {self.lattice!r})"


# cells of one block of every time-frequency kernel: bounds their working set
_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of rows, each block at most _BLOCK_CELLS cells of the given width."""
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _shifted_conj(grid: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Reader of conj g(x - t) for a block of time points t (rows of coordinates).

    Every shift of g is a window of one copy of conj g wrap-padded by N - 1
    per axis: the window at offset (N - 1 - t) mod N reads conj g(x - t), so
    a block of shifts is one indexed read of a sliding-window view.  The
    read returns a new array of shape (len(t),) + moduli.
    """
    moduli = np.array(grid.shape)
    padded = np.pad(np.conj(grid), [(n - 1, 0) for n in grid.shape], mode="wrap")
    views = sliding_window_view(padded, grid.shape)
    return lambda times: views[tuple(((moduli - 1 - times) % moduli).T)]


def _periods(lattice: TFLattice) -> tuple[int, ...]:
    """P = N / b per axis: the steps of the annihilator of the frequency lattice bZ."""
    return tuple(n // b for n, b in zip(lattice.group.moduli, lattice.freq_steps))


def _tf_rows(
    values: np.ndarray, window: Signal, lattice: TFLattice
) -> Iterator[tuple[slice, np.ndarray]]:
    """Lattice STFT of a signal's values, one block of time points at a time.

    Yields (block, V) with V[i, k] = V_g f(t_i, s_k) for the time points
    t_i of the block and every lattice frequency s_k, both in element order.
    Each windowed signal is folded over PZ (the aliasing identity), so one
    FFT of size prod P gives all lattice frequencies; on the full lattice
    nothing is folded.
    """
    group = lattice.group
    if window.group != group:
        raise GroupMismatchError("window and lattice live on different groups")
    read = _shifted_conj(window.grid())
    fgrid = values.reshape(group.moduli)
    times = lattice.time_lattice.coords_array
    periods = _periods(lattice)
    axes = tuple(range(1, group.ndim + 1))
    for block in _row_blocks(len(times), group.order):
        windowed = read(times[block])
        np.multiply(fgrid, windowed, out=windowed)
        folded = _fold(windowed, periods)
        # the FFT runs in place, and no name keeps a block alive into the next read
        del windowed
        yield block, np.fft.fftn(folded, axes=axes, out=folded).reshape(len(folded), -1)
        del folded


def _tf_analysis(values: np.ndarray, window: Signal, lattice: TFLattice) -> np.ndarray:
    """The whole lattice STFT, shape (time points, frequency points), read-only."""
    out = np.empty((lattice.time_lattice.order, lattice.freq_lattice.order), dtype=np.complex128)
    for block, rows in _tf_rows(values, window, lattice):
        out[block] = rows
        del rows
    out.setflags(write=False)
    return out


def _tf_abs_max(values: np.ndarray, window: Signal, lattice: TFLattice) -> float:
    """max |lattice STFT|, one block at a time."""
    return max(float(np.max(np.abs(rows))) for _, rows in _tf_rows(values, window, lattice))


def _tf_synthesis(
    rows: Iterable[tuple[slice, np.ndarray]], window: Signal, lattice: TFLattice
) -> np.ndarray:
    """Adjoint of _tf_rows: sum_{t,s} c(t, s) M_s T_t g from (block, c) pairs.

    Per time point the inverse FFT of size prod P is the tone on one period;
    its periodic extension times g(x - t) is the sum over the frequencies.
    The blocks must come in time order and cover every time point once, as
    _tf_rows yields them, so its pairs stream through without a full array.
    """
    group = lattice.group
    if window.group != group:
        raise GroupMismatchError("window and lattice live on different groups")
    read = _shifted_conj(np.conj(window.grid()))
    times = lattice.time_lattice.coords_array
    periods = _periods(lattice)
    axes = tuple(range(1, group.ndim + 1))
    split, scale = _coset_shape(group.moduli, periods), math.prod(periods)
    # a tone on one period broadcasts over the N/P axes of the split: its periodic extension
    tone_shape = tuple(x for p in periods for x in (1, p))
    out = np.zeros(group.order, dtype=np.complex128)
    for block, coeffs in rows:
        tones = np.fft.ifftn(coeffs.reshape((-1,) + periods), axes=axes) * scale
        del coeffs
        m = len(tones)
        terms = read(times[block]).reshape((m,) + split)
        np.multiply(tones.reshape((m,) + tone_shape), terms, out=terms)
        terms = terms.reshape(m, -1)
        # the running sum enters the first term: terms add up in time order whatever the block size
        terms[0] += out
        out = terms.sum(axis=0)
    return out


def stft(f: Signal, window: Signal) -> CoefficientArray:
    """Full STFT grid: the lattice STFT on the full lattice a = b = 1."""
    plane = TFLattice(f.group, 1, 1)
    return CoefficientArray(plane, _tf_analysis(f.values, window, plane))


def s0_norm(f: Signal) -> float:
    """Concentration norm against the Gaussian window: sum |V_g0 f| / ||g0||_2^2."""
    g0 = finite_gaussian(f.group)
    rows = _tf_rows(f.values, g0, TFLattice(f.group, 1, 1))
    return float(sum(np.sum(np.abs(v)) for _, v in rows)) / (g0.norm2**2)


def s0prime_norm(sigma: Signal) -> float:
    """Dual norm surrogate: the largest STFT magnitude against the Gaussian.

    Equals max over (t, s) of |pair(sigma, M_s T_t g0)|; the bilinear pairing
    only reflects the frequency axis, which leaves the max unchanged.
    """
    return _tf_abs_max(sigma.values, finite_gaussian(sigma.group), TFLattice(sigma.group, 1, 1))


def _frame_blocks(window: Signal, lattice: TFLattice) -> np.ndarray:
    """The Hermitian blocks M_r of the frame operator, shape (prod P, B, B).

    M_r[k, k'] = prod P * C_m(r + kP) with m = k' - k mod b, where
    C_m(x) = sum_{t in aZ} g(x - t) conj g(x + mP - t) is the aZ-fold of
    g * conj(T_{-mP} g) and so depends on x only modulo a.
    """
    group = lattice.group
    a, b = lattice.time_steps, lattice.freq_steps
    P = np.array(_periods(lattice))
    Zb, Zp, Za = GroupSpec(b), GroupSpec(P), GroupSpec(a)
    g = window.grid()
    read = _shifted_conj(g)
    k = Zb._coords
    r = Zp._coords
    C = np.empty((len(k), math.prod(a)), dtype=np.complex128)
    for block in _row_blocks(len(k), group.order):
        h = read(-k[block] * P)
        np.multiply(g, h, out=h)
        C[block] = _fold(h, a).reshape(len(h), -1)
    m_idx = Zb._index_rows(k[None, :, :] - k[:, None, :])
    u_idx = Za._index_rows(r[:, None, :] + k[None, :, :] * P)
    blocks = math.prod(P) * C[m_idx[None, :, :], u_idx[:, :, None]]
    return (blocks + np.conj(np.swapaxes(blocks, 1, 2))) / 2


class GaborSystem:
    """Window plus lattice, with lazily computed frame data.

    The frame operator blocks, their eigenvalues (frame bounds) and the
    canonical dual window are computed once on first use behind a lock, so
    concurrent readers see a single consistent result.
    """

    def __init__(self, window: Signal, lattice: TFLattice):
        if window.group != lattice.group:
            raise GroupMismatchError("window and lattice live on different groups")
        self.window = window
        self.lattice = lattice
        self._lock = threading.Lock()
        self._frame: tuple[np.ndarray, float, float] | None = None
        self._dual: Signal | None = None

    @property
    def group(self) -> GroupSpec:
        return self.window.group

    def analyze(self, f: Signal, window: Signal | None = None) -> CoefficientArray:
        """Inner products against the lattice shifts of a window (default: the system's)."""
        if f.group != self.group:
            raise GroupMismatchError("signal lives on a different group")
        w = self.window if window is None else window
        return CoefficientArray(self.lattice, _tf_analysis(f.values, w, self.lattice))

    def synthesize(self, coeffs: CoefficientArray) -> Signal:
        """Weighted sum of the lattice shifts of the system's window."""
        if coeffs.lattice != self.lattice:
            raise GroupMismatchError("coefficients belong to a different lattice")
        values = coeffs.values
        rows = ((block, values[block]) for block in _row_blocks(len(values), self.group.order))
        return Signal(self.group, _tf_synthesis(rows, self.window, self.lattice))

    def apply_frame(self, f: Signal) -> Signal:
        """S f = sum_lambda <f, pi(lambda) g> pi(lambda) g, synthesized row block by row block."""
        if f.group != self.group:
            raise GroupMismatchError("signal lives on a different group")
        rows = _tf_rows(f.values, self.window, self.lattice)
        return Signal(self.group, _tf_synthesis(rows, self.window, self.lattice))

    def _frame_data(self) -> tuple[np.ndarray, float, float]:
        """Frame operator blocks and the bounds (A, B), built once."""
        with self._lock:
            if self._frame is None:
                blocks = _frame_blocks(self.window, self.lattice)
                w = np.linalg.eigvalsh(blocks)
                self._frame = (blocks, float(w[:, 0].min()), float(w[:, -1].max()))
        return self._frame

    @property
    def frame_bounds(self) -> tuple[float, float]:
        """(A, B): smallest and largest eigenvalue of the frame operator."""
        _, a, b = self._frame_data()
        return a, b

    @property
    def is_frame(self) -> bool:
        a, b = self.frame_bounds
        return b > 0 and a > FRAME_TOL * b

    @property
    def canonical_dual(self) -> Signal:
        """S^{-1} g, by one solve per frame operator block.

        Raises NotAFrame when the lower bound is numerically zero, which is
        guaranteed whenever the lattice redundancy is below one.
        """
        with self._lock:
            if self._dual is not None:
                return self._dual
        _, a, _ = self._frame_data()
        if not self.is_frame:
            raise NotAFrame(a)
        dual = Signal(self.group, self._blockwise(np.linalg.solve, self.window.values))
        with self._lock:
            self._dual = dual
        return dual

    def _blockwise(self, op: Callable, values: np.ndarray) -> np.ndarray:
        """op(blocks, rows) with values split into one row of length prod b per block.

        np.matmul applies the frame operator in its block form, np.linalg.solve inverts it.
        """
        blocks, _, _ = self._frame_data()
        # the values as (b_1, P_1, ..., b_d, P_d), then P axes first: rows are the blocks
        d = self.group.ndim
        perm = tuple(range(1, 2 * d, 2)) + tuple(range(0, 2 * d, 2))
        inter = _coset_shape(self.group.moduli, _periods(self.lattice))
        rows = values.reshape(inter).transpose(perm)
        out = op(blocks, rows.reshape(blocks.shape[:2] + (1,)))
        return out.reshape(rows.shape).transpose(np.argsort(perm)).reshape(-1)

    def __repr__(self) -> str:
        return f"GaborSystem(window on {self.group!r}, {self.lattice!r})"


def gabor_coefficients(sigma: Signal, system: GaborSystem) -> CoefficientArray:
    """Canonical coefficients: samples of the dual-window STFT on the lattice.

    c(t, s) = V_{gdual} sigma (t, s).  Because the frame operator commutes
    with lattice shifts these are the minimal-l2-norm coefficients among all
    that synthesize sigma with the primal window.
    """
    return system.analyze(sigma, window=system.canonical_dual)


def gabor_synthesis(coeffs: CoefficientArray, system: GaborSystem) -> Signal:
    """sum_{(t,s)} c(t,s) M_s T_t g with the system's primal window."""
    return system.synthesize(coeffs)
