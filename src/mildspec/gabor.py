"""Short-time Fourier transform, concentration norms, and Gabor frames.

The STFT with window g is V_g f(t, s) = <f, M_s T_t g> = sum_x f(x)
conj(chi_s(x) g(x - t)); each fixed t needs one FFT of the windowed signal.
Rows are produced a block of about 2^20 cells at a time, the shifted
windows read as views of one wrap-padded copy of conj g.  Against the
canonical Gaussian window g0 this yields the two norms

    s0_norm(f)       = sum_{t,s} |V_g0 f(t,s)| / ||g0||_2^2
    s0prime_norm(f)  = max_{t,s} |pair(f, M_s T_t g0)| = max_{t,s} |V_g0 f(t, -s)|,

the second because the bilinear pairing flips the sign of the frequency
relative to the conjugating inner product; the grids coincide, so the max
is taken over |V_g0 f| directly.  Both reduce block by block, so neither
holds the |G| x |G| grid; stft() still returns the full grid.

A Gabor system is the window's orbit under a separable time-frequency
lattice aZ x bZ (per-axis steps dividing the moduli).  Analysis restricted
to the lattice folds the windowed signal to one period per axis before the
FFT; synthesis is the exact adjoint.  The frame operator S f = sum_lambda
<f, pi(lambda) g> pi(lambda) g couples x only with x + PZ, P = N/b the
annihilator step of bZ (the Walnut form).  Grouping x = r + kP by its
residue r in Z_P splits S into prod P_j Hermitian blocks of size
prod b_j,

    M_r[k, k'] = prod P_j * sum_{t in aZ} g(r + kP - t) conj g(r + k'P - t),

so the frame bounds (A, B) are the extreme block eigenvalues and the
canonical dual window S^{-1} g comes from one batched block solve.  Useful
constants under the counting convention: the full lattice a = b = 1 gives
S = |G| ||g||_2^2 Id, and Moyal's identity reads sum_{t,s} |V_g f|^2 =
|G| ||g||_2^2 ||f||_2^2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GroupMismatchError, NotAFrame
from .groups import GroupElement, GroupSpec, Subgroup, _grid_steps, grid_subgroup
from .signals import Signal, finite_gaussian

__all__ = [
    "TFLattice",
    "STFTGrid",
    "CoefficientArray",
    "GaborSystem",
    "FRAME_TOL",
    "stft",
    "s0_norm",
    "s0prime_norm",
    "frame_operator",
    "frame_bounds",
    "canonical_dual",
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
        return self.time_lattice.order * self.freq_lattice.order

    @property
    def redundancy(self) -> float:
        """Lattice points per group element; below 1 no frame is possible."""
        return self.size / self.group.order

    def points(self) -> Iterator[tuple[GroupElement, GroupElement]]:
        """Lattice points, time outer loop, both factors in element order."""
        for t in self.time_lattice.coords_array.tolist():
            for s in self.freq_lattice.coords_array.tolist():
                yield GroupElement(t), GroupElement(s)

    def __repr__(self) -> str:
        return (
            f"TFLattice({self.group!r}, a={self.time_steps}, b={self.freq_steps}, "
            f"redundancy {self.redundancy:g})"
        )


@dataclass(frozen=True, eq=False)
class STFTGrid:
    """Full STFT table, rows indexed by time shift, columns by frequency."""

    group: GroupSpec
    window: Signal
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        n = self.group.order
        if vals.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} grid, got {vals.shape}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self) -> str:
        return f"STFTGrid(on {self.group!r})"


@dataclass(frozen=True, eq=False)
class CoefficientArray:
    """Gabor coefficients on a lattice, shape (time points, frequency points)."""

    lattice: TFLattice
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        shape = (self.lattice.time_lattice.order, self.lattice.freq_lattice.order)
        if arr.size != self.lattice.size:
            raise ValueError(f"expected {self.lattice.size} coefficients, got {arr.size}")
        arr = arr.reshape(shape).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def size(self) -> int:
        return self.lattice.size

    def ravel(self) -> np.ndarray:
        """Flat coefficients in the order of TFLattice.points()."""
        return self.coeffs.reshape(-1)

    def __repr__(self) -> str:
        return f"CoefficientArray({self.coeffs.shape} on {self.lattice!r})"


# cells of one STFT row block: bounds the working set of every STFT route
_STFT_BLOCK_CELLS = 1 << 20


def _stft_rows(f: Signal, window: Signal) -> Iterator[tuple[int, np.ndarray]]:
    """STFT rows in blocks: yields (start, V[start:start + m]) with m * |G| <= 2^20.

    Row t needs conj g(x - t) at every x.  All of these are windows of one
    copy of conj g wrap-padded by N - 1 per axis: the window at offset
    N - 1 - t reads conj g(x - t), so a block of rows is one indexed read of
    a sliding-window view.
    """
    if f.group != window.group:
        raise GroupMismatchError("signal and window live on different groups")
    group = f.group
    n, moduli = group.order, group.moduli
    padded = np.pad(np.conj(window.grid()), [(m - 1, 0) for m in moduli], mode="wrap")
    views = sliding_window_view(padded, moduli)
    offsets = (np.array(moduli) - 1) - group._coords
    fgrid = f.grid()
    axes = tuple(range(1, group.ndim + 1))
    chunk = max(1, _STFT_BLOCK_CELLS // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        rows = views[tuple(offsets[start:stop].T)]
        rows *= fgrid
        yield start, np.fft.fftn(rows, axes=axes).reshape(stop - start, n)


def _stft_abs_sum(f: Signal, window: Signal) -> float:
    """sum_{t,s} |V_g f(t, s)|, one row block at a time."""
    return float(sum(np.sum(np.abs(rows)) for _, rows in _stft_rows(f, window)))


def _stft_abs_max(f: Signal, window: Signal) -> float:
    """max_{t,s} |V_g f(t, s)|, one row block at a time."""
    return max(float(np.max(np.abs(rows))) for _, rows in _stft_rows(f, window))


def stft(f: Signal, window: Signal) -> STFTGrid:
    """Full STFT grid, filled from the row-block kernel."""
    n = f.group.order
    out = np.empty((n, n), dtype=np.complex128)
    for start, rows in _stft_rows(f, window):
        out[start:start + rows.shape[0]] = rows
    return STFTGrid(f.group, window, out)


def s0_norm(f: Signal) -> float:
    """Concentration norm against the Gaussian window: sum |V_g0 f| / ||g0||_2^2."""
    g0 = finite_gaussian(f.group)
    return _stft_abs_sum(f, g0) / (g0.norm2**2)


def s0prime_norm(sigma: Signal) -> float:
    """Dual norm surrogate: the largest STFT magnitude against the Gaussian.

    Equals max over (t, s) of |pair(sigma, M_s T_t g0)|; the bilinear pairing
    only reflects the frequency axis, which leaves the max unchanged.
    """
    return _stft_abs_max(sigma, finite_gaussian(sigma.group))


def _interleaved_shape(moduli, freq_steps):
    shape = []
    for n, b in zip(moduli, freq_steps):
        shape.extend((b, n // b))
    return tuple(shape)


def _lattice_rows(batch: np.ndarray, window: Signal, lattice: TFLattice) -> Iterator[np.ndarray]:
    """Lattice-restricted STFT of a batch (B, |G|), one (B, nf) row per time point.

    Per time point the windowed signal is folded to one period per axis (the
    aliasing identity), then one small FFT produces all lattice frequencies.
    """
    group = lattice.group
    moduli = group.moduli
    b_steps = lattice.freq_steps
    nf = math.prod(n // b for n, b in zip(moduli, b_steps))
    B = batch.shape[0]
    roll_axes = tuple(range(group.ndim))
    sum_axes = tuple(1 + 2 * j for j in range(group.ndim))
    inter = (B,) + _interleaved_shape(moduli, b_steps)
    fft_axes = tuple(range(1, group.ndim + 1))
    wgrid = window.grid()
    for t in lattice.time_lattice.coords_array:
        shifted = np.roll(wgrid, shift=t, axis=roll_axes)
        prod = batch.reshape((B,) + moduli) * np.conj(shifted)[None]
        folded = prod.reshape(inter).sum(axis=sum_axes)
        yield np.fft.fftn(folded, axes=fft_axes).reshape(B, nf)


def _lattice_analysis(batch: np.ndarray, window: Signal, lattice: TFLattice) -> np.ndarray:
    """Lattice-restricted STFT of a batch (B, |G|), shape (B, nt, nf)."""
    shape = (batch.shape[0], lattice.time_lattice.order, lattice.freq_lattice.order)
    out = np.empty(shape, dtype=np.complex128)
    for ti, row in enumerate(_lattice_rows(batch, window, lattice)):
        out[:, ti, :] = row
    return out


def _lattice_abs_max(values: np.ndarray, window: Signal, lattice: TFLattice) -> float:
    """max |lattice STFT| of one signal, one time point at a time."""
    return max(float(np.max(np.abs(row))) for row in _lattice_rows(values[None], window, lattice))


def _lattice_synthesis(coeff_batch: np.ndarray, window: Signal, lattice: TFLattice) -> np.ndarray:
    """Adjoint of _lattice_analysis: (B, nt, nf) -> (B, |G|)."""
    group = lattice.group
    moduli = group.moduli
    b_steps = lattice.freq_steps
    folded_shape = tuple(n // b for n, b in zip(moduli, b_steps))
    scale = math.prod(folded_shape)
    times = lattice.time_lattice.coords_array
    B = coeff_batch.shape[0]
    roll_axes = tuple(range(group.ndim))
    fft_axes = tuple(range(1, group.ndim + 1))
    wgrid = window.grid()
    out = np.zeros((B,) + moduli, dtype=np.complex128)
    for ti, t in enumerate(times):
        c = coeff_batch[:, ti, :].reshape((B,) + folded_shape)
        tone = np.fft.ifftn(c, axes=fft_axes) * scale
        tone_full = np.tile(tone, (1,) + b_steps)
        out += tone_full * np.roll(wgrid, shift=t, axis=roll_axes)[None]
    return out.reshape(B, group.order)


def _frame_blocks(window: Signal, lattice: TFLattice) -> np.ndarray:
    """The Hermitian blocks M_r of the frame operator, shape (prod P, B, B).

    M_r[k, k'] = prod P * C_m(r + kP) with m = k' - k mod b, where
    C_m(x) = sum_{t in aZ} g(x - t) conj g(x + mP - t) is the aZ-periodization
    of g * conj(T_{-mP} g) and so depends on x only modulo a.
    """
    group = lattice.group
    moduli, a, b = group.moduli, lattice.time_steps, lattice.freq_steps
    P = np.array([n // bj for n, bj in zip(moduli, b)])
    g = window.grid()
    k = np.indices(b).reshape(group.ndim, -1).T
    r = np.indices(tuple(P)).reshape(group.ndim, -1).T
    per_shape = tuple(x for n, aj in zip(moduli, a) for x in (n // aj, aj))
    per_axes = tuple(range(0, 2 * group.ndim, 2))
    C = np.empty((len(k), math.prod(a)), dtype=np.complex128)
    for i, m in enumerate(k):
        h = g * np.conj(np.roll(g, shift=tuple(-m * P), axis=tuple(range(group.ndim))))
        C[i] = h.reshape(per_shape).sum(axis=per_axes).reshape(-1)
    m = (k[None, :, :] - k[:, None, :]) % np.array(b)
    m_idx = np.ravel_multi_index(tuple(np.moveaxis(m, -1, 0)), b)
    u = (r[:, None, :] + k[None, :, :] * P) % np.array(a)
    u_idx = np.ravel_multi_index(tuple(np.moveaxis(u, -1, 0)), a)
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
        coeffs = _lattice_analysis(f.values[None, :], w, self.lattice)[0]
        return CoefficientArray(self.lattice, coeffs)

    def synthesize(self, coeffs: CoefficientArray, window: Signal | None = None) -> Signal:
        """Weighted sum of lattice shifts of a window (default: the system's)."""
        if coeffs.lattice != self.lattice:
            raise GroupMismatchError("coefficients belong to a different lattice")
        w = self.window if window is None else window
        vals = _lattice_synthesis(coeffs.coeffs[None, :, :], w, self.lattice)[0]
        return Signal(self.group, vals)

    def apply_frame(self, f: Signal) -> Signal:
        """S f = sum_lambda <f, pi(lambda) g> pi(lambda) g."""
        return self.synthesize(self.analyze(f))

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
        blocks, a, b = self._frame_data()
        if not (b > 0 and a > FRAME_TOL * b):
            raise NotAFrame(a)
        # the window as (b_1, P_1, ..., b_d, P_d), then P axes first: rows are the blocks
        d = self.group.ndim
        perm = tuple(range(1, 2 * d, 2)) + tuple(range(0, 2 * d, 2))
        inter = _interleaved_shape(self.group.moduli, self.lattice.freq_steps)
        rhs = self.window.values.reshape(inter).transpose(perm)
        solved = np.linalg.solve(blocks, rhs.reshape(blocks.shape[:2] + (1,)))
        values = solved.reshape(rhs.shape).transpose(np.argsort(perm)).reshape(-1)
        dual = Signal(self.group, values)
        with self._lock:
            self._dual = dual
        return dual

    def __repr__(self) -> str:
        return f"GaborSystem(window on {self.group!r}, {self.lattice!r})"


def frame_operator(system: GaborSystem, f: Signal) -> Signal:
    """Apply the frame operator of the system to a signal."""
    return system.apply_frame(f)


def frame_bounds(system: GaborSystem) -> tuple[float, float]:
    return system.frame_bounds


def canonical_dual(system: GaborSystem) -> Signal:
    return system.canonical_dual


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
