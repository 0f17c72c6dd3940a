"""Short-time Fourier transform, concentration norms, and Gabor frames.

The STFT with window g is V_g f(t, s) = <f, M_s T_t g> = sum_x f(x)
conj(chi_s(x) g(x - t)); each fixed t needs one FFT of the windowed signal.
Against the canonical Gaussian window g0 it yields the two norms

    s0_norm(f)       = sum_{t,s} |V_g0 f(t,s)| / ||g0||_2^2
    s0prime_norm(f)  = max_{t,s} |pair(f, M_s T_t g0)| = max_{t,s} |V_g0 f(t, -s)|,

the second because the bilinear pairing flips the sign of the frequency
relative to the conjugating inner product; the grids coincide, so the max
is taken over |V_g0 f| directly.

A Gabor system is the window's orbit under a separable time-frequency
lattice aZ x bZ (per-axis steps dividing the moduli).  Analysis restricted
to the lattice folds the windowed signal to one period per axis before the
FFT; synthesis is the exact adjoint.  The frame operator S f = sum_lambda
<f, pi(lambda) g> pi(lambda) g is assembled densely and eigendecomposed at
desk scale, giving frame bounds (A, B) as the extreme eigenvalues and the
canonical dual window S^{-1} g.  Useful constants under the counting
convention: the full lattice a = b = 1 gives S = |G| ||g||_2^2 Id, and
Moyal's identity reads sum_{t,s} |V_g f|^2 = |G| ||g||_2^2 ||f||_2^2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

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


def _shift_index_table(group: GroupSpec, shifts: np.ndarray) -> np.ndarray:
    """Canonical index of (x - t) for each shift row t, each column x."""
    return group._index_rows(group._coords[None, :, :] - shifts[:, None, :])


def stft(f: Signal, window: Signal) -> STFTGrid:
    """Full STFT grid, one FFT per time shift, a block of rows at a time."""
    if f.group != window.group:
        raise GroupMismatchError("signal and window live on different groups")
    group = f.group
    n = group.order
    out = np.empty((n, n), dtype=np.complex128)
    chunk = max(1, (1 << 20) // max(n, 1))
    axes = tuple(range(1, group.ndim + 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        table = _shift_index_table(group, group._coords[start:stop])
        windowed = f.values[None, :] * np.conj(window.values[table])
        block = np.fft.fftn(
            windowed.reshape((stop - start,) + group.moduli), axes=axes
        )
        out[start:stop] = block.reshape(stop - start, n)
    return STFTGrid(group, window, out)


def s0_norm(f: Signal) -> float:
    """Concentration norm against the Gaussian window: sum |V_g0 f| / ||g0||_2^2."""
    g0 = finite_gaussian(f.group)
    grid = stft(f, g0)
    return float(np.sum(np.abs(grid.values)) / (g0.norm2**2))


def s0prime_norm(sigma: Signal) -> float:
    """Dual norm surrogate: the largest STFT magnitude against the Gaussian.

    Equals max over (t, s) of |pair(sigma, M_s T_t g0)|; the bilinear pairing
    only reflects the frequency axis, which leaves the max unchanged.
    """
    g0 = finite_gaussian(sigma.group)
    grid = stft(sigma, g0)
    return grid.max_modulus


def _interleaved_shape(moduli, freq_steps):
    shape = []
    for n, b in zip(moduli, freq_steps):
        shape.extend((b, n // b))
    return tuple(shape)


def _lattice_analysis(batch: np.ndarray, window: Signal, lattice: TFLattice) -> np.ndarray:
    """Lattice-restricted STFT of a batch (B, |G|) with the given window.

    Returns (B, nt, nf).  Per time point the windowed signal is folded to one
    period per axis (the aliasing identity), then one small FFT produces all
    lattice frequencies.
    """
    group = lattice.group
    moduli = group.moduli
    b_steps = lattice.freq_steps
    folded_shape = tuple(n // b for n, b in zip(moduli, b_steps))
    nf = math.prod(folded_shape)
    times = lattice.time_lattice.coords_array
    B = batch.shape[0]
    roll_axes = tuple(range(group.ndim))
    sum_axes = tuple(1 + 2 * j for j in range(group.ndim))
    inter = (B,) + _interleaved_shape(moduli, b_steps)
    fft_axes = tuple(range(1, group.ndim + 1))
    wgrid = window.grid()
    out = np.empty((B, len(times), nf), dtype=np.complex128)
    for ti, t in enumerate(times):
        shifted = np.roll(wgrid, shift=t, axis=roll_axes)
        prod = batch.reshape((B,) + moduli) * np.conj(shifted)[None]
        folded = prod.reshape(inter).sum(axis=sum_axes)
        out[:, ti, :] = np.fft.fftn(folded, axes=fft_axes).reshape(B, nf)
    return out


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


class GaborSystem:
    """Window plus lattice, with lazily computed frame data.

    The frame operator matrix, its eigendecomposition (frame bounds) and the
    canonical dual window are computed once on first use behind a lock, so
    concurrent readers see a single consistent result.
    """

    def __init__(self, window: Signal, lattice: TFLattice):
        if window.group != lattice.group:
            raise GroupMismatchError("window and lattice live on different groups")
        self.window = window
        self.lattice = lattice
        self._lock = threading.Lock()
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
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

    def _frame_matrix(self) -> np.ndarray:
        n = self.group.order
        S = np.empty((n, n), dtype=np.complex128)
        chunk = max(1, min(64, n))
        eye = np.eye(n, dtype=np.complex128)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = _lattice_synthesis(
                _lattice_analysis(eye[start:stop], self.window, self.lattice),
                self.window,
                self.lattice,
            )
            S[:, start:stop] = block.T
        return (S + S.conj().T) / 2

    def _ensure_eig(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if self._eig is None:
                w, V = np.linalg.eigh(self._frame_matrix())
                self._eig = (w, V)
        return self._eig

    @property
    def frame_bounds(self) -> tuple[float, float]:
        """(A, B): smallest and largest eigenvalue of the frame operator."""
        w, _ = self._ensure_eig()
        return float(w[0]), float(w[-1])

    @property
    def is_frame(self) -> bool:
        a, b = self.frame_bounds
        return b > 0 and a > FRAME_TOL * b

    @property
    def canonical_dual(self) -> Signal:
        """S^{-1} g, computed through the eigendecomposition.

        Raises NotAFrame when the lower bound is numerically zero, which is
        guaranteed whenever the lattice redundancy is below one.
        """
        with self._lock:
            if self._dual is not None:
                return self._dual
        w, V = self._ensure_eig()
        a, b = float(w[0]), float(w[-1])
        if not (b > 0 and a > FRAME_TOL * b):
            raise NotAFrame(a)
        coeffs = V.conj().T @ self.window.values
        dual = Signal(self.group, V @ (coeffs / w))
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
