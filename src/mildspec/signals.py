"""Signals on finite abelian groups and the basic time-frequency shifts.

A Signal stores complex values over the canonical element order of its group.
Translation acts by T_t f(x) = f(x - t), modulation by M_s f(x) = chi_s(x) f(x),
and the time-frequency shift is the composition M_s T_t (modulate after
translate); the two orders differ by the phase chi_s(t).

SubgroupSignal and QuotientSignal hold values indexed by a subgroup's element
list and a quotient's representative list; they are what sampling and
periodization produce.  A SubgroupSignal is also the weighted Dirac comb
sum_h c(h) delta_h: signal_to_comb reads one off a signal that vanishes off
the subgroup, and fourier.adjoint_restriction embeds it back.

Every container (these three and gabor.CoefficientArray) checks its values
in _as_values: the size, and that every value is finite.  Input files are
checked when read, so a non-finite value there is a result that overflowed.

finite_gaussian, the canonical window, is the periodized Gaussian truncated
where its tail falls below double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, GroupMismatchError, SupportViolation
from .groups import (
    GroupSpec,
    QuotientSpec,
    Subgroup,
    character_vector,
)

__all__ = [
    "Signal",
    "SubgroupSignal",
    "QuotientSignal",
    "dirac",
    "pure_frequency",
    "dirac_comb",
    "signal_to_comb",
    "translate",
    "modulate",
    "tf_shift",
    "finite_gaussian",
    "random_signal",
]


def _frozen(values) -> np.ndarray:
    """Read-only C-ordered complex array, copied unless the input is one that owns its data.

    A writeable array, or a view of one, could still change after it is handed over.
    """
    arr = np.asarray(values, dtype=np.complex128)
    if arr.flags.writeable or not arr.flags.owndata or not arr.flags.c_contiguous:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _as_values(values, *shape: int) -> np.ndarray:
    """Frozen values of the given shape; every container's size and finiteness check."""
    vals = _frozen(values)
    if vals.size != math.prod(shape):
        raise ValueError(f"expected {math.prod(shape)} values, got {vals.size}")
    if not np.all(np.isfinite(vals)):
        raise DomainError("values are not finite: the result overflowed, or inf/nan was given")
    return vals.reshape(shape)


@dataclass(frozen=True, eq=False)
class Signal:
    """Complex-valued function on a group, canonical element order."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.group.order))

    def grid(self) -> np.ndarray:
        """Values reshaped to one axis per group factor (read-only view)."""
        return self.values.reshape(self.group.moduli)

    @property
    def norm1(self) -> float:
        return float(np.sum(np.abs(self.values)))

    @property
    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))

    @property
    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other: "Signal") -> "Signal":
        if not isinstance(other, Signal):
            return NotImplemented
        if other.group != self.group:
            raise GroupMismatchError("signals live on different groups")
        return Signal(self.group, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        if not isinstance(other, Signal):
            return NotImplemented
        if other.group != self.group:
            raise GroupMismatchError("signals live on different groups")
        return Signal(self.group, self.values - other.values)

    def __mul__(self, scalar) -> "Signal":
        if isinstance(scalar, (int, float, complex, np.number)):
            return Signal(self.group, self.values * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "Signal":
        return Signal(self.group, -self.values)

    def __repr__(self) -> str:
        return f"Signal(on {self.group!r})"


@dataclass(frozen=True, eq=False)
class SubgroupSignal:
    """Values attached to a subgroup's elements, in sorted element order."""

    subgroup: Subgroup
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.subgroup.order))

    def as_signal(self) -> Signal:
        """Reinterpret on the reduced spec when the subgroup is a per-axis grid.

        The grid a_1 Z x ... x a_d Z is isomorphic to Z_{N_1/a_1} x ... via
        k |-> a k, and the sorted element order matches the canonical order of
        the reduced spec, so the value array carries over unchanged.
        """
        steps = self.subgroup.axis_steps
        if steps is None:
            raise GroupMismatchError(
                "only per-axis grid subgroups can be reindexed as signals"
            )
        moduli = tuple(
            n // a for n, a in zip(self.subgroup.parent.moduli, steps)
        )
        return Signal(GroupSpec(moduli), self.values)

    def __repr__(self) -> str:
        return f"SubgroupSignal(on {self.subgroup!r})"


@dataclass(frozen=True, eq=False)
class QuotientSignal:
    """Values attached to a quotient's coset representatives, in rep order."""

    quotient: QuotientSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.quotient.size))

    def __repr__(self) -> str:
        return f"QuotientSignal(on {self.quotient!r})"


def dirac(group: GroupSpec, x) -> Signal:
    """Unit point mass at x (indicator normalization, no 1/|G| factor)."""
    vals = np.zeros(group.order, dtype=np.complex128)
    vals[group.index(x)] = 1.0
    return Signal(group, vals)


def pure_frequency(group: GroupSpec, s) -> Signal:
    """The character chi_s as a signal."""
    return Signal(group, character_vector(group, s))


def dirac_comb(lattice: Subgroup) -> Signal:
    """Indicator of the lattice: unit mass at every lattice point."""
    return Signal(lattice.parent, lattice.mask.astype(np.complex128))


def signal_to_comb(f: Signal, lattice: Subgroup, eps: float = 1e-10) -> SubgroupSignal:
    """Read the comb weights on a lattice off a signal, certifying it vanishes elsewhere.

    Raises SupportViolation at the first canonical position where |f| exceeds
    the absolute threshold eps off the lattice.
    """
    if lattice.parent != f.group:
        raise GroupMismatchError("lattice belongs to a different group")
    mags = np.abs(f.values)
    off = mags * ~lattice.mask
    worst = int(np.argmax(off))
    if off[worst] > eps:
        raise SupportViolation(f.group.element_at(worst), off[worst])
    return SubgroupSignal(lattice, f.values[lattice.indices])


def translate(f: Signal, t) -> Signal:
    """T_t f(x) = f(x - t)."""
    t = f.group.check(t)
    rolled = np.roll(f.grid(), shift=t.coords, axis=tuple(range(f.group.ndim)))
    return Signal(f.group, rolled.reshape(-1))


def _coset_shape(moduli, steps) -> tuple[int, ...]:
    """Each axis N_j split as (N_j / a_j, a_j): lattice index outer, residue mod a_j inner."""
    return tuple(x for n, a in zip(moduli, steps) for x in (n // a, a))


def _fold(values: np.ndarray, steps) -> np.ndarray:
    """Sum the trailing group axes of values over each coset r + aZ of a grid lattice.

    The result keeps the leading axes and has trailing shape a.  For the
    lattice {0} (every step equal to its modulus) it is values itself.
    """
    steps = tuple(steps)
    lead = values.ndim - len(steps)
    moduli = values.shape[lead:]
    if moduli == steps:
        return values
    split = values.reshape(values.shape[:lead] + _coset_shape(moduli, steps))
    return split.sum(axis=tuple(range(lead, split.ndim, 2)))


def _translate_sum(f: Signal, lattice: Subgroup) -> np.ndarray:
    """sum over t in a grid lattice of T_t f, in O(|G|).

    The sum is constant on each coset x + H and equals the sum of f over
    it: the fold of f over H, tiled back over the group.
    reference.translate_sum_direct is the one-translate-per-point oracle.
    """
    steps = lattice.axis_steps
    if steps is None:
        raise GroupMismatchError("translate sums need a per-axis grid lattice")
    tiles = tuple(n // a for n, a in zip(f.group.moduli, steps))
    return np.tile(_fold(f.grid(), steps), tiles).reshape(-1)


def modulate(f: Signal, s) -> Signal:
    """M_s f(x) = chi_s(x) f(x)."""
    return Signal(f.group, f.values * character_vector(f.group, s))


def tf_shift(f: Signal, t, s) -> Signal:
    """Time-frequency shift pi(t, s) = M_s T_t (modulate after translate)."""
    return modulate(translate(f, t), s)


@lru_cache(maxsize=None)
def _axis_gaussian(n: int) -> tuple[float, ...]:
    vals = []
    for k in range(n):
        acc = 0.0
        for m in range(-8, 9):
            acc += math.exp(-math.pi * (k + m * n) ** 2 / n)
        vals.append(acc)
    return tuple(vals)


@lru_cache(maxsize=None)
def _finite_gaussian(moduli: tuple[int, ...]) -> Signal:
    grid = np.array(1.0)
    for n in moduli:
        axis = np.array(_axis_gaussian(n), dtype=np.float64)
        grid = np.multiply.outer(grid, axis)
    return Signal(GroupSpec(moduli), grid.reshape(-1))


def finite_gaussian(group: GroupSpec) -> Signal:
    """Periodized Gaussian, the canonical window.

    Per axis g[k] = sum_{|m| <= 8} exp(-pi (k + m N)^2 / N), tensorized
    across axes.  The omitted tail is below exp(-pi * 81 * N), far under
    double precision, which makes the window an eigenvector of the Fourier
    transform: dft(g) = sqrt(|G|) g to machine accuracy under the counting
    convention.
    """
    return _finite_gaussian(group.moduli)


def random_signal(group: GroupSpec, rng: np.random.Generator) -> Signal:
    """Complex standard-normal test signal."""
    re = rng.standard_normal(group.order)
    im = rng.standard_normal(group.order)
    return Signal(group, re + 1j * im)
