"""Partitions of unity, semidiscrete extension, and sampling recovery.

A BUPU (bounded uniform partition of unity) subordinate to a grid lattice is
a mother bump phi with sum over lattice translates identically one; bumps are
literally the translates.  Three shapes are provided per axis and tensorized:

  * triangle:  hat of half-width a (the lattice step); vanishes on the other
    lattice points, so extension interpolates.
  * bspline2:  circular self-convolution of the hat, renormalized to keep the
    partition property; smoother, wider, not interpolating.
  * indicator: fundamental-domain indicator [0, a); exact partition and
    interpolating.

An axis whose step equals its modulus carries a single coset; its profile is
the constant one, which keeps the partition exact in that degenerate case.

Semidiscrete extension turns lattice samples c, a SubgroupSignal on the
lattice, into sum_lambda c_lambda T_lambda phi, equivalently the convolution
of the weighted comb with phi.  It is computed as the direct double sum,
taken over whichever index set is shorter: the lattice (c_lambda T_lambda
phi) or supp(phi) (phi(p) T_p of the weighted comb).  Either way restriction
back to the lattice is exact (every other term is an exact zero there)
whenever supp(phi) meets the lattice only at 0 and phi(0) = 1, which an FFT
convolution is not; that route is the oracle
reference.extension_by_convolution.  The partition check sums the lattice
translates of the mother bump in O(|G|) per coset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GroupMismatchError
from .fourier import adjoint_restriction, restriction
from .gabor import s0_norm
from .groups import GroupSpec, Subgroup
from .signals import Signal, SubgroupSignal, _translate_sum, translate

__all__ = [
    "BUPU",
    "make_bupu",
    "semidiscrete_extension",
    "tensor_extension",
    "SamplingBound",
    "sampling_bound",
    "QuasiResult",
    "quasi_interpolate",
    "BUPU_SHAPES",
]

BUPU_SHAPES = ("triangle", "bspline2", "indicator")


@dataclass(frozen=True, eq=False)
class BUPU:
    """Partition of unity subordinate to a grid lattice."""

    group: GroupSpec
    lattice: Subgroup
    shape: str
    mother: Signal
    partition_residual: float

    @cached_property
    def bumps(self) -> tuple[Signal, ...]:
        """The lattice translates of the mother bump; |H| full-size signals."""
        return tuple(translate(self.mother, lam) for lam in self.lattice.coords_array)


def _triangle_profile(n: int, a: int) -> np.ndarray:
    if a == n:
        return np.ones(n)
    k = np.arange(n)
    dist = np.minimum(k, n - k)
    return np.maximum(0.0, 1.0 - dist / a)


def _axis_profile(n: int, a: int, shape: str) -> np.ndarray:
    if shape == "triangle":
        return _triangle_profile(n, a)
    if shape == "indicator":
        if a == n:
            return np.ones(n)
        prof = np.zeros(n)
        prof[:a] = 1.0
        return prof
    if shape == "bspline2":
        base = _triangle_profile(n, a)
        conv = np.zeros(n)
        for j in np.nonzero(base)[0]:
            conv += base[j] * np.roll(base, j)
        return conv / base.sum()
    raise ValueError(f"unknown bump shape {shape!r}; choose from {BUPU_SHAPES}")


def make_bupu(group: GroupSpec, lattice: Subgroup, shape: str = "triangle") -> BUPU:
    """Build the partition of unity for a grid lattice and a bump shape."""
    if lattice.parent != group:
        raise GroupMismatchError("lattice belongs to a different group")
    steps = lattice.axis_steps
    if steps is None:
        raise GroupMismatchError(
            "incompatible lattice spacing: bump shapes need a per-axis grid lattice"
        )
    grid = np.array(1.0)
    for n, a in zip(group.moduli, steps):
        grid = np.multiply.outer(grid, _axis_profile(n, a, shape))
    mother = Signal(group, grid.reshape(-1))
    residual = float(np.max(np.abs(_translate_sum(mother, lattice) - 1.0)))
    return BUPU(group, lattice, shape, mother, residual)


def _weighted_translates(f: Signal, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] T_{points[k]} f, accumulated in the given order."""
    out = np.zeros(f.group.order, dtype=np.complex128)
    for t, w in zip(points, weights):
        out += w * translate(f, t).values
    return out


def semidiscrete_extension(samples: SubgroupSignal, phi: Signal) -> Signal:
    """sum_lambda c_lambda T_lambda phi, the comb-with-phi convolution.

    Accumulates translates over the lattice or over supp(phi), whichever is
    shorter (exact at lattice points when phi interpolates).
    A window with phi(0) != 1 voids the interpolation contract and triggers
    a warning.
    """
    lattice = samples.subgroup
    if lattice.parent != phi.group:
        raise GroupMismatchError("samples and window live on different groups")
    if abs(phi.values[0] - 1.0) > 1e-12:
        warnings.warn(
            "phi(0) != 1: extension does not interpolate its samples",
            stacklevel=2,
        )
    # the same double sum over whichever index set is shorter
    support = np.flatnonzero(phi.values)
    if lattice.order <= support.size:
        out = _weighted_translates(phi, lattice.coords_array, samples.values)
    else:
        comb = adjoint_restriction(samples)
        out = _weighted_translates(comb, phi.group._coords[support], phi.values[support])
    return Signal(phi.group, out)


def tensor_extension(f: Signal, g: Signal) -> Signal:
    """(f tensor g)(x, y) = f(x) g(y) on the product group.

    With g(0) = 1 this extends f to the product so that restriction to the
    first factor returns f; the transform, restriction and s0_norm all
    factorize across the tensor.
    """
    moduli = f.group.moduli + g.group.moduli
    values = np.outer(f.values, g.values).reshape(-1)
    return Signal(GroupSpec(moduli), values)


class SamplingBound(NamedTuple):
    lattice_l1: float
    ratio: float


def sampling_bound(f: Signal, lattice: Subgroup) -> SamplingBound:
    """l1 mass of the lattice samples and its ratio to s0_norm(f).

    The ratio is the measured constant in sum_lambda |f(lambda)| <= C s0_norm(f);
    it is reported, not asserted.  s0_norm is a norm, so it only vanishes for
    the zero signal, whose samples vanish too.
    """
    if lattice.parent != f.group:
        raise GroupMismatchError("lattice belongs to a different group")
    lhs = float(np.sum(np.abs(f.values[lattice.indices])))
    denom = s0_norm(f)
    if denom == 0.0:
        if lhs > 0.0:
            raise ArithmeticError("nonzero samples with vanishing s0_norm")
        return SamplingBound(0.0, 0.0)
    return SamplingBound(lhs, lhs / denom)


class QuasiResult(NamedTuple):
    approximation: Signal
    sup_error: float


def quasi_interpolate(f: Signal, lattice: Subgroup, shape: str = "triangle") -> QuasiResult:
    """sum_lambda f(lambda) bump_lambda and its sup-norm error against f."""
    bupu = make_bupu(f.group, lattice, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        approx = semidiscrete_extension(restriction(f, lattice), bupu.mother)
    err = float(np.max(np.abs(approx.values - f.values)))
    return QuasiResult(approx, err)
