"""Fourier transforms, sampling/periodization duality, and Poisson summation.

Under the default counting convention the forward transform is

    fhat(s) = sum_x f(x) conj(chi_s(x)),

with no prefactor, and the inverse carries 1/|G|.  Consequences used
throughout (all with the counting convention):

  * dft(dirac(x))(s) = conj(chi_s(x)); in particular dft(dirac(0)) = 1.
  * dft(pure_frequency(r)) = |G| dirac(r).
  * dft(dirac_comb(L)) = |L| dirac_comb(annihilator(L)).
  * Plancherel: sum |fhat|^2 = |G| sum |f|^2.
  * Double transform: dft(dft(f))(x) = |G| f(-x).
  * Poisson: sum_{h in H} f(h) = (|H|/|G|) sum_{s in annihilator(H)} fhat(s).

The "unitary" convention divides the forward transform by sqrt(|G|) and
multiplies the inverse likewise, making both isometries.

Sampling is restriction to a subgroup; its adjoint embeds a subgroup signal
back with zeros.  Periodization is the coset-sum (Weil) map onto a quotient.
Transforms on subgroups and quotients are indexed through the dualities
(G/H)^ = annihilator(H) and H^ = G^ / annihilator(H), which make both of them
readings of one group FFT; the direct sums are oracles in ``reference``.
Each ``Subgroup`` computes its annihilator and its quotient once, so every
transform on either side of a duality lands on the same index objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GroupMismatchError
from .groups import Subgroup, annihilator, quotient as quotient_of
from .signals import (
    QuotientSignal,
    Signal,
    SubgroupSignal,
    dirac_comb,
    signal_to_comb,
)

__all__ = [
    "FourierConvention",
    "COUNTING",
    "UNITARY",
    "dft",
    "idft",
    "mild_ft",
    "pair",
    "restriction",
    "adjoint_restriction",
    "weil_map",
    "dft_subgroup",
    "dft_quotient",
    "poisson_check",
    "PoissonResult",
    "duality_sampling_periodization",
    "DualityResult",
    "comb_ft",
]


@dataclass(frozen=True)
class FourierConvention:
    """Normalization of the transform pair; the forward exponent sign is fixed negative."""

    normalization: str

    def __post_init__(self):
        if self.normalization not in ("counting", "unitary"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


COUNTING = FourierConvention("counting")
UNITARY = FourierConvention("unitary")


def dft(f: Signal, convention: FourierConvention = COUNTING) -> Signal:
    """Forward transform, an FFT along each axis."""
    spec = np.fft.fftn(f.grid())
    if convention.normalization == "unitary":
        spec = spec / math.sqrt(f.group.order)
    return Signal(f.group, spec.reshape(-1))


def idft(f: Signal, convention: FourierConvention = COUNTING) -> Signal:
    """Inverse transform; carries 1/|G| under the counting convention."""
    vals = np.fft.ifftn(f.grid())
    if convention.normalization == "unitary":
        vals = vals * math.sqrt(f.group.order)
    return Signal(f.group, vals.reshape(-1))


def pair(sigma: Signal, f: Signal) -> complex:
    """Bilinear pairing sum_x sigma(x) f(x); no conjugation."""
    if sigma.group != f.group:
        raise GroupMismatchError("pairing needs both signals on the same group")
    return complex(np.sum(sigma.values * f.values))


def mild_ft(sigma: Signal, convention: FourierConvention = COUNTING) -> Signal:
    """Transform of a signal in its role as a functional.

    Characterized by pair(mild_ft(sigma), f) = pair(sigma, dft(f)) for all f,
    which the symmetry chi_s(x) = chi_x(s) turns into the ordinary transform:
    both pairings equal sum_{x,s} sigma(x) f(s) conj(chi_s(x)).
    """
    return dft(sigma, convention)


def restriction(f: Signal, subgroup: Subgroup) -> SubgroupSignal:
    """Sample a signal on a subgroup: (R_H f)(h) = f(h)."""
    if subgroup.parent != f.group:
        raise GroupMismatchError("subgroup belongs to a different group")
    return SubgroupSignal(subgroup, f.values[subgroup.indices])


def adjoint_restriction(mu: SubgroupSignal) -> Signal:
    """Embed a subgroup signal with zeros off the subgroup: the comb sum_h mu(h) delta_h.

    Adjoint to restriction under the bilinear pairing:
    pair(adjoint_restriction(mu), f) = sum_h mu(h) f(h), exactly.
    """
    group = mu.subgroup.parent
    vals = np.zeros(group.order, dtype=np.complex128)
    vals[mu.subgroup.indices] = mu.values
    return Signal(group, vals)


def weil_map(f: Signal, subgroup: Subgroup) -> QuotientSignal:
    """Coset sums on quotient(G, H): (T_H f)(x + H) = sum_{h in H} f(x + h).

    The sum runs over each coset in canonical order, so the result does not
    depend on which representatives the quotient (computed once per H) lists.
    """
    onto = quotient_of(f.group, subgroup)
    out = np.zeros(onto.size, dtype=np.complex128)
    np.add.at(out, onto.coset_map, f.values)
    return QuotientSignal(onto, out)


def dft_subgroup(mu: SubgroupSignal) -> QuotientSignal:
    """Transform on a subgroup, indexed by the dual identification H^ = G^/H-perp.

    Every character of H is the restriction of a parent character, and two
    parent frequencies restrict equally iff they differ by an annihilator
    element; so the transform is the group FFT of the zero-extended signal,
    read at the representatives of G^/H-perp, which H computes once.
    """
    onto = quotient_of(mu.subgroup.parent, annihilator(mu.subgroup))
    hat = dft(adjoint_restriction(mu))
    return QuotientSignal(onto, hat.values[onto.rep_indices])


def dft_quotient(q: QuotientSignal) -> SubgroupSignal:
    """Transform on a quotient, indexed by the dual identification (G/H)^ = H-perp.

    A frequency annihilating H is constant on cosets: the transform is the group
    FFT of the coset values at their representatives, read on H-perp, which H
    computes once.
    """
    Q = q.quotient
    perp = annihilator(Q.subgroup)
    placed = np.zeros(Q.parent.order, dtype=np.complex128)
    placed[Q.rep_indices] = q.values
    hat = dft(Signal(Q.parent, placed))
    return SubgroupSignal(perp, hat.values[perp.indices])


class PoissonResult(NamedTuple):
    lhs: complex
    rhs: complex
    residual: float


def poisson_check(f: Signal, subgroup: Subgroup) -> PoissonResult:
    """Poisson summation: sum_{h in H} f(h) = (|H|/|G|) sum_{s in H-perp} fhat(s).

    The constant |H|/|G| = 1/|H-perp| is forced by the counting convention;
    summing character orthogonality over H-perp proves the identity exactly.
    """
    lhs = complex(np.sum(restriction(f, subgroup).values))
    fhat = dft(f)
    perp = annihilator(subgroup)
    rhs = complex(
        (subgroup.order / f.group.order) * np.sum(fhat.values[perp.indices])
    )
    return PoissonResult(lhs, rhs, abs(lhs - rhs))


class DualityResult(NamedTuple):
    lhs: QuotientSignal
    rhs: QuotientSignal
    residual: float


def duality_sampling_periodization(f: Signal, subgroup: Subgroup) -> DualityResult:
    """Sampling on H against periodization of the spectrum by H-perp.

    Checks T_{H-perp}(dft_G f) = |H-perp| * dft_H(restriction(f, H)) on the
    shared quotient G^/H-perp; returns both sides and the max abs residual.
    """
    perp = annihilator(subgroup)
    lhs = weil_map(dft(f), perp)
    sampled = dft_subgroup(restriction(f, subgroup))
    rhs = QuotientSignal(lhs.quotient, perp.order * sampled.values)
    residual = float(np.max(np.abs(lhs.values - rhs.values)))
    return DualityResult(lhs, rhs, residual)


def comb_ft(lattice: Subgroup) -> SubgroupSignal:
    """Transform of the unit comb: |L| on the annihilator lattice, zero elsewhere.

    Computed through the FFT and certified by signal_to_comb, so FFT leakage
    beyond 1e-10 raises SupportViolation instead of being silently dropped.
    """
    hat = dft(dirac_comb(lattice))
    return signal_to_comb(hat, annihilator(lattice))
