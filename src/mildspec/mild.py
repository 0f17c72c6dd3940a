"""Weak-star convergence surrogates, support certificates, and periodicity.

On a finite group every linear functional is itself a signal, so weak-star
(distributional) convergence has to be measured, not defined; this module
offers three computable deviation metrics between a signal sigma and a
candidate limit sigma0:

  * d_pair:  max over a probe set of |pair(sigma - sigma0, f)| / (1 + s0_norm(f)),
  * d_stft:  max pointwise STFT deviation against a fixed window (the
             Gaussian g0 in convergence_report),
  * d_coeff: max deviation of canonical Gabor coefficients on a lattice.

The three vanish together, and along refining comb sequences they decrease
together; their measured ratios are reported, never asserted.

The probe set of d_pair is fixed: the Gaussian atoms M_s T_t g0 on the
probe net, the lattice aZ x aZ with a_j the largest divisor of N_j at most
max(N_j // 4, 1), and every point mass.  |V_g0| is covariant under
time-frequency shifts, so every atom has the norm s0_norm(g0), and
|V_g0 delta_x(t, s)| = g0(x - t) gives every point mass the norm
|G| ||g0||_1 / ||g0||_2^2.  g0 is real, so pair(delta, M_s T_t g0) =
V_g0 delta(t, -s): over the net, whose frequencies are closed under
negation, the atom half of d_pair is one lattice STFT maximum, and no atom
is built.  reference.pairing_deviations over default_probes is its oracle.

The module also certifies structural facts: the support of a signal (the
values above 1e-10 of its peak), and the periodicity law saying a signal is
pZ-periodic iff its spectrum lives on the annihilator (N/p)Z, with comb
weights |H| times the one-period DFT coefficients (H = pZ the period
lattice); both sides are held to 1e-10 (1 + peak).  The spectrum comes back
as a SubgroupSignal on (N/p)Z, read off by signals.signal_to_comb, which is
the comb-form certificate for any measure on a lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GroupMismatchError, NotPeriodic
from .fourier import dft
from .gabor import GaborSystem, TFLattice, _tf_abs_max, s0_norm, s0prime_norm
from .groups import (
    GroupSpec,
    Subgroup,
    _character_block,
    _grid_steps,
    annihilator,
    grid_subgroup,
)
from .signals import (
    Signal,
    SubgroupSignal,
    dirac,
    dirac_comb,
    finite_gaussian,
    signal_to_comb,
    tf_shift,
    translate,
)

__all__ = [
    "support",
    "PeriodicReport",
    "periodize_analysis",
    "default_probes",
    "mild_deviation_pairing",
    "mild_deviation_stft",
    "mild_deviation_coeff",
    "DistributionSequence",
    "ConvergenceReport",
    "convergence_report",
    "refining_comb_sequence",
]


def support(sigma: Signal) -> frozenset[tuple[int, ...]]:
    """Elements where |sigma| exceeds 1e-10 times its peak.

    The zero signal has empty support.
    """
    mags = np.abs(sigma.values)
    peak = float(mags.max())
    if peak == 0.0:
        return frozenset()
    hit = np.nonzero(mags > 1e-10 * peak)[0]
    return frozenset(map(tuple, sigma.group._coords[hit].tolist()))


@dataclass(frozen=True, eq=False)
class PeriodicReport:
    """Outcome of the periodicity analysis of a signal."""

    period_lattice: Subgroup
    spectrum: SubgroupSignal
    one_period_dft: np.ndarray
    weight_residual: float
    leakage: float


def periodize_analysis(f: Signal, period) -> PeriodicReport:
    """Certify periodicity and factor the spectrum as a weighted comb.

    For per-axis periods p (each dividing its modulus) the checks are:

      1. T_h f = f for the generators p_j e_j of H = pZ; translations
         compose, so generator invariance settles the whole lattice.  The
         tolerance is 1e-10 * (1 + max|f|); failure raises NotPeriodic.
      2. The spectrum is supported on annihilator(H) = (N/p)Z; off-lattice
         leakage above 1e-10 * (1 + max|fhat|), the frequency-side twin of
         check 1, raises SupportViolation.  The reported leakage is the
         absolute off-lattice maximum.
      3. The comb weights equal |H| * F(n), where F is the one-period DFT
         F(n) = sum over t in the box [0, p) of f(t) conj(chi_{s(n)}(t)),
         s(n) = (N_j/p_j) n_j, computed by direct summation.  The |H| factor
         is forced by the counting convention.
    """
    group = f.group
    steps = _grid_steps(group, period)
    H = grid_subgroup(group, steps)
    scale = 1e-10 * (1.0 + f.norm_inf)
    for shift in H.generators:
        dev = float(np.max(np.abs(translate(f, shift).values - f.values)))
        if dev > scale:
            raise NotPeriodic(shift, dev)

    perp = annihilator(H)
    fhat = dft(f)
    leakage = float(np.max(np.abs(fhat.values) * ~perp.mask))
    spectrum = signal_to_comb(fhat, perp, eps=1e-10 * (1.0 + fhat.norm_inf))

    box_coords = GroupSpec(steps)._coords
    box_values = f.values[group._index_rows(box_coords)]
    table = np.conj(_character_block(group, perp.coords_array, box_coords))
    one_period = table @ box_values
    weight_residual = float(
        np.max(np.abs(spectrum.values - H.order * one_period))
    )
    return PeriodicReport(H, spectrum, one_period, weight_residual, leakage)


def _probe_net(group: GroupSpec) -> TFLattice:
    """The atoms' lattice aZ x aZ: a_j is N_j over its smallest divisor k >= 4, else 1."""
    step = tuple(next((n // k for k in range(4, n + 1) if n % k == 0), 1) for n in group.moduli)
    return TFLattice(group, step, step)


def _default_probe_norms(group: GroupSpec) -> tuple[float, float]:
    """s0_norm of every default Gaussian atom and of every point mass."""
    g0 = finite_gaussian(group)
    return s0_norm(g0), group.order * g0.norm1 / g0.norm2**2


def default_probes(group: GroupSpec) -> list[Signal]:
    """Gaussian atoms over the probe net's points, then every point mass: the oracle's input."""
    g0 = finite_gaussian(group)
    atoms = [tf_shift(g0, t, s) for t, s in _probe_net(group).points()]
    return atoms + [dirac(group, x) for x in group.elements()]


def _pairing_deviations(deltas: np.ndarray, group: GroupSpec) -> np.ndarray:
    """d_pair of each row of deltas (members, |G|): an STFT maximum on the net, and max |delta|."""
    g0 = finite_gaussian(group)
    net = _probe_net(group)
    atom_norm, point_norm = _default_probe_norms(group)
    atoms = np.array([_tf_abs_max(delta, g0, net) for delta in deltas])
    points = np.abs(deltas).max(axis=1) / (1.0 + point_norm)
    return np.maximum(atoms / (1.0 + atom_norm), points)


def mild_deviation_pairing(sigma: Signal, sigma0: Signal) -> float:
    """max over the default probes f of |pair(sigma - sigma0, f)| / (1 + s0_norm(f))."""
    return float(_pairing_deviations((sigma - sigma0).values[None, :], sigma.group)[0])


def mild_deviation_stft(sigma: Signal, sigma0: Signal, window: Signal | None = None) -> float:
    """Largest pointwise STFT deviation; default window is the Gaussian."""
    if window is None:
        window = finite_gaussian(sigma.group)
    return _tf_abs_max((sigma - sigma0).values, window, TFLattice(sigma.group, 1, 1))


def mild_deviation_coeff(sigma: Signal, sigma0: Signal, system: GaborSystem) -> float:
    """Largest deviation of canonical Gabor coefficients on the system's lattice."""
    if sigma.group != sigma0.group:
        raise GroupMismatchError("signals live on different groups")
    if system.group != sigma.group:
        raise GroupMismatchError("system lives on a different group")
    return _tf_abs_max(sigma.values - sigma0.values, system.canonical_dual, system.lattice)


@dataclass(frozen=True, eq=False)
class DistributionSequence:
    """A sequence of signals with a designated candidate limit."""

    group: GroupSpec
    members: tuple[Signal, ...]
    limit: Signal

    def __post_init__(self):
        for m in (*self.members, self.limit):
            if m.group != self.group:
                raise GroupMismatchError("sequence member lives on a different group")

    @cached_property
    def uniform_bound(self) -> float:
        """max s0prime_norm over the members (uniform boundedness certificate)."""
        return max((s0prime_norm(m) for m in self.members), default=0.0)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-member deviation metrics for a sequence against its limit."""

    d_pair: tuple[float, ...]
    d_stft: tuple[float, ...]
    d_coeff: tuple[float, ...]
    equivalence_ratios: dict[str, float]

    def is_monotone(self, metric: str) -> bool:
        """Non-increasing check, with a slack of 1e-10 (1 + first value) for rounding ties."""
        series = getattr(self, metric if metric.startswith("d_") else f"d_{metric}")
        slack = 1e-10 * (1.0 + (series[0] if series else 0.0))
        return all(b <= a + slack for a, b in zip(series, series[1:]))


def convergence_report(sequence: DistributionSequence, system: GaborSystem) -> ConvergenceReport:
    """Evaluate all three deviation metrics for every member of a sequence.

    d_pair pairs with the default probes by their closed-form norms and one
    lattice STFT on the probe net per member; d_stft uses the Gaussian window.
    Metrics that overflow from finite members raise DomainError.
    """
    group = sequence.group
    if system.group != group:
        raise GroupMismatchError("system lives on a different group")
    deltas = np.array(
        [(m - sequence.limit).values for m in sequence.members], dtype=np.complex128
    ).reshape(len(sequence.members), group.order)
    d_pair = [float(v) for v in _pairing_deviations(deltas, group)]
    dual = system.canonical_dual
    plane = TFLattice(group, 1, 1)
    g0 = finite_gaussian(group)
    d_stft = [_tf_abs_max(delta, g0, plane) for delta in deltas]
    d_coeff = [_tf_abs_max(delta, dual, system.lattice) for delta in deltas]

    ratios: dict[str, float] = {}
    for name, series in (("pair", d_pair), ("coeff", d_coeff)):
        vals = [s / t for s, t in zip(series, d_stft) if t > 0]
        if vals:
            ratios[f"{name}_over_stft_max"] = float(max(vals))
            ratios[f"{name}_over_stft_min"] = float(min(vals))
    if not np.all(np.isfinite([*d_pair, *d_stft, *d_coeff, *ratios.values()])):
        raise DomainError("deviation metrics are not finite: the result overflowed")
    return ConvergenceReport(tuple(d_pair), tuple(d_stft), tuple(d_coeff), ratios)


def _smallest_prime_factor(n: int) -> int:
    """By trial division up to sqrt(n): n itself when n is prime or 1."""
    return next((q for q in range(2, math.isqrt(n) + 1) if n % q == 0), n)


def refining_comb_sequence(group: GroupSpec) -> DistributionSequence:
    """Normalized combs on a refining chain of grid lattices.

    Starts at the trivial lattice (a single point mass) and divides one step
    by its smallest prime factor per stage until the full group is reached;
    the candidate limit is the normalized constant, i.e. uniform measure.
    The normalized combs' transforms are unit combs on the shrinking
    annihilator lattices, which is what drives all three metrics down.
    """
    steps = list(group.moduli)
    chain = [tuple(steps)]
    while any(s > 1 for s in steps):
        j = max(range(len(steps)), key=lambda k: steps[k])
        steps[j] //= _smallest_prime_factor(steps[j])
        chain.append(tuple(steps))
    members = []
    for st in chain:
        lat = grid_subgroup(group, st)
        members.append(dirac_comb(lat) * (1.0 / lat.order))
    limit = Signal(group, np.full(group.order, 1.0 / group.order, dtype=np.complex128))
    return DistributionSequence(group, tuple(members), limit)
