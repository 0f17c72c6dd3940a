"""Self-check suites behind the ``verify`` command.

Each suite is a generator of the identities it checks on one group.  A gate
comes as (name, residual, threshold); a flag or an informational line comes
as the Check that _flag or _info builds.  One runner, _judged, turns a suite
into its list of checks, and ``tolerance`` is the runner's own keyword: no
suite declares it.  A tolerance replaces every gate's threshold and leaves
flags and informational lines as they are.  Informational checks carry a
value but no threshold and never fail a run.  A Check is its report row: its
fields are the keys of one entry of the report's "checks".  A report holds
no clock, so a fixed seed yields byte-identical report files.

The seed drives every random draw of a suite through one _Stream on the
standard library's random.Random, not numpy.random: the test signals, the
element triples of the group suite, the gabor suite's sampled cells, which
are part 1 of the seed, and the mild suite's nonnegative signal and sampled
cells, which are part 2.

The per-subgroup checks (annihilator order duality, biduality and the
quotient partition in the group suite, Poisson summation, sampling against
periodization, the subgroup and quotient transforms and the comb transform
in the fourier suite, and the mild suite's comb spectrum) run on every
subgroup of G that groups.all_subgroups lists, with no sample; one run
enumerates them once, and Poisson summation holds each subgroup to the same
three test signals, drawn once.

Each check costs about what its identity needs.  The gabor suite streams
its energy and rotation checks: rows of the STFT of f^ from gabor's kernel
meet columns of the STFT of f from reference.stft_columns one block at a
time, so no |G| x |G| grid is held.  Its frame checks have a second route
at every order on the adjoint lattice L^o (reference.JanssenFrame): the
Janssen sum in O(|L^o| |G|), and the bounds, the dual and S^-1 from the
fibers of the Gram matrix of the atoms of L^o, so no check builds the synthesis matrix.
Above _ORACLE_MAX_ORDER two [INFO] lines name what that cap left out: the
share of the |G|^2 defining-sum cells that were sampled, and the dense
frame oracle, which is not built.  The mild suite holds the Gaussian maxima
(mild._gaussian_maxima) of the comb differences, of the comb members and of
a nonnegative signal, which read one time-0 row where their sign structure
allows, to the full-plane pass up to _ORACLE_MAX_ORDER and to an [INFO]
line above it.  At every order it runs a witness by the defining sum
(reference.stft_cells): the cell each line read names must hold the
claimed maximum, and no cell of a seeded sample, part 2 of the seed, may
exceed it, both to 1e-12 relative.  The approx suite checks that the
transform and the concentration norm factorize over a product on G x Z2,
for every G; the identity holds for any second factor, and Z2 keeps its
STFT at 4 |G|^2 cells.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from . import reference
from .approx import (
    BUPU_SHAPES,
    _halving_chain,
    make_bupu,
    quasi_interpolate,
    sampling_bound,
    semidiscrete_extension,
    tensor_extension,
)
from .errors import NotAFrame, NotPeriodic, SupportViolation
from .fourier import (
    comb_ft,
    dft,
    dft_quotient,
    dft_subgroup,
    duality_sampling_periodization,
    idft,
    pair,
    poisson_check,
    restriction,
    weil_map,
)
from .gabor import GaborSystem, TFLattice, _tf_abs_max, _tf_rows, _tf_synthesis, s0_norm, s0prime_norm
from .groups import GroupSpec, all_subgroups, annihilator, character, grid_subgroup, quotient
from .mild import (
    _gaussian_maxima,
    _smallest_prime_factor,
    convergence_report,
    periodize_analysis,
    refining_comb_sequence,
    support,
)
from .signals import Signal, _translate_sum, dirac, dirac_comb, finite_gaussian, random_signal

__all__ = [
    "Check",
    "RunReport",
    "verify_group",
    "verify_fourier",
    "verify_gabor",
    "verify_mild",
    "verify_approx",
    "verify_all",
]


class Check(NamedTuple):
    name: str
    residual: float
    threshold: float | None
    passed: bool

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.threshold is None:
            return f"[INFO] {self.name}: value={self.residual:.6e}"
        return f"[{tag}] {self.name}: residual={self.residual:.6e} threshold={self.threshold:.1e}"


@dataclass
class RunReport:
    command: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "passed": self.passed,
            "checks": [c._asdict() for c in self.checks],
        }


def _judged(suite: Callable[..., Iterator]) -> Callable[..., list[Check]]:
    """Run a suite that yields its identities and judge each one.

    A gate comes as (name, residual, threshold) and passes when the residual
    is at most the threshold.  ``tolerance``, when given, replaces every
    gate's threshold.  A flag or an informational Check passes through
    untouched.
    """

    @wraps(suite)
    def run(*args, tolerance: float | None = None, **kwargs) -> list[Check]:
        checks = []
        for item in suite(*args, **kwargs):
            if not isinstance(item, Check):
                name, residual, threshold = item
                residual = float(residual)
                threshold = threshold if tolerance is None else tolerance
                item = Check(name, residual, threshold, residual <= threshold)
            checks.append(item)
        return checks

    return run


def _info(name: str, value: float) -> Check:
    return Check(name, float(value), None, True)


def _flag(name: str, ok: bool) -> Check:
    return Check(name, 0.0 if ok else 1.0, 0.0, ok)


def _rel(delta: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(delta))) / (scale if scale > 0 else 1.0)


class _Stream:
    """The seeded draws of a suite, from the standard library's Mersenne Twister.

    A verify process needs no more of a generator than this, and importing
    numpy.random would load secrets, hmac and OpenSSL's hashlib with it.
    Each draw takes 8 bytes of randbytes per number, little-endian, so the
    draws are the same on every platform.  A negative seed is refused:
    random.Random would take its absolute value.  Part k of a seed is keyed
    on seed + k 2^64, an integer, so no hash module is involved, and for
    seeds below 2^64 no two parts share a key.
    """

    def __init__(self, seed: int, part: int = 0):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got seed={seed}")
        self._random = random.Random(seed + (part << 64))

    def _words(self, count: int) -> np.ndarray:
        return np.frombuffer(self._random.randbytes(8 * count), dtype="<u8")

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normals: Box-Muller on 53-bit uniforms in (0, 1)."""
        half = (n + 1) // 2
        u = ((self._words(2 * half) >> 11) + 0.5) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u[:half]))
        angle = 2.0 * np.pi * u[half:]
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]

    def integers(self, lo: int, hi: int, size) -> np.ndarray:
        """Integers in [lo, hi) of the given shape.

        Each is one 64-bit word mod hi - lo, biased by less than (hi - lo) / 2^64.
        """
        words = self._words(int(np.prod(size)))
        return lo + (words % np.uint64(hi - lo)).astype(np.int64).reshape(size)


# oracle comparisons that build |G| x |G| matrices or pass over the full |G| x |G|
# time-frequency plane run only up to this order
_ORACLE_MAX_ORDER = 128
# above it the defining STFT sum runs at this many seeded cells
_SAMPLED_CELLS = 256


@lru_cache(maxsize=8)
def _subgroups_for(G: GroupSpec) -> tuple:
    """Every subgroup of G, enumerated once and shared by one verify run."""
    return tuple(all_subgroups(G))


@_judged
def verify_group(G: GroupSpec, seed: int = 0):
    rng = _Stream(seed)

    n = G.order
    picks = rng.integers(0, n, size=(min(200, n * n), 3))
    worst = 0.0
    for i, j, k in picks:
        x, y, s = G.element_at(int(i)), G.element_at(int(j)), G.element_at(int(k))
        lhs = character(G, s, G.add(x, y))
        rhs = character(G, s, x) * character(G, s, y)
        worst = max(worst, abs(lhs - rhs))
    yield "character multiplicativity", worst, 1e-12

    zero = G.zero()
    cancel_ok = all(
        G.add(x, G.neg(x)) == zero
        for x in (G.element_at(int(i)) for i in rng.integers(0, n, size=min(64, n)))
    )
    yield _flag("inverse element cancels", cancel_ok)

    subs = _subgroups_for(G)
    yield _flag(
        "annihilator order duality",
        all(H.order * annihilator(H).order == n for H in subs),
    )
    yield _flag(
        "biduality",
        all(annihilator(annihilator(H)) == H for H in subs),
    )
    ok = True
    for H in subs:
        Q = quotient(G, H)
        if Q.size * H.order != n:
            ok = False
        counts = np.bincount(Q.coset_map, minlength=Q.size)
        if not np.all(counts == H.order):
            ok = False
    yield _flag("quotient partitions the group", ok)


@_judged
def verify_fourier(G: GroupSpec, seed: int = 0):
    rng = _Stream(seed)
    f = random_signal(G, rng)
    g = random_signal(G, rng)

    fhat = dft(f)
    yield ("transform matches defining sum",
           _rel(fhat.values - reference.naive_dft(f).values, fhat.values), 1e-12)
    yield "inverse transform roundtrip", _rel(idft(fhat).values - f.values, f.values), 1e-12
    fu = dft(f, unitary=True)
    yield "unitary roundtrip", _rel(idft(fu, unitary=True).values - f.values, f.values), 1e-12
    lhs = float(np.sum(np.abs(fhat.values) ** 2))
    rhs = G.order * float(np.sum(np.abs(f.values) ** 2))
    yield "energy identity", abs(lhs - rhs) / rhs, 1e-12
    double = dft(dft(f))
    reflected = G.order * f.values[G.negation_permutation()]
    yield "double transform reflects", _rel(double.values - reflected, reflected), 1e-12
    # chi_s(x) = chi_x(s), so both pairings equal sum_{x,s} f(x) g(s) conj(chi_s(x))
    lhs_p = pair(dft(f), g)
    rhs_p = pair(f, dft(g))
    yield "transform moves across the pairing", abs(lhs_p - rhs_p) / (1.0 + abs(rhs_p)), 1e-12

    subs = _subgroups_for(G)
    worst_poisson = 0.0
    worst_duality = 0.0
    worst_weil = 0.0
    worst_direct = 0.0
    comb_ok = True
    poisson_signals = [random_signal(G, rng) for _ in range(3)]
    for H in subs:
        for h in poisson_signals:
            worst_poisson = max(worst_poisson, poisson_check(h, H).residual)
        duality = duality_sampling_periodization(f, H)
        worst_duality = max(worst_duality, duality.residual)
        # periodizing along the annihilator then transforming on the quotient
        # must match sampling the transform on H
        onto = duality.lhs.quotient
        Hp = onto.subgroup
        sampled = restriction(fhat, H)
        per = weil_map(f, Hp)
        trans = dft_quotient(per)
        worst_weil = max(worst_weil, float(np.max(np.abs(trans.values - sampled.values))))
        mu = restriction(f, H)
        worst_direct = max(
            worst_direct,
            float(np.max(np.abs(
                dft_subgroup(mu).values - reference.dft_subgroup_direct(mu, onto).values))),
            float(np.max(np.abs(trans.values - reference.dft_quotient_direct(per, H).values))),
        )
        try:
            comb = comb_ft(H)
            if comb.subgroup != Hp:
                comb_ok = False
            if float(np.max(np.abs(comb.values - H.order))) > 1e-9:
                comb_ok = False
        except SupportViolation:
            comb_ok = False
    scale = 1.0 + float(np.max(np.abs(f.values)))
    yield "periodization-summation identity", worst_poisson, 1e-10
    yield "sampling-periodization duality", worst_duality / scale, 1e-10
    yield "periodize-then-transform equals sample-transform", worst_weil / scale, 1e-10
    yield "subgroup and quotient transforms match direct sums", worst_direct / scale, 1e-10
    yield _flag("comb transforms to dual comb", comb_ok)

    g0 = finite_gaussian(G)
    g0hat = dft(g0)
    sqrtn = float(np.prod([m ** 0.5 for m in G.moduli]))
    yield ("gaussian fixed by unitary transform",
           float(np.max(np.abs(g0hat.values - sqrtn * g0.values))), 1e-8 * sqrtn)


@_judged
def verify_gabor(G: GroupSpec, a, b, seed: int = 0):
    rng = _Stream(seed)
    g0 = finite_gaussian(G)
    lattice = TFLattice(G, a, b)
    yield _info("lattice redundancy", lattice.redundancy)

    f = random_signal(G, rng)
    h = random_signal(G, rng)
    # rows of the unitary transform's STFT meet the columns of f's STFT, rotated:
    # |V f^(t, s)| = |V f(-s, t)|, one row block against one column block
    normalized_hat = dft(f, unitary=True)
    if G.order <= _ORACLE_MAX_ORDER:
        direct = reference.stft_direct(normalized_hat, g0)
        times, freqs = np.indices(direct.shape).reshape(2, -1)
        direct = direct.reshape(-1)
    else:
        # the defining sum at seeded cells, drawn apart from the suite's stream
        cells = _Stream(seed, part=1)
        times, freqs = cells.integers(0, G.order, size=(2, _SAMPLED_CELLS))
        direct = reference.stft_cells(normalized_hat.values, g0, times, freqs)
    neg = G.negation_permutation()
    energy = peak = worst_direct = worst_rotation = 0.0
    for (block, rows), (_, cols) in zip(
        _tf_rows(normalized_hat.values, g0, TFLattice(G, 1, 1)),
        reference.stft_columns(f, g0),
    ):
        modulus = np.abs(rows)
        rotated = np.abs(cols[neg].T)
        energy += float(np.sum(modulus ** 2))
        peak = max(peak, float(np.max(modulus)))
        worst_rotation = max(worst_rotation, float(np.max(np.abs(modulus - rotated))))
        here = (times >= block.start) & (times < block.stop)
        if np.any(here):
            found = rows[times[here] - block.start, freqs[here]]
            worst_direct = max(worst_direct, float(np.max(np.abs(found - direct[here]))))
    yield ("short-time transform matches defining sum",
           worst_direct / (peak if peak > 0 else 1.0), 1e-11)
    if G.order > _ORACLE_MAX_ORDER:
        yield _info("defining-sum cells sampled (share of |G|^2)", times.size / G.order**2)
    target = G.order * g0.norm2 ** 2 * normalized_hat.norm2 ** 2
    yield "time-frequency energy identity", abs(energy - target) / target, 1e-10
    yield "transform rotates the time-frequency plane", worst_rotation, 1e-9 * (1.0 + peak)

    system = GaborSystem(g0, lattice)
    # g0 is a tensor product, so S is too, one factor per axis: an axis with
    # a_j b_j > N_j has fewer atoms than N_j, and its factor, like S, is singular
    density = [a * b for a, b in zip(lattice.time_steps, lattice.freq_steps)]
    if any(d > n for d, n in zip(density, G.moduli)):
        try:
            system.canonical_dual
            yield _flag("undersampled lattice rejected", False)
        except NotAFrame:
            yield _flag("undersampled lattice rejected", True)
        return
    if any(d == n for d, n in zip(density, G.moduli)) and not system.is_frame:
        # at critical density on an axis the window decides: report, but nothing to check
        yield _info("critical lattice is not a frame", system.frame_bounds[0])
        return

    A, B = system.frame_bounds
    yield _flag("frame bounds positive", system.is_frame)
    if not system.is_frame:
        return
    yield _info("frame condition number", B / A)

    # the second route lives on the adjoint lattice: the Janssen sum and its atoms' Gram matrix
    janssen = reference.JanssenFrame(g0, lattice)
    Sf = janssen.apply(f).values
    yield ("structured frame operator matches Janssen",
           max(_rel(system.apply_frame(f).values - Sf, Sf),
               _rel(system._blockwise(np.matmul, f.values) - Sf, Sf)), 1e-12)
    lower, upper = janssen.bound_estimates
    yield "lower frame bound above Janssen estimate", max(0.0, lower - A) / B, 1e-12
    yield "upper frame bound below Janssen estimate", max(0.0, B - upper) / B, 1e-12
    yield ("frame bounds match adjoint Gram eigenvalues",
           float(np.max(np.abs(np.subtract((A, B), janssen.bounds)))) / B, 1e-12)
    gd = system.canonical_dual
    yield ("canonical dual matches adjoint Gram dual",
           _rel(gd.values - janssen.dual.values, janssen.dual.values), 1e-12 * (B / A))
    if G.order <= _ORACLE_MAX_ORDER:
        S = janssen.matrix()
        eig = np.linalg.eigvalsh(S)
        dense_dual = np.linalg.solve(S, g0.values)
        yield ("structured frame operator matches dense oracle",
               max(abs(A - eig[0]) / eig[-1], abs(B - eig[-1]) / eig[-1],
                   _rel(gd.values - dense_dual, dense_dual)), 1e-10)
    else:
        yield _info("dense frame oracle not built above order cap", _ORACLE_MAX_ORDER)
    # biorthogonality on the adjoint lattice, and the span that singles out the canonical dual
    yield ("dual window satisfies Wexler-Raz",
           max(janssen.wexler_raz_residual(gd), janssen.span_residual(gd)), 1e-10 * (B / A))
    yield ("canonical dual inverts the frame operator",
           float(np.max(np.abs(system.apply_frame(gd).values - g0.values))) / g0.norm2, 1e-9)
    worst = 0.0
    for _ in range(10):
        x = random_signal(G, rng)
        # no full coefficient array: the dual-window rows stream into the synthesis
        back = _tf_synthesis(_tf_rows(x.values, gd, lattice), g0, lattice)
        worst = max(worst, _rel(back - x.values, x.values))
    yield "expansion reconstructs", worst, 1e-9

    # V_gd h against V_g(S^-1 h), S^-1 the Janssen sum of the adjoint Gram dual
    worst = peak = 0.0
    for (_, coeffs), (_, minimal) in zip(
        _tf_rows(h.values, gd, lattice), _tf_rows(janssen.solve(h).values, g0, lattice)
    ):
        worst = max(worst, float(np.max(np.abs(coeffs - minimal))))
        peak = max(peak, float(np.max(np.abs(minimal))))
    yield "canonical coefficients have minimal norm", worst / (1.0 + peak), 1e-8

    yield _info("dual window spread (l1/l2)", gd.norm1 / gd.norm2)


@_judged
def verify_mild(G: GroupSpec, a, b, seed: int = 0):
    rng = _Stream(seed)
    g0 = finite_gaussian(G)

    zero_sig = Signal(G, np.zeros(G.order, dtype=np.complex128))
    yield _flag(
        "distance vanishes only at coincidence",
        s0prime_norm(zero_sig) == 0.0 and s0prime_norm(dirac(G, G.zero())) > 1e-6,
    )

    lattice = TFLattice(G, a, b)
    system = GaborSystem(g0, lattice)
    seq = refining_comb_sequence(G)
    if system.is_frame:
        report = convergence_report(seq, system)
        for metric in ("pair", "stft", "coeff"):
            vals = getattr(report, f"d_{metric}")
            increments = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
            yield (f"comb refinement monotone ({metric})",
                   max(increments) if increments else 0.0, 1e-10 * (1.0 + vals[0]))
            yield (f"comb refinement collapses ({metric})",
                   vals[-1] / (vals[0] if vals[0] > 0 else 1.0), 1e-3)
        for key, value in report.equivalence_ratios.items():
            yield _info(f"metric ratio {key}", value)
    else:
        # d_coeff needs the canonical dual, as verify_gabor's checks do
        yield _info("lattice is not a frame: no comb refinement metrics", system.frame_bounds[0])

    # periodic signals: spectrum confined to the annihilator comb; the period is
    # the smallest prime factor of the first composite axis, N_k on the others
    j = next((j for j, n in enumerate(G.moduli) if _smallest_prime_factor(n) < n), None)
    if j is None:
        yield _info("periodicity checks not run: no composite axis", 0)
    else:
        period = G.moduli[:j] + (_smallest_prime_factor(G.moduli[j]),) + G.moduli[j + 1:]
        H = grid_subgroup(G, period)
        base = random_signal(G, rng)
        per = Signal(G, _translate_sum(base, H))
        rep = periodize_analysis(per, period)
        yield "periodic spectrum leakage", rep.leakage, 1e-10
        yield "comb weights match one-period transform", rep.weight_residual, 1e-10
        try:
            periodize_analysis(random_signal(G, rng), period)
            yield _flag("aperiodic input rejected", False)
        except NotPeriodic:
            yield _flag("aperiodic input rejected", True)

    yield _flag(
        "comb spectrum sits on the annihilator",
        all(support(dft(dirac_comb(H))) == frozenset(annihilator(H).elements) for H in _subgroups_for(G)),
    )

    # the Gaussian maxima of d_stft, of the uniform bound and of a nonnegative signal:
    # against the plane pass, and at every order a witness by the defining sum
    sample = _Stream(seed, part=2)
    members = np.array([m.values for m in seq.members])
    positive = np.abs(random_signal(G, sample).values)[None].astype(np.complex128)
    rows, maxima, argmax = [], [], []
    for stack, limit in ((members, seq.limit.values), (np.concatenate([members, positive]), None)):
        found, at = _gaussian_maxima(G, stack, limit)
        rows.append(stack if limit is None else stack - limit)
        maxima.append(found)
        argmax.append(at)
    rows, maxima, argmax = map(np.concatenate, (rows, maxima, argmax))
    scale = np.where(maxima > 0, maxima, 1.0)
    if G.order <= _ORACLE_MAX_ORDER:
        plane = _tf_abs_max(rows, g0, TFLattice(G, 1, 1))
        yield "Gaussian maxima match the full plane", np.max(np.abs(maxima - plane) / scale), 1e-12
    else:
        yield _info("full-plane maxima not run above order cap", _ORACLE_MAX_ORDER)
    # a row read on the plane names no cell; every other row is read where it claims its maximum
    claimed = argmax[:, 0] >= 0
    at_cells = np.abs(np.diagonal(reference.stft_cells(rows[claimed], g0, *argmax[claimed].T)))
    yield ("Gaussian maxima attained at their cells",
           np.max(np.abs(at_cells - maxima[claimed]) / scale[claimed], initial=0.0), 1e-12)
    times, freqs = sample.integers(0, G.order, size=(2, _SAMPLED_CELLS))
    sampled = np.abs(reference.stft_cells(rows, g0, times, freqs)).max(axis=1)
    yield ("no sampled cell exceeds the Gaussian maxima",
           max(0.0, float(np.max((sampled - maxima) / scale))), 1e-12)

    yield _info("uniform bound over the sequence", seq.uniform_bound)


# the second factor of the product checks: the identity holds for any partner,
# and Z2 keeps the product's STFT at 4 |G|^2 cells
_PARTNER = GroupSpec((2,))


def _product_checks(u: Signal, v: Signal):
    """Transform and concentration norm of u (x) v factorize on the product group."""
    tensor = tensor_extension(u, v)
    lhs = dft(tensor).values
    rhs = np.outer(dft(u).values, dft(v).values).ravel()
    s_t = s0_norm(tensor)
    s_uv = s0_norm(u) * s0_norm(v)
    yield "product signal transform factorizes", _rel(lhs - rhs, rhs), 1e-10
    yield "product signal norm factorizes", abs(s_t - s_uv) / s_uv, 1e-10


@_judged
def verify_approx(G: GroupSpec, step, seed: int = 0):
    rng = _Stream(seed)
    lattice = grid_subgroup(G, step)

    for shape in BUPU_SHAPES:
        bupu = make_bupu(G, lattice, shape=shape)
        yield f"bump family sums to one ({shape})", bupu.partition_residual, 1e-12

    f = random_signal(G, rng)
    samples = restriction(f, lattice)
    tri = make_bupu(G, lattice, shape="triangle")
    ext = semidiscrete_extension(samples, tri.mother)
    ext_fft = reference.extension_by_convolution(samples, tri.mother)
    yield ("translate-sum extension matches convolution form",
           _rel(ext.values - ext_fft.values, ext.values), 1e-12)
    back = restriction(ext, lattice)
    yield _flag(
        "extension interpolates the samples",
        bool(np.array_equal(back.values, samples.values)),
    )

    g0 = finite_gaussian(G)
    errs = [
        quasi_interpolate(g0, grid_subgroup(G, steps), shape="triangle").sup_error
        for steps in itertools.islice(_halving_chain(lattice.axis_steps), 3)
    ]
    increments = [errs[i + 1] - errs[i] for i in range(len(errs) - 1)]
    yield ("recovery error shrinks as the lattice refines",
           max(increments) if increments else 0.0, 0.0)

    yield from _product_checks(random_signal(G, rng), random_signal(_PARTNER, rng))

    bound = sampling_bound(f, lattice)
    yield _info("sampled-l1 to concentration-norm ratio", bound.ratio)


# one entry per suite, all called alike; verify_all runs them in this order.
# Each lambda looks its suite up in the module when called, so a suite
# replaced on the module (a tracer's wrapper) is the one that runs.
_SUITES = {
    "group": lambda G, a, b, step, seed, tol: verify_group(G, seed, tolerance=tol),
    "fourier": lambda G, a, b, step, seed, tol: verify_fourier(G, seed, tolerance=tol),
    "gabor": lambda G, a, b, step, seed, tol: verify_gabor(G, a, b, seed, tolerance=tol),
    "mild": lambda G, a, b, step, seed, tol: verify_mild(G, a, b, seed, tolerance=tol),
    "approx": lambda G, a, b, step, seed, tol: verify_approx(G, step, seed, tolerance=tol),
}


def verify_all(
    G: GroupSpec,
    a,
    b,
    step,
    seed: int = 0,
    tolerance: float | None = None,
) -> list[Check]:
    return [
        c._replace(name=f"{prefix}: {c.name}")
        for prefix, suite in _SUITES.items()
        for c in suite(G, a, b, step, seed, tolerance)
    ]


def run_suite(
    suite: str,
    G: GroupSpec,
    a,
    b,
    step,
    seed: int = 0,
    tolerance: float | None = None,
) -> RunReport:
    suites = {**_SUITES, "all": verify_all}
    if suite not in suites:
        raise ValueError(f"unknown suite {suite!r}")
    checks = suites[suite](G, a, b, step, seed, tolerance)
    params = {
        "suite": suite,
        "group": G.to_json(),
        "seed": seed,
        "a": [int(x) for x in np.atleast_1d(a)] if a is not None else None,
        "b": [int(x) for x in np.atleast_1d(b)] if b is not None else None,
        "lattice": [int(x) for x in np.atleast_1d(step)] if step is not None else None,
        "tolerance": tolerance,
    }
    return RunReport(f"verify {suite}", params, checks)
