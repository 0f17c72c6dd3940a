"""Self-check suites behind the ``verify`` command.

Each suite is a generator of the identities it checks on one group.  A gate
comes as (name, residual, threshold); a flag or an informational line comes
as the Check that _flag or _info builds.  One runner, _judged, turns a suite
into its list of checks and is the only code that reads ``tolerance``: a
tolerance replaces every gate's threshold and leaves flags and informational
lines as they are.  Informational checks carry a value but no threshold and
never fail a run.  Reports serialize deterministically (wall time stays out
of the JSON), so a fixed seed yields byte-identical report files.

Each check costs about what its identity needs.  The gabor suite streams
its energy and rotation checks: rows of the STFT of f^ from gabor's kernel
meet columns of the STFT of f from reference.stft_columns one block at a
time, so no |G| x |G| grid is held.  Its frame checks have a second route
at every order on the adjoint lattice (reference.JanssenFrame), which
costs O(prod a_j b_j |G|), so no check builds the dense synthesis matrix.
The approx suite checks that the transform and the concentration norm
factorize over a product on G x Z2, for every G; the identity holds for
any second factor, and Z2 keeps its STFT at 4 |G|^2 cells.
"""

from __future__ import annotations

import inspect
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

from . import reference
from .approx import (
    BUPU_SHAPES,
    make_bupu,
    quasi_interpolate,
    sampling_bound,
    semidiscrete_extension,
    tensor_extension,
)
from .errors import NotAFrame, NotPeriodic, SupportViolation
from .fourier import (
    UNITARY,
    comb_ft,
    dft,
    dft_quotient,
    dft_subgroup,
    duality_sampling_periodization,
    idft,
    mild_ft,
    pair,
    poisson_check,
    restriction,
    weil_map,
)
from .gabor import GaborSystem, TFLattice, _tf_rows, _tf_synthesis, s0_norm, s0prime_norm
from .groups import GroupSpec, all_subgroups, annihilator, character, grid_subgroup, quotient
from .mild import (
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


@dataclass(frozen=True)
class Check:
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
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        # wall time is excluded on purpose: reports must be reproducible
        return {
            "command": self.command,
            "parameters": self.parameters,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def _judged(suite: Callable[..., Iterator]) -> Callable[..., list[Check]]:
    """Run a suite that yields its identities and judge each one.

    A gate comes as (name, residual, threshold) and passes when the residual
    is at most the threshold.  A suite declares ``tolerance`` in its
    signature but never reads it: here, when given, it replaces every gate's
    threshold.  A flag or an informational Check passes through untouched.
    """
    signature = inspect.signature(suite)

    @wraps(suite)
    def run(*args, **kwargs) -> list[Check]:
        tolerance = signature.bind(*args, **kwargs).arguments.get("tolerance")
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


# oracle comparisons that build |G| x |G| matrices run only up to this order
_ORACLE_MAX_ORDER = 128
# above it the defining STFT sum runs at this many seeded cells
_SAMPLED_CELLS = 256


@lru_cache(maxsize=8)
def _subgroups_for(G: GroupSpec) -> tuple[tuple, int]:
    """(subgroups to check, number of subgroups), shared by one verify run."""
    subs = tuple(all_subgroups(G))
    if len(subs) > 24:
        # keep runtime bounded on groups with rich subgroup lattices
        step = len(subs) // 24 + 1
        keep = subs[::step]
        if subs[-1] not in keep:
            keep += (subs[-1],)
        return keep, len(subs)
    return subs, len(subs)


@_judged
def verify_group(G: GroupSpec, seed: int = 0, tolerance: float | None = None):
    rng = np.random.default_rng(seed)

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

    subs, total = _subgroups_for(G)
    yield _info("subgroups checked", len(subs) / total)
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
def verify_fourier(G: GroupSpec, seed: int = 0, tolerance: float | None = None):
    rng = np.random.default_rng(seed)
    f = random_signal(G, rng)
    g = random_signal(G, rng)

    fhat = dft(f)
    yield ("transform matches defining sum",
           _rel(fhat.values - reference.naive_dft(f).values, fhat.values), 1e-12)
    yield "inverse transform roundtrip", _rel(idft(fhat).values - f.values, f.values), 1e-12
    fu = dft(f, convention=UNITARY)
    yield ("unitary roundtrip",
           _rel(idft(fu, convention=UNITARY).values - f.values, f.values), 1e-12)
    lhs = float(np.sum(np.abs(fhat.values) ** 2))
    rhs = G.order * float(np.sum(np.abs(f.values) ** 2))
    yield "energy identity", abs(lhs - rhs) / rhs, 1e-12
    double = dft(dft(f))
    reflected = G.order * f.values[G.negation_permutation()]
    yield "double transform reflects", _rel(double.values - reflected, reflected), 1e-12
    lhs_p = pair(mild_ft(f), g)
    rhs_p = pair(f, dft(g))
    yield "transform moves across the pairing", abs(lhs_p - rhs_p) / (1.0 + abs(rhs_p)), 1e-12

    subs, total = _subgroups_for(G)
    yield _info("subgroups checked", len(subs) / total)
    worst_poisson = 0.0
    worst_duality = 0.0
    worst_weil = 0.0
    worst_direct = 0.0
    comb_ok = True
    for H in subs:
        for _ in range(3):
            h = random_signal(G, rng)
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
def verify_gabor(
    G: GroupSpec,
    a,
    b,
    seed: int = 0,
    tolerance: float | None = None,
):
    rng = np.random.default_rng(seed)
    g0 = finite_gaussian(G)
    lattice = TFLattice(G, a, b)
    yield _info("lattice redundancy", lattice.redundancy)

    f = random_signal(G, rng)
    h = random_signal(G, rng)
    # rows of the unitary transform's STFT meet the columns of f's STFT, rotated:
    # |V f^(t, s)| = |V f(-s, t)|, one row block against one column block
    normalized_hat = Signal(G, dft(f).values / G.order ** 0.5)
    if G.order <= _ORACLE_MAX_ORDER:
        direct = reference.stft_direct(normalized_hat, g0)
        times, freqs = np.indices(direct.shape).reshape(2, -1)
        direct = direct.reshape(-1)
    else:
        # the defining sum at seeded cells, drawn apart from the suite's stream
        cells = np.random.default_rng([seed, 1])
        times, freqs = cells.integers(0, G.order, size=(2, _SAMPLED_CELLS))
        direct = reference.stft_cells(normalized_hat, g0, times, freqs)
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

    # the second route lives on the adjoint lattice: the Janssen sum
    janssen = reference.JanssenFrame(g0, lattice)
    Sf = janssen.apply(f).values
    yield ("structured frame operator matches Janssen",
           max(_rel(system.apply_frame(f).values - Sf, Sf),
               _rel(system._blockwise(np.matmul, f.values) - Sf, Sf)), 1e-12)
    lower, upper = janssen.bound_estimates
    yield "lower frame bound above Janssen estimate", max(0.0, lower - A) / B, 1e-12
    yield "upper frame bound below Janssen estimate", max(0.0, B - upper) / B, 1e-12

    gd = system.canonical_dual
    if G.order <= _ORACLE_MAX_ORDER:
        S = janssen.matrix()
        eig = np.linalg.eigvalsh(S)
        dense_dual = np.linalg.solve(S, g0.values)
        yield ("structured frame operator matches dense oracle",
               max(abs(A - eig[0]) / eig[-1], abs(B - eig[-1]) / eig[-1],
                   _rel(gd.values - dense_dual, dense_dual)), 1e-10)
    # biorthogonality on the adjoint lattice, and the span that singles out the canonical dual
    yield ("dual window satisfies Wexler-Raz",
           max(janssen.wexler_raz_residual(gd), janssen.span_residual(gd)), 1e-10 * (B / A))
    Sgd = system.apply_frame(gd)
    yield ("canonical dual inverts the frame operator",
           float(np.max(np.abs(Sgd.values - g0.values))) / g0.norm2, 1e-9)
    worst = 0.0
    for _ in range(10):
        x = random_signal(G, rng)
        # no full coefficient array: the dual-window rows stream into the synthesis
        back = _tf_synthesis(_tf_rows(x.values, gd, lattice), g0, lattice)
        worst = max(worst, _rel(back - x.values, x.values))
    yield "expansion reconstructs", worst, 1e-9

    # V_gd h against V_g(S^-1 h), S^-1 by conjugate gradients on the Janssen sum
    worst = peak = 0.0
    for (_, coeffs), (_, minimal) in zip(
        _tf_rows(h.values, gd, lattice), _tf_rows(janssen.solve(h).values, g0, lattice)
    ):
        worst = max(worst, float(np.max(np.abs(coeffs - minimal))))
        peak = max(peak, float(np.max(np.abs(minimal))))
    yield "canonical coefficients have minimal norm", worst / (1.0 + peak), 1e-8

    yield _info("dual window spread (l1/l2)", gd.norm1 / gd.norm2)


@_judged
def verify_mild(
    G: GroupSpec,
    a,
    b,
    seed: int = 0,
    tolerance: float | None = None,
):
    rng = np.random.default_rng(seed)
    g0 = finite_gaussian(G)

    zero_sig = Signal(G, np.zeros(G.order, dtype=np.complex128))
    yield _flag(
        "distance vanishes only at coincidence",
        s0prime_norm(zero_sig) == 0.0 and s0prime_norm(dirac(G, G.zero())) > 1e-6,
    )

    lattice = TFLattice(G, a, b)
    system = GaborSystem(g0, lattice)
    seq = refining_comb_sequence(G)
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

    # periodic signals: spectrum confined to the annihilator comb
    N0 = G.moduli[0]
    p = next((q for q in (2, 3, 5, 7) if N0 % q == 0 and q < N0), None)
    if p is not None:
        period = (p,) + tuple(G.moduli[1:])
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
        all(support(dft(dirac_comb(H))) == annihilator(H).element_set for H in _subgroups_for(G)[0]),
    )

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
def verify_approx(
    G: GroupSpec,
    step,
    seed: int = 0,
    tolerance: float | None = None,
):
    rng = np.random.default_rng(seed)
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
    errs = []
    current = lattice
    for _ in range(3):
        errs.append(quasi_interpolate(g0, current, shape="triangle").sup_error)
        steps = current.axis_steps
        if steps is None or all(s % 2 for s in steps):
            break
        current = grid_subgroup(G, tuple(max(1, s // 2) if s % 2 == 0 else s for s in steps))
    increments = [errs[i + 1] - errs[i] for i in range(len(errs) - 1)]
    yield ("recovery error shrinks as the lattice refines",
           max(increments) if increments else 0.0, 0.0)

    yield from _product_checks(random_signal(G, rng), random_signal(_PARTNER, rng))

    bound = sampling_bound(f, lattice)
    yield _info("sampled-l1 to concentration-norm ratio", bound.ratio)


# one entry per suite, all called alike; verify_all runs them in this order
_SUITES = {
    "group": lambda G, a, b, step, seed, tol: verify_group(G, seed, tol),
    "fourier": lambda G, a, b, step, seed, tol: verify_fourier(G, seed, tol),
    "gabor": lambda G, a, b, step, seed, tol: verify_gabor(G, a, b, seed, tol),
    "mild": lambda G, a, b, step, seed, tol: verify_mild(G, a, b, seed, tol),
    "approx": lambda G, a, b, step, seed, tol: verify_approx(G, step, seed, tol),
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
        Check(f"{prefix}: {c.name}", c.residual, c.threshold, c.passed)
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
    t0 = time.perf_counter()
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
    return RunReport(f"verify {suite}", params, checks, time.perf_counter() - t0)
