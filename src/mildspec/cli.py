"""Command-line front end.

Exit codes: 0 success, 1 failed check or domain error (an overflowing
result among them), 2 usage error, 3 malformed or unreadable input file,
4 group mismatch; main() maps exceptions to codes through one table,
_EXIT_CODES.  Reports and output files are deterministic for a fixed seed
so runs can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import io
from .approx import BUPU_SHAPES, quasi_interpolate, semidiscrete_extension, make_bupu
from .errors import (
    DomainError,
    GroupMismatchError,
    NotAFrame,
    NotPeriodic,
    SchemaError,
    SupportViolation,
)
from .fourier import COUNTING, UNITARY, dft, idft, poisson_check, restriction, weil_map
from .gabor import GaborSystem, TFLattice, stft
from .groups import GroupSpec, all_subgroups, annihilator, grid_subgroup
from .mild import (
    DistributionSequence,
    convergence_report,
    periodize_analysis,
    refining_comb_sequence,
)
from .signals import (
    Signal,
    SubgroupSignal,
    _translate_sum,
    dirac,
    dirac_comb,
    finite_gaussian,
    random_signal,
)
from .verify import _SUITES, run_suite

__all__ = ["main", "build_parser"]


def _group_type(text: str) -> GroupSpec:
    try:
        moduli = tuple(int(p) for p in text.split(","))
        return GroupSpec(moduli)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad group {text!r}: {exc}") from exc


def _steps_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.replace("x", ",").split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lattice steps {text!r}") from exc


def _tolerance_type(text: str) -> float:
    value = float(text)
    # inf would pass every check and nan fail every one
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _ab_type(text: str) -> dict:
    """Parse 'a=2,b=2' (axis values may be joined with 'x': a=2x4)."""
    out = {}
    try:
        for part in text.split(","):
            key, _, val = part.partition("=")
            if key not in ("a", "b") or not val:
                raise ValueError(part)
            out[key] = tuple(int(p) for p in val.split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lattice spec {text!r}") from exc
    if "a" not in out or "b" not in out:
        raise argparse.ArgumentTypeError(f"lattice spec {text!r} needs both a= and b=")
    return out


def _default_ab(G: GroupSpec) -> tuple[int, ...]:
    # keep every axis strictly oversampled: a = b at exactly sqrt(n) lattice
    # points per sample is the critical density, where the Gaussian system
    # can be singular, so small even axes get only one coarsened direction
    return tuple(2 if m % 2 == 0 and m >= 8 else 1 for m in G.moduli)


def _default_step(G: GroupSpec) -> tuple[int, ...]:
    # the largest of 8, 4, 2 that divides the modulus and is below it, else 1
    return tuple(next((c for c in (8, 4, 2) if m % c == 0 and c < m), 1) for m in G.moduli)


def _fit_steps(G: GroupSpec, steps: tuple[int, ...] | None, fallback) -> tuple[int, ...]:
    if steps is None:
        return fallback(G)
    if len(steps) == 1 and G.ndim > 1:
        steps = steps * G.ndim
    return steps


def _load_window(spec: str, G: GroupSpec) -> Signal:
    if spec == "gauss":
        return finite_gaussian(G)
    return io.load_signal(spec, group=G)


def cmd_verify(args) -> int:
    G = args.group
    a = _fit_steps(G, args.a, _default_ab)
    b = _fit_steps(G, args.b, _default_ab)
    step = _fit_steps(G, args.lattice, _default_step)
    report = run_suite(args.suite, G, a, b, step, seed=args.seed, tolerance=args.tolerance)
    for check in report.checks:
        print(check.line())
    verdict = "PASS" if report.passed else "FAIL"
    print(f"verify {args.suite} on {G}: {verdict} ({len(report.checks)} checks)")
    print(f"wall time {report.wall_time_s:.2f}s", file=sys.stderr)
    if args.report:
        io.write_json(args.report, report.to_json_dict())
    return 0 if report.passed else 1


def cmd_dft(args) -> int:
    f = io.load_signal(args.input, group=args.group)
    transform = idft if args.inverse else dft
    io.save_signal(args.out, transform(f, convention=UNITARY if args.unitary else COUNTING))
    print(f"wrote {args.out}")
    return 0


def cmd_stft(args) -> int:
    f = io.load_signal(args.input, group=args.group)
    window = _load_window(args.window, f.group)
    grid = stft(f, window)
    io.save_stft_grid(args.out, grid)
    print(f"wrote {args.out}")
    return 0


def cmd_gabor(args) -> int:
    if args.action == "analyze":
        f = io.load_signal(args.input, group=args.group)
        G = f.group
        a = _fit_steps(G, args.a, _default_ab)
        b = _fit_steps(G, args.b, _default_ab)
        system = GaborSystem(_load_window(args.window, G), TFLattice(G, a, b))
        coeffs = system.analyze(f, window=system.canonical_dual)
        io.save_coefficients(args.out, coeffs)
    else:
        coeffs = io.load_coefficients(args.input)
        G = coeffs.lattice.group
        if args.group is not None and args.group != G:
            raise GroupMismatchError(
                f"{args.input}: file group {G.moduli} does not match requested "
                f"{args.group.moduli}"
            )
        system = GaborSystem(_load_window(args.window, G), coeffs.lattice)
        io.save_signal(args.out, system.synthesize(coeffs))
    print(f"wrote {args.out}")
    return 0


def cmd_weil(args) -> int:
    f = io.load_signal(args.input, group=args.group)
    G = f.group
    steps = _fit_steps(G, args.lattice, _default_step)
    H = grid_subgroup(G, steps)
    q = weil_map(f, H)
    # coset representatives of a grid subgroup enumerate the box [0, step) in
    # canonical order, so the quotient data is itself a signal on Z_steps
    io.save_signal(args.out, Signal(GroupSpec(steps), q.values))
    print(f"wrote {args.out}")
    return 0


def cmd_restrict(args) -> int:
    f = io.load_signal(args.input, group=args.group)
    steps = _fit_steps(f.group, args.lattice, _default_step)
    H = grid_subgroup(f.group, steps)
    io.save_signal(args.out, restriction(f, H).as_signal())
    print(f"wrote {args.out}")
    return 0


def cmd_extend(args) -> int:
    G = args.group
    steps = _fit_steps(G, args.lattice, _default_step)
    H = grid_subgroup(G, steps)
    coarse = io.load_signal(args.input)
    expected = tuple(m // s for m, s in zip(G.moduli, steps))
    if coarse.group.moduli != expected:
        raise GroupMismatchError(
            f"{args.input}: sample grid {coarse.group.moduli} does not match "
            f"step {steps} on {G.moduli} (expected {expected})"
        )
    samples = SubgroupSignal(H, coarse.values)
    bupu = make_bupu(G, H, shape=args.shape)
    io.save_signal(args.out, semidiscrete_extension(samples, bupu.mother))
    print(f"wrote {args.out}")
    return 0


def cmd_mild_converge(args) -> int:
    members, file_limit = io.load_sequence(args.input)
    limit = file_limit
    if args.limit is not None:
        limit = io.load_signal(args.limit, group=members[0].group)
    if limit is None:
        raise SchemaError(
            f"{args.input}: no 'limit' member in the file and no --limit given"
        )
    G = members[0].group
    seq = DistributionSequence(G, tuple(members), limit)
    ab = args.lattice or {"a": _default_ab(G), "b": _default_ab(G)}
    a = _fit_steps(G, ab["a"], _default_ab)
    b = _fit_steps(G, ab["b"], _default_ab)
    system = GaborSystem(finite_gaussian(G), TFLattice(G, a, b))
    report = convergence_report(seq, system)
    payload = {
        "group": G.to_json(),
        "lattice": {"a": list(a), "b": list(b)},
        "d_pair": list(report.d_pair),
        "d_stft": list(report.d_stft),
        "d_coeff": list(report.d_coeff),
        "equivalence_ratios": report.equivalence_ratios,
        "monotone": {
            m: report.is_monotone(m) for m in ("pair", "stft", "coeff")
        },
    }
    if args.out:
        io.write_json(args.out, payload)
    for n in range(len(members)):
        print(
            f"n={n} d_pair={report.d_pair[n]:.6e} "
            f"d_stft={report.d_stft[n]:.6e} d_coeff={report.d_coeff[n]:.6e}"
        )
    return 0


def cmd_approx(args) -> int:
    G = args.group
    steps = _fit_steps(G, args.lattice, _default_step)
    if args.target == "gauss":
        target = finite_gaussian(G)
    elif args.target == "dirac":
        target = dirac(G, G.zero())
    else:
        target = io.load_signal(args.target, group=G)
    rows = []
    while True:
        H = grid_subgroup(G, steps)
        err = quasi_interpolate(target, H, shape=args.shape).sup_error
        rows.append(["x".join(str(s) for s in steps), repr(float(err))])
        print(f"gap {rows[-1][0]}: sup error {err:.6e}")
        if any(s % 2 for s in steps) or all(s == 1 for s in steps):
            break
        steps = tuple(max(1, s // 2) for s in steps)
    if args.out:
        io.write_csv(args.out, ["gap", "sup_error"], rows)
    return 0


def _demo_comb_duality(args) -> int:
    G = args.group or GroupSpec((36,))
    rows = []
    worst = 0.0
    for H in all_subgroups(G):
        hat = dft(dirac_comb(H))
        Hp = annihilator(H)
        expected = float(H.order) * dirac_comb(Hp).values
        residual = float(np.max(np.abs(hat.values - expected)))
        worst = max(worst, residual)
        rows.append([H.order, Hp.order, repr(residual)])
        print(f"|H|={H.order:4d}  |H_perp|={Hp.order:4d}  residual={residual:.3e}")
    if args.out:
        io.write_csv(args.out, ["subgroup_order", "annihilator_order", "residual"], rows)
    print(f"comb transform lands on the annihilator with weight |H|; worst residual {worst:.3e}")
    return 0 if worst <= 1e-10 else 1


def _demo_poisson(args) -> int:
    G = args.group or GroupSpec((24,))
    rng = np.random.default_rng(args.seed)
    f = random_signal(G, rng)
    rows = []
    worst = 0.0
    for H in all_subgroups(G):
        res = poisson_check(f, H)
        worst = max(worst, res.residual)
        rows.append([
            H.order,
            repr(res.lhs.real), repr(res.lhs.imag),
            repr(res.rhs.real), repr(res.rhs.imag),
            repr(res.residual),
        ])
        print(
            f"|H|={H.order:4d}  sum_H f={res.lhs:.6f}  "
            f"(|H|/|G|) sum_Hperp fhat={res.rhs:.6f}  residual={res.residual:.3e}"
        )
    if args.out:
        io.write_csv(
            args.out,
            ["subgroup_order", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual"],
            rows,
        )
    return 0 if worst <= 1e-8 else 1


def _demo_periodic_spectrum(args) -> int:
    G = args.group or GroupSpec((12,))
    p = args.period
    if p < 1 or any(m % p != 0 for m in G.moduli):
        raise GroupMismatchError(f"period {p} does not divide moduli {G.moduli}")
    rng = np.random.default_rng(args.seed)
    period = tuple(p for _ in G.moduli)
    H = grid_subgroup(G, period)
    periodic = Signal(G, _translate_sum(random_signal(G, rng), H))
    rep = periodize_analysis(periodic, period)
    hat = dft(periodic)
    rows = []
    for s, v in zip(G.elements(), hat.values):
        rows.append(["x".join(str(c) for c in s.coords), repr(float(np.abs(v)))])
    if args.out:
        io.write_csv(args.out, ["frequency", "magnitude"], rows)
    lat = rep.period_lattice
    print(f"period {p} signal on {G}: spectrum confined to the {lat.order}-point comb")
    print(f"leakage off the comb: {rep.leakage:.3e}")
    print(f"comb weights vs one-period transform: residual {rep.weight_residual:.3e}")
    return 0 if rep.leakage <= 1e-10 and rep.weight_residual <= 1e-10 else 1


def _demo_mild_limit(args) -> int:
    G = args.group or GroupSpec((256,))
    seq = refining_comb_sequence(G)
    a = _default_ab(G)
    system = GaborSystem(finite_gaussian(G), TFLattice(G, a, a))
    report = convergence_report(seq, system)
    rows = []
    for n in range(len(seq.members)):
        rows.append([
            n,
            repr(report.d_pair[n]), repr(report.d_stft[n]), repr(report.d_coeff[n]),
        ])
        print(
            f"n={n} d_pair={report.d_pair[n]:.6e} "
            f"d_stft={report.d_stft[n]:.6e} d_coeff={report.d_coeff[n]:.6e}"
        )
    if args.out:
        io.write_csv(args.out, ["n", "d_pair", "d_stft", "d_coeff"], rows)
    ok = all(report.is_monotone(m) for m in ("pair", "stft", "coeff"))
    print(f"all three deviation metrics non-increasing: {ok}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mildspec",
        description="Exact time-frequency identities on finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run an invariant suite and report residuals")
    p.add_argument("suite", choices=[*_SUITES, "all"])
    p.add_argument("--group", type=_group_type, required=True,
                   help="comma-separated moduli, e.g. 24 or 4,6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", type=_steps_type, default=None, help="time step per axis")
    p.add_argument("--b", type=_steps_type, default=None, help="frequency step per axis")
    p.add_argument("--lattice", type=_steps_type, default=None,
                   help="sampling step per axis for the approx suite")
    p.add_argument("--tolerance", type=_tolerance_type, default=None,
                   help="override every numeric threshold")
    p.add_argument("--report", "--out", dest="report", default=None,
                   help="write the run report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dft", help="transform a stored signal")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--unitary", action="store_true")
    p.add_argument("--group", type=_group_type, default=None,
                   help="required for CSV input; validates JSON input")
    p.set_defaults(func=cmd_dft)

    p = sub.add_parser("stft", help="full short-time transform grid to CSV")
    p.add_argument("input")
    p.add_argument("--window", default="gauss", help="'gauss' or a signal file")
    p.add_argument("--out", required=True)
    p.add_argument("--group", type=_group_type, default=None)
    p.set_defaults(func=cmd_stft)

    p = sub.add_parser("gabor", help="lattice analysis and synthesis")
    p.add_argument("--group", type=_group_type, default=None)
    p.add_argument("--a", type=_steps_type, default=None)
    p.add_argument("--b", type=_steps_type, default=None)
    p.add_argument("--window", default="gauss")
    p.add_argument("action", choices=["analyze", "synth"])
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gabor)

    p = sub.add_parser("weil", help="periodize a signal over a grid subgroup")
    p.add_argument("input")
    p.add_argument("--lattice", type=_steps_type, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--group", type=_group_type, default=None)
    p.set_defaults(func=cmd_weil)

    p = sub.add_parser("restrict", help="sample a signal on a grid subgroup")
    p.add_argument("input")
    p.add_argument("--lattice", type=_steps_type, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--group", type=_group_type, default=None)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("extend", help="rebuild a signal from grid samples")
    p.add_argument("input", help="signal file holding the samples (reduced group)")
    p.add_argument("--group", type=_group_type, required=True, help="target group")
    p.add_argument("--lattice", type=_steps_type, required=True)
    p.add_argument("--shape", choices=list(BUPU_SHAPES), default="triangle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("mild-converge", help="deviation metrics of a stored sequence")
    p.add_argument("input", help="sequence file")
    p.add_argument("--limit", default=None, help="signal file with the limit")
    p.add_argument("--lattice", type=_ab_type, default=None, help="a=2,b=2")
    p.add_argument("--out", default=None, help="write the metric report as JSON")
    p.set_defaults(func=cmd_mild_converge)

    p = sub.add_parser("approx", help="quasi-interpolation error along refinement")
    p.add_argument("--group", type=_group_type, required=True)
    p.add_argument("--lattice", type=_steps_type, default=None)
    p.add_argument("--shape", choices=list(BUPU_SHAPES), default="triangle")
    p.add_argument("--target", default="gauss", help="'gauss', 'dirac', or a signal file")
    p.add_argument("--out", default=None, help="write (gap, sup error) rows as CSV")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("demo", help="scripted end-to-end identity walkthroughs")
    demo_sub = p.add_subparsers(dest="demo", required=True)
    d = demo_sub.add_parser("comb-duality")
    d.add_argument("--group", type=_group_type, default=None)
    d.add_argument("--out", default=None)
    d.set_defaults(func=_demo_comb_duality)
    d = demo_sub.add_parser("poisson")
    d.add_argument("--group", type=_group_type, default=None)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None)
    d.set_defaults(func=_demo_poisson)
    d = demo_sub.add_parser("periodic-spectrum")
    d.add_argument("--group", type=_group_type, default=None)
    d.add_argument("--p", dest="period", type=int, default=3)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None)
    d.set_defaults(func=_demo_periodic_spectrum)
    d = demo_sub.add_parser("mild-limit")
    d.add_argument("--group", type=_group_type, default=None)
    d.add_argument("--out", default=None)
    d.set_defaults(func=_demo_mild_limit)

    return parser


# exception type -> exit code, first match wins: the library's error types
# derive from ValueError, so they come before it
_EXIT_CODES = (
    (SchemaError, 3),
    (GroupMismatchError, 4),
    ((SupportViolation, NotPeriodic, NotAFrame, DomainError), 1),
    (OSError, 3),
    (ValueError, 2),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # no NumPy warning: a result that overflows fails the containers' finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except Exception as exc:
        code = next((c for types, c in _EXIT_CODES if isinstance(exc, types)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
