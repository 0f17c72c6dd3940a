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
from .fourier import COUNTING, UNITARY, dft, idft, restriction, weil_map
from .gabor import GaborSystem, TFLattice, stft
from .groups import GroupSpec, grid_subgroup
from .mild import DistributionSequence, convergence_report
from .signals import Signal, SubgroupSignal, dirac, finite_gaussian
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
    a = b = _default_ab(G)
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
    p.add_argument("--report", default=None, help="write the run report as JSON")
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
    p.add_argument("--out", default=None, help="write the metric report as JSON")
    p.set_defaults(func=cmd_mild_converge)

    p = sub.add_parser("approx", help="quasi-interpolation error along refinement")
    p.add_argument("--group", type=_group_type, required=True)
    p.add_argument("--lattice", type=_steps_type, default=None)
    p.add_argument("--shape", choices=list(BUPU_SHAPES), default="triangle")
    p.add_argument("--target", default="gauss", help="'gauss', 'dirac', or a signal file")
    p.add_argument("--out", default=None, help="write (gap, sup error) rows as CSV")
    p.set_defaults(func=cmd_approx)

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
