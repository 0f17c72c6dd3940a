"""The tf-frames workload: one library session, the README quick-tour path.

For each system it builds the Gabor frame, reads the frame bounds and the
canonical dual, and runs seeded analysis/synthesis round trips; then it
evaluates the deviation metrics along a refining comb chain.  It writes a
small JSON summary that ``run.py`` checks; the session itself judges nothing.

    python3 perfbench/tf_session.py --seed 7 --out summary.json

The session calls the library only through ``mildspec`` attributes, looked
up at call time, so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import argparse
import json
import sys

# mildspec reads MILDSPEC_THREADS before NumPy loads, so it is imported first
import mildspec as ms
import numpy as np

# (moduli, a, b): frame work on a 1-D and a 2-D group at the same order
SYSTEMS = (((256,), 2, 2), ((512,), 2, 2), ((16, 32), 2, 2))
ROUND_TRIPS = 10
# refining comb chains; Z256 reuses the first system's frame
CONVERGENCE = ((256,), (16, 16))


def _system(moduli, a, b):
    G = ms.GroupSpec(moduli)
    return ms.GaborSystem(ms.finite_gaussian(G), ms.TFLattice(G, a, b))


def run_session(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    summary = {"systems": [], "convergence": []}
    systems = {}
    for moduli, a, b in SYSTEMS:
        system = _system(moduli, a, b)
        systems[(moduli, a, b)] = system
        lower, upper = system.frame_bounds
        system.canonical_dual
        worst = 0.0
        for _ in range(ROUND_TRIPS):
            n = system.group.order
            x = ms.Signal(system.group, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            back = ms.gabor_synthesis(ms.gabor_coefficients(x, system), system)
            err = np.max(np.abs(back.values - x.values)) / np.max(np.abs(x.values))
            worst = max(worst, float(err))
        summary["systems"].append({
            "group": list(moduli), "a": a, "b": b,
            "lower": lower, "upper": upper, "roundtrip_rel_err": worst,
        })
    for moduli in CONVERGENCE:
        system = systems.get((moduli, 2, 2)) or _system(moduli, 2, 2)
        seq = ms.refining_comb_sequence(system.group)
        report = ms.convergence_report(seq, system)
        summary["convergence"].append({
            "group": list(moduli),
            "members": len(seq.members),
            "d_pair": list(report.d_pair),
            "d_stft": list(report.d_stft),
            "d_coeff": list(report.d_coeff),
        })
    return summary


def main(argv=None, traced: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    summary = run_session(args.seed)
    if not traced:
        from tracer import leftover_wrappers

        # an untraced session must run the program exactly as shipped
        summary["wrapped"] = leftover_wrappers()
    with open(args.out, "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
