"""Run one verify suite over every separable lattice of every small group.

    PYTHONPATH=src python tests/scan.py --max-order 36 --suite gabor --out scan.json

The groups are the non-decreasing tuples of moduli >= 2 whose product is at
most --max-order.  On each group the suite runs once per lattice aZ x bZ,
for every time step a and frequency step b with a_j and b_j dividing N_j,
at seed 1 and all in this process.

The JSON file holds, per gate (a check with a threshold), the number of
runs and of FAILs and the worst case: the group, a, b, residual and
threshold of the run with the largest residual-to-threshold ratio, and the
frame condition number B/A where the suite reports one.  Exceptions are
counted apart from FAILs, by type, each with the first lattice it came
from, its message and the innermost frame of its traceback.  The file
holds no clock, so a fixed tree gives the same file; the wall time goes to
stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
import traceback
from pathlib import Path

from mildspec import GroupSpec
from mildspec.verify import verify_gabor, verify_mild

SUITES = {"gabor": verify_gabor, "mild": verify_mild}
SEED = 1
CONDITION = "frame condition number"


def groups(max_order: int, smallest: int = 2):
    """Non-decreasing tuples of moduli >= smallest with product <= max_order."""
    for n in range(smallest, max_order + 1):
        yield (n,)
        for rest in groups(max_order // n, n):
            yield (n, *rest)


def lattices(moduli: tuple[int, ...]):
    """Every pair (a, b) of per-axis steps dividing the moduli."""
    steps = list(itertools.product(*([d for d in range(1, n + 1) if n % d == 0] for n in moduli)))
    return itertools.product(steps, steps)


def _badness(residual: float, threshold: float) -> tuple[float, float]:
    if threshold > 0:
        return residual / threshold, residual
    return (math.inf if residual > 0 else 0.0), residual


def scan(suite: str, max_order: int) -> dict:
    run = SUITES[suite]
    gates: dict[str, dict] = {}
    exceptions: dict[str, dict] = {}
    n_groups = n_lattices = 0
    for moduli in groups(max_order):
        n_groups += 1
        G = GroupSpec(moduli)
        for a, b in lattices(moduli):
            n_lattices += 1
            case = {"group": list(moduli), "a": list(a), "b": list(b)}
            try:
                checks = run(G, a, b, seed=SEED)
            except Exception as exc:  # counted by type, apart from FAILs; the scan goes on
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
                entry = exceptions.setdefault(type(exc).__name__, {
                    "count": 0, "first": {**case, "message": str(exc), "where": where}})
                entry["count"] += 1
                continue
            condition = next((c.residual for c in checks if c.name == CONDITION), None)
            for c in checks:
                if c.threshold is None:
                    continue
                gate = gates.setdefault(c.name, {"runs": 0, "fails": 0, "worst": None})
                gate["runs"] += 1
                gate["fails"] += not c.passed
                worst = gate["worst"]
                if worst is None or (_badness(c.residual, c.threshold)
                                     > _badness(worst["residual"], worst["threshold"])):
                    gate["worst"] = {**case, "residual": c.residual, "threshold": c.threshold,
                                     "condition": condition}
    return {
        "suite": suite,
        "seed": SEED,
        "max_order": max_order,
        "groups": n_groups,
        "lattices": n_lattices,
        "gates": dict(sorted(gates.items())),
        "exceptions": dict(sorted(exceptions.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--suite", choices=sorted(SUITES), required=True)
    parser.add_argument("--max-order", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = scan(args.suite, args.max_order)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    fails = sum(g["fails"] for g in result["gates"].values())
    errors = sum(e["count"] for e in result["exceptions"].values())
    print(f"{args.suite}: {result['groups']} groups, {result['lattices']} lattices, "
          f"{fails} FAILs, {errors} exceptions, {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
