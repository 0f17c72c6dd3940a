"""Span tracer for the benchmark, installed from outside the library.

``install`` wraps the public entry points of each ``mildspec`` layer.  A
wrapped name is replaced in every ``mildspec`` module namespace that holds
the same function object (``mildspec.verify.all_subgroups`` as well as
``mildspec.groups.all_subgroups``, and aliases such as ``quotient_of``);
``GaborSystem`` members are wrapped on the class.  Each call records a span
[name, start, end, parent span, job id, counters] in memory.  Per-element
helpers (``GroupSpec.add`` and the like) are left alone: they run millions
of times and their cost stays in the self time of their caller.

Run as a script, this module is the child process of one traced job:

    python3 perfbench/tracer.py --job-id 3 --spans spans.json --cli -- verify all --group 24
    python3 perfbench/tracer.py --job-id 0 --spans spans.json --session -- --seed 1 --out s.json

It installs the wrappers, runs the job in process, removes the wrappers,
checks that none is left, and writes the spans as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

MARK = "__perfbench_span__"
MODULES = ("groups", "signals", "fourier", "gabor", "mild", "approx", "io",
           "verify", "cli", "reference")


def _subgroups(args, result, before):
    return {"subgroups": len(result), "group": ",".join(map(str, args[0].moduli))}


def _points(args, result, before):
    return {"points": args[0].group.order}


def _cells(args, result, before):
    return {"cells": args[0].group.order ** 2}


def _eig_missing(args):
    return getattr(args[0], "_eig", None) is None


def _dense_frame(args, result, before):
    # the dense route caches its eigendecomposition in _eig: count one build
    if before and getattr(args[0], "_eig", None) is not None:
        return {"dense_bytes": 16 * args[0].group.order ** 2}
    return None


def _probes(args, result, before):
    return {"probes": len(result)}


def _bumps(args, result, before):
    return {"bump_bytes": 16 * args[1].order * args[0].order}


def _size_before(args):
    return os.path.getsize(args[0])


def _read(args, result, before):
    return {"bytes_read": before}


def _written(args, result, before):
    return {"bytes_written": os.path.getsize(args[0])}


def _checks(args, result, before):
    return {"checks": len(result), "checks_failed": sum(not c.passed for c in result)}


# (module, attribute, before-hook, counter); "Class.member" wraps on the class
TARGETS = (
    ("groups", "all_subgroups", None, _subgroups),
    ("groups", "grid_subgroup", None, None),
    ("groups", "annihilator", None, None),
    ("groups", "quotient", None, None),
    ("groups", "subgroup_generated", None, None),
    ("signals", "translate", None, None),
    ("signals", "finite_gaussian", None, None),
    ("signals", "random_signal", None, None),
    ("fourier", "dft", None, _points),
    ("fourier", "idft", None, _points),
    ("fourier", "poisson_check", None, None),
    ("fourier", "duality_sampling_periodization", None, None),
    ("fourier", "weil_map", None, None),
    ("fourier", "dft_quotient", None, None),
    ("fourier", "dft_subgroup", None, None),
    ("fourier", "comb_ft", None, None),
    ("fourier", "restriction", None, None),
    ("gabor", "stft", None, _cells),
    ("gabor", "s0_norm", None, None),
    ("gabor", "s0prime_norm", None, None),
    ("gabor", "GaborSystem.frame_bounds", _eig_missing, _dense_frame),
    ("gabor", "GaborSystem.canonical_dual", _eig_missing, _dense_frame),
    ("gabor", "GaborSystem.analyze", None, None),
    ("gabor", "GaborSystem.synthesize", None, None),
    ("mild", "convergence_report", None, None),
    ("mild", "default_probes", None, _probes),
    ("mild", "periodize_analysis", None, None),
    ("mild", "support", None, None),
    ("mild", "refining_comb_sequence", None, None),
    ("mild", "mild_deviation_stft", None, None),
    ("approx", "make_bupu", None, _bumps),
    ("approx", "semidiscrete_extension", None, None),
    ("approx", "quasi_interpolate", None, None),
    ("approx", "sampling_bound", None, None),
    ("io", "load_signal", _size_before, _read),
    ("io", "load_coefficients", _size_before, _read),
    ("io", "load_sequence", _size_before, _read),
    ("io", "save_signal", None, _written),
    ("io", "save_coefficients", None, _written),
    ("io", "save_stft_grid", None, _written),
    ("io", "write_json", None, _written),
    ("io", "write_csv", None, _written),
    ("verify", "verify_group", None, _checks),
    ("verify", "verify_fourier", None, _checks),
    ("verify", "verify_gabor", None, _checks),
    ("verify", "verify_mild", None, _checks),
    ("verify", "verify_approx", None, _checks),
    ("verify", "verify_all", None, None),
    ("verify", "run_suite", None, None),
    ("reference", "naive_dft", None, None),
    ("reference", "stft_direct", None, None),
    ("reference", "synthesis_matrix", None, None),
    ("cli", "main", None, None),
)

# an STFT called straight from one of these is only summed or maxed
REDUCING = frozenset({"gabor.s0_norm", "gabor.s0prime_norm",
                      "mild.convergence_report", "mild.mild_deviation_stft"})
COUNTERS = ("groups.subgroups_enumerated", "fourier.fft_points", "gabor.stft_cells",
            "gabor.stft_cells_reduced_only", "gabor.dense_frame_bytes", "mild.probes",
            "approx.bump_bytes", "io.bytes_read", "io.bytes_written", "verify.checks",
            "verify.checks_failed", "trace.untraced_s")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rpartition('.')[2]}"


class Recorder:
    """Spans of one process, kept in memory until the job ends."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, count=None):
        spans, stack, job = self.spans, self._stack, self.job

        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count:
                span[5] = count(args, result, pre)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, name)
        return wrapper


def _mildspec_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mildspec" or n.startswith("mildspec."))]


def install(rec: Recorder) -> list[tuple]:
    """Wrap every target; returns the (owner, name, original) patch list."""
    for mod in MODULES:
        importlib.import_module(f"mildspec.{mod}")
    modules = _mildspec_modules()
    patches = []
    for module, attr, before, count in TARGETS:
        owner = importlib.import_module(f"mildspec.{module}")
        name = span_name(module, attr)
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[member]
            if isinstance(raw, property):
                new = property(rec.wrap(name, raw.fget, before, count), raw.fset, raw.fdel, raw.__doc__)
            else:
                new = rec.wrap(name, raw, before, count)
            setattr(cls, member, new)
            patches.append((cls, member, raw))
            continue
        orig = getattr(owner, attr)
        wrapped = rec.wrap(name, orig, before, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    patches.append((mod, key, orig))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, key, orig in reversed(patches):
        setattr(owner, key, orig)


def leftover_wrappers() -> list[str]:
    """Every wrapped name still reachable in the loaded mildspec modules."""
    found = []
    for mod in _mildspec_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for member, raw in vars(value).items():
                    fn = raw.fget if isinstance(raw, property) else raw
                    if hasattr(fn, MARK):
                        found.append(f"{mod.__name__}.{key}.{member}")
    return found


def aggregate(jobs: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the tracer's self-check problems.

    ``jobs`` holds one record per job: {"job_wall_s": float, "spans": [...]}.
    A span's self time is its duration minus the durations of its children
    (one thread, so children never overlap).  For each job the self times of
    all spans plus the time outside every span must add up to the job's wall
    time.
    """
    m: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    for module, attr, _, _ in TARGETS:
        name = span_name(module, attr)
        m[f"{name}.self_s"] = 0.0
        m[f"{name}.calls"] = 0
    for layer in MODULES:
        m[f"{layer}.self_s"] = 0.0
    problems = []
    enumerated = set()
    for job in jobs:
        spans = job["spans"]
        child_time = [0.0] * len(spans)
        root_time = 0.0
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
            else:
                root_time += t1 - t0
        self_total = 0.0
        for i, (name, t0, t1, parent, job_id, counters) in enumerate(spans):
            self_s = (t1 - t0) - child_time[i]
            if self_s < -1e-6:
                problems.append(f"job {job_id}: negative self time in {name}")
            self_total += self_s
            m[f"{name}.self_s"] += self_s
            m[f"{name}.calls"] += 1
            m[f"{name.split('.')[0]}.self_s"] += self_s
            if not counters:
                continue
            parent_name = spans[parent][0] if parent >= 0 else ""
            if "subgroups" in counters:
                m["groups.subgroups_enumerated"] += counters["subgroups"]
                enumerated.add((job_id, counters["group"]))
            m["fourier.fft_points"] += counters.get("points", 0)
            if "cells" in counters:
                m["gabor.stft_cells"] += counters["cells"]
                if parent_name in REDUCING:
                    m["gabor.stft_cells_reduced_only"] += counters["cells"]
            m["gabor.dense_frame_bytes"] += counters.get("dense_bytes", 0)
            m["mild.probes"] += counters.get("probes", 0)
            m["approx.bump_bytes"] += counters.get("bump_bytes", 0)
            if not parent_name.startswith("io."):
                m["io.bytes_read"] += counters.get("bytes_read", 0)
                m["io.bytes_written"] += counters.get("bytes_written", 0)
            m["verify.checks"] += counters.get("checks", 0)
            m["verify.checks_failed"] += counters.get("checks_failed", 0)
        remainder = job["job_wall_s"] - root_time
        if remainder < -1e-6:
            problems.append(f"job {job['job_id']}: spans outlast the job")
        if abs(self_total + remainder - job["job_wall_s"]) > 1e-6 * (1 + len(spans)):
            problems.append(f"job {job['job_id']}: self times and remainder do not add up")
        m["trace.untraced_s"] += remainder
    calls = m["groups.all_subgroups.calls"]
    m["groups.enumeration_reuse"] = len(enumerated) / calls if calls else 0.0
    return m, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark job with spans recorded")
    parser.add_argument("--job-id", type=int, required=True)
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    kind = parser.add_mutually_exclusive_group(required=True)
    kind.add_argument("--cli", action="store_true", help="job arguments go to mildspec.cli.main")
    kind.add_argument("--session", action="store_true", help="job arguments go to tf_session.main")
    parser.add_argument("job_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    job_args = args.job_args[1:] if args.job_args[:1] == ["--"] else args.job_args

    import mildspec

    rec = Recorder(args.job_id)
    patches = install(rec)
    t0 = time.perf_counter()
    try:
        if args.cli:
            rc = mildspec.cli.main(job_args)
        else:
            import tf_session

            rc = tf_session.main(job_args, traced=True)
    except SystemExit as exc:  # argparse usage errors inside the job
        rc = exc.code if isinstance(exc.code, int) else 2
    job_wall = time.perf_counter() - t0
    uninstall(patches)
    record = {"job_id": args.job_id, "job_wall_s": job_wall, "spans": rec.spans,
              "leftover_wrappers": leftover_wrappers()}
    with open(args.spans, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
