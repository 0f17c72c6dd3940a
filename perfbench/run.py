"""mildspec benchmark: end-to-end timings per workload, or a traced per-layer run.

Run from the root of a source checkout (the library is taken from ./src):

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0

Jobs run one at a time (a closed loop with one client), each in a fresh
Python process.  With ``--trace 0`` whole passes over the workload's job
list repeat until ``--seconds`` is used up, and the end-to-end metrics are
medians over passes.  There are at least two passes, so that repeated
reports can be compared byte for byte, and a third when it ends within
1.5 x ``--seconds``.  Fresh interpreters that
only import mildspec are timed before the first pass and between jobs.  With ``--trace 1`` one untraced pass is followed by
traced passes, where each job runs under ``tracer.py``; the per-layer
metrics are medians over the traced passes.  Every job's output is checked
by ``workloads.py``.  The last line of standard output is the result JSON;
the exit code is 0 only when every output is as expected.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# one BLAS/FFT thread: a prototype tf-frames pass took 5.9-6.3 s at 1 thread
# and 6.4-7.3 s at 2 threads on a 2-core machine
THREADS = "1"
SETUP_STARTS = 5  # before the first pass; more follow between jobs
SETUP_EVERY_S = 2.0
MIN_PASSES = 2  # byte-identical reports need a repeat
THIRD_PASS_SLACK = 1.5  # a third pass may run on to 1.5x --seconds
HARD_LIMIT_S = 170.0  # the whole run, input generation included
JOB_TIMEOUT_S = 90.0


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    # MILDSPEC_THREADS is the program's own knob; stray pool sizes would override it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONSTARTUP"):
        env.pop(var, None)
    env["MILDSPEC_THREADS"] = THREADS
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: Path) -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "git_commit": git_commit(root),
        "MILDSPEC_THREADS": THREADS,
    }


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


class Launcher:
    """The small process that starts every job (see launcher.py for why)."""

    def __init__(self, env: dict, root: Path):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=root, text=True)

    def run(self, cmd: list[str], stderr: Path, timeout: float) -> Proc:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "stderr": str(stderr),
                                          "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            fail("the job launcher exited early")
        return Proc(**json.loads(reply))

    def stop(self) -> None:
        """End the launcher; a job still running (after an error) is killed with it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    jobs: list[tuple[str, Proc, str, str]] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


class Runner:
    def __init__(self, launcher: Launcher, work: Path, jobs: list, t_start: float):
        self.launcher, self.work, self.jobs, self.t_start = launcher, work, jobs, t_start
        self.py = sys.executable
        self.setup: list[float] = []
        self._last_setup = 0.0

    def start_interpreter(self) -> float:
        """Wall time of a fresh interpreter that imports mildspec and exits."""
        stderr = self.work / "stderr_setup.txt"
        proc = self.launcher.run([self.py, "-c", "import mildspec"], stderr, 60.0)
        if proc.rc != 0:
            fail("`import mildspec` failed: " + stderr.read_text(errors="replace").strip())
        self._last_setup = time.perf_counter()
        return proc.wall_s

    def time_setup(self, starts: int) -> None:
        # spread over the run, so that the median covers more than one moment
        self.setup += [self.start_interpreter() for _ in range(starts)]

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t_start)

    def command(self, i: int, job: workloads.Job, spans: Path | None) -> list[str]:
        if spans is None:
            if job.kind == "cli":
                return [self.py, "-m", "mildspec", *job.args]
            return [self.py, str(HERE / "tf_session.py"), *job.args]
        return [self.py, str(HERE / "tracer.py"), "--job-id", str(i), "--spans", str(spans),
                f"--{job.kind}", "--", *job.args]

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(traced)
        for i, job in enumerate(self.jobs):
            for out in job.outputs:
                out.unlink(missing_ok=True)
            spans = self.work / f"spans_{i}.json" if traced else None
            stderr = self.work / f"stderr_{i}.txt"
            timeout = min(JOB_TIMEOUT_S, self.remaining())
            proc = self.launcher.run(self.command(i, job, spans), stderr, timeout)
            p.wall_s += proc.wall_s
            p.cpu_s += proc.cpu_s
            p.peak_rss_mb = max(p.peak_rss_mb, proc.maxrss_mb)
            status, msg = self.judge(job, proc, stderr)
            if traced and status != workloads.FAIL:
                try:
                    record = json.loads(spans.read_text())
                except (OSError, ValueError) as exc:
                    status, msg = workloads.FAIL, f"no span record ({exc})"
                else:
                    if record["leftover_wrappers"]:
                        status, msg = workloads.FAIL, f"wrappers left: {record['leftover_wrappers']}"
                    else:
                        p.spans.append(record)
            p.jobs.append((job.name, proc, status, msg))
            if self.setup and time.perf_counter() - self._last_setup >= SETUP_EVERY_S:
                self.time_setup(1)
        return p

    @staticmethod
    def judge(job: workloads.Job, proc: Proc, stderr: Path) -> tuple[str, str]:
        if proc.rc < 0:
            return workloads.FAIL, f"killed by signal {-proc.rc} (timeout or out of memory)"
        try:
            status, msg = job.check(job, proc.rc)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            status, msg = workloads.FAIL, f"output check raised {exc!r}"
        if status == workloads.FAIL:
            tail = stderr.read_text(errors="replace").strip().splitlines()[-3:]
            msg += "".join(f"\n      stderr: {line}" for line in tail)
        return status, msg


def measure(runner: Runner, seconds: float, trace: bool) -> list[Pass]:
    passes: list[Pass] = []
    t0 = time.perf_counter()
    if trace:
        passes.append(runner.run_pass(traced=False))
    while True:
        passes.append(runner.run_pass(traced=trace))
        done = [p.wall_s for p in passes if p.traced == trace]
        elapsed = time.perf_counter() - t0
        enough = len(done) >= (1 if trace else MIN_PASSES)
        # every job time should be a median of three when that fits; a slow
        # machine gets fewer passes rather than a run past the hard limit
        limit = seconds * (THIRD_PASS_SLACK if not trace and len(done) < 3 else 1.0)
        if (enough and elapsed + statistics.median(done) > limit
                or runner.remaining() < 1.5 * max(done) + 5):
            return passes


def typical(passes: list[Pass], attr: str) -> float:
    """One pass's worth of a job measure: the sum over jobs of its median over passes."""
    return sum(statistics.median(getattr(p.jobs[j][1], attr) for p in passes)
               for j in range(len(passes[0].jobs)))


def report(args, facts: dict, passes: list[Pass], setup: list[float], bench: dict) -> int:
    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(s == workloads.FAIL for p in passes for _, _, s, _ in p.jobs)
    known = sum(s == workloads.KNOWN for p in passes for _, _, s, _ in p.jobs)
    problems = []
    leaked = [m for m in ("mildspec", "tracer") if m in sys.modules]
    if leaked and not args.trace:
        problems.append(f"untraced run.py process loaded {leaked}")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    for k, p in enumerate(passes, 1):
        kind = "traced" if p.traced else "untraced"
        print(f"pass {k} ({kind}): wall {p.wall_s:.3f} s  cpu {p.cpu_s:.3f} s  "
              f"peak {p.peak_rss_mb:.1f} MB")
        for name, proc, status, msg in p.jobs:
            print(f"  [{status:5}] {name:24} rc={proc.rc:<3} wall {proc.wall_s:7.3f} s  "
                  f"cpu {proc.cpu_s:7.3f} s  rss {proc.maxrss_mb:7.1f} MB  {msg}")

    plain = [p for p in passes if not p.traced]
    values = {
        "setup_s": (statistics.median(setup) if setup else None, f"median of {len(setup)} starts"),
        "wall_s": (typical(plain, "wall_s"), f"sum of per-job medians over {len(plain)} passes"),
        "cpu_s": (typical(plain, "cpu_s"), "jobs and the launcher, per-job medians"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in plain), "largest job"),
        "failed_frac": ((failed + known) / attempted,
                        f"{failed} failed, {known} known defect, of {attempted} jobs"),
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.setdefault("failed_frac", "1")
    print("end-to-end (untraced):")
    for name, (value, note) in values.items():
        if value is not None:
            print(f"  {name:14} {value:12.4f} {units[name]:6} {note}")

    if args.trace:
        traced = [p for p in passes if p.traced]
        import tracer

        per_pass = []
        for p in traced:
            layer, bad = tracer.aggregate(p.spans)
            problems += bad
            per_pass.append(layer)
        layer = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
        layer["trace.overhead_frac"] = typical(traced, "wall_s") / values["wall_s"][0] - 1.0
        layer["failed_frac"] = values["failed_frac"][0]
        print(f"per-layer (median of {len(traced)} traced passes; "
              f"trace.overhead_frac {layer['trace.overhead_frac']:+.4f}):")
        for m in bench["per_layer"]:
            print(f"  {m['name']:46} {layer[m['name']]:16.6g} {m['unit']}")
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    for msg in problems:
        print(f"self-check failed: {msg}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mildspec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    # a terminated run still stops its jobs and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "mildspec" / "__init__.py").is_file():
        fail(f"no mildspec sources under {root / 'src'}; run from the repository root")
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench_work"))
    launcher = Launcher(child_env(root), root)
    try:
        facts = machine_facts(root)
        jobs = workloads.build(args.workload, args.seed, work)
        runner = Runner(launcher, work, jobs, t_start)
        # the first import compiles bytecode, which users pay once, not per run
        runner.start_interpreter()
        if not args.trace:
            runner.time_setup(SETUP_STARTS)
        passes = measure(runner, args.seconds, bool(args.trace))
        return report(args, facts, passes, runner.setup, bench)
    finally:
        launcher.stop()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
