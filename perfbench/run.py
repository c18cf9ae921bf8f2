#!/usr/bin/env python3
"""blockflow benchmark: drives the `blockflow` CLI and prints one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`. Every workload is a closed loop: one child process at a time, each
command starting after the previous one has exited. With `--trace 0` the
last stdout line carries the end-to-end metrics; with `--trace 1` it carries
the per-layer split from a separate traced run (see layers.py). README.md in
this directory lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TIME_LIMIT_S = 165.0      # the whole run must exit within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train_grid", "sample_grid", "train_external", "pipeline_bridge")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Step:
    code: int | None
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float


class Children:
    """Starts one child process at a time and measures its wall and CPU time.

    CPU time is the change in RUSAGE_CHILDREN across the child, so it covers
    the child and every descendant it waited for (the external evaluator).
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str]) -> Step:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=self.env, cwd=ROOT, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += "\nkilled: run time limit reached"
        wall = time.perf_counter() - start
        try:  # leave nothing of the child's process group behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return Step(proc.returncode, out, err, wall, cpu)

    def cli(self, *args) -> Step:
        return self.run([sys.executable, "-m", "blockflow.cli", *map(str, args)])

    @staticmethod
    def peak_rss_mb() -> float:
        """Largest resident set of any child so far (ru_maxrss is in KiB)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "blockflow" / "__init__.py").is_file():
        log(f"error: no blockflow source under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    children = Children(time.monotonic() + TIME_LIMIT_S)
    print(json.dumps({"machine": machine()}), flush=True)

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    import workloads  # needs the package on the path

    bench = workloads.Bench(args.seed, args.seconds, work, children)
    try:
        if args.trace:
            path = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
            metrics = workloads.traced(args.workload, bench, path)
        else:
            metrics = getattr(workloads, args.workload)(bench)
            metrics["peak_rss_mb"] = (Children.peak_rss_mb(), "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log(f"{args.workload}: {bench.attempted} attempted, {bench.failed} failed, "
        f"{len(bench.problems)} problems")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
