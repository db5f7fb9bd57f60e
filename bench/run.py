"""gridfreq benchmark: seeded workloads over the sweep, export and capacity paths.

Usage, from the repository root:

    python3 bench/run.py --workload sweep-linear --seed 1 --seconds 30 --trace 0

Workloads (see ``bench/README.md`` for why each exists):
``sweep-linear``, ``export-scenarios``, ``capacity-long``.

Each call measures set-up several times (a fresh interpreter importing numpy
and gridfreq and building the seeded inputs, up to the first operation),
then runs the workload in one more fresh interpreter for ``--seconds``.
Times are reported at a fixed reference speed (see ``speed.py``); the raw
times are on the line before the result.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the environment (commit, Python,
numpy, CPU count).  The exit code is non-zero, with no result line, when
the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 5  # set-up timings per call, after one warm-up start
SETUP_TIMEOUT_S = 20
WORKER_GRACE_S = 100  # beyond --seconds: the last pass, the checks, the self-test

# Single-threaded runs on a small machine: no BLAS thread pools.
PINNED_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchError(RuntimeError):
    pass


def _start(args: argparse.Namespace, setup_only: bool, env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and its set-up time."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup_s


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for the worker to exit; returns the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exit code {proc.returncode}")
    return out


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _metric_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    if not (ROOT / "src" / "gridfreq" / "__init__.py").is_file():
        raise BenchError(f"no gridfreq sources under {ROOT / 'src'}")
    names = _metric_names(args.trace)
    env = dict(os.environ, **PINNED_ENV)

    setup = []  # (raw seconds, speed factor) per fresh start
    for k in range(SETUP_SAMPLES + 1):
        before = speed.loop_ms()
        proc, setup_s = _start(args, setup_only=True, env=env)
        _finish(proc, SETUP_TIMEOUT_S)
        if k:  # the first start also writes bytecode caches; not counted
            setup.append((setup_s, speed.factor(before, speed.loop_ms())))
    proc, _setup_s = _start(args, setup_only=False, env=env)
    lines = _finish(proc, args.seconds + WORKER_GRACE_S).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    report = json.loads(lines[-1])
    setup_ref_s = statistics.median(raw * f for raw, f in setup)
    available = dict(report["metrics"], setup_s={"value": setup_ref_s, "unit": "s"})
    missing = [n for n in names if n not in available]
    if missing:
        raise BenchError(f"worker did not measure {missing}")
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: available[n] for n in names},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "python": report["python"],
        "numpy": report["numpy"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "passes": report["passes"],
        "untraced": report["untraced"],
        "loop_ms_median": report["loop_ms_median"],
        "setup_raw_s": [raw for raw, _f in setup],
        "setup_loop_factors": [f for _raw, f in setup],
        "self_test": report["self_test"],
        "failures": report["failures"],
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep-linear", "export-scenarios", "capacity-long"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        info, result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
