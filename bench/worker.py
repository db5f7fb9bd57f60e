"""One benchmark process: set up a workload, run it for a time budget, check it.

Started by ``run.py`` in a fresh interpreter, never imported.  Protocol on
standard output: the line ``ready`` once numpy and gridfreq are imported and
the seeded inputs are built (the end of set-up), then, unless
``--setup-only``, one JSON line with the measurements.

Passes of the workload's operation list repeat in a closed loop until the
next one would overrun ``--seconds``.  With ``--trace 1`` untraced and traced
passes alternate; end-to-end numbers come from untraced passes only, layer
numbers from traced passes only.  Each operation's output is checked right
after its timer stops.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402

import gridfreq  # noqa: E402
import gridfreq.sweeps  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# The perturbed omega deviates from the real one by this many oracle
# tolerances at its peak.  (A fixed 1e-4 relative error is only ~3e-7 pu on
# these responses, inside the 1e-6 pu agreement the project allows.)
SELF_TEST_OMEGA_SCALE = 10.0
SELF_TEST_CAPACITY_FACTOR = 1.0 + 1e-4


class _Discard(io.TextIOBase):
    """Sink for the CLI's console output, so it never mixes with the protocol."""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        return len(text)


class Runner:
    """Runs passes of one workload and checks every operation's output."""

    def __init__(self, workload: str, ops: list, tracer: spans.Tracer) -> None:
        self.workload = workload
        self.ops = ops
        self.tracer = tracer
        self.plain_checker = checks.Checker(checks.OracleStats())
        self.traced_stats = checks.OracleStats()  # oracle counters of the traced passes
        self.traced_checker = checks.Checker(self.traced_stats, call=tracer.call)
        self.captured: list = []
        self.probes: list[float] = []  # reference-loop times [ms]
        self.attempted = 0
        self.failures: list[str] = []
        self.console = _Discard()
        if workload == "sweep-linear":
            # keep each point's trajectory for the oracle check (sweep returns metrics only)
            simulate = gridfreq.sweeps.simulate

            def capture(scenario):
                traj = simulate(scenario)
                self.captured.append(traj)
                return traj

            gridfreq.sweeps.simulate = capture

    def run_pass(self, pass_no: int, traced: bool) -> list[tuple[float, float]]:
        """One pass over the operation list; returns (raw seconds, speed factor) per op.

        The speed probe runs between consecutive ops, outside their timers.
        In a traced pass the shims are in place only while an op runs, so the
        checks' own gridfreq calls are not counted as the op's work.
        """
        timings = []
        checker = self.traced_checker if traced else self.plain_checker
        probe = speed.loop_ms()
        for k, op in enumerate(self.ops):
            self.captured.clear()
            self.tracer.op = (pass_no, k)
            self.attempted += 1
            if traced:
                self.tracer.install()
            try:
                with redirect_stdout(self.console):
                    t0 = time.perf_counter()
                    try:
                        if traced:
                            result = self.tracer.call("op", self.tracer.call, op.layer, op.fn, *op.args)
                        else:
                            result = op.fn(*op.args)
                    finally:
                        elapsed = time.perf_counter() - t0
                        if traced:
                            self.tracer.uninstall()
                        before, probe = probe, speed.loop_ms()
                        timings.append((elapsed, speed.factor(before, probe)))
                        self.probes.append(probe)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                self.failures.append(f"pass {pass_no} op {k} ({op.kind}): {type(exc).__name__}: {exc}")
                continue
            try:
                fails = self.check(checker, op, result)
            except Exception as exc:  # output the check cannot even read
                fails = [f"check raised {type(exc).__name__}: {exc}"]
            if fails:
                self.failures.append(f"pass {pass_no} op {k} ({op.kind}): " + "; ".join(fails))
        return timings

    def check(self, checker: checks.Checker, op, result) -> list[str]:
        if self.workload == "sweep-linear":
            return checker.sweep(op, result, self.captured)
        if self.workload == "export-scenarios":
            try:
                return checker.export(op, result)
            finally:
                _remove_export(op)
        return checker.capacity(op, result)

    def self_test(self) -> list[str]:
        """The checks must pass a real output and reject a perturbed copy of it."""
        checker = checks.Checker(checks.OracleStats())
        if self.workload == "sweep-linear":
            op = next(o for o in self.ops if o.kind == "vi_mv")
            self.captured.clear()
            points = op.fn(*op.args)
            good = checker.sweep(op, points, self.captured)
            traj = self.captured[-1]
            factor = 1.0 + SELF_TEST_OMEGA_SCALE * checks.TOL_PU / float(np.max(np.abs(traj.omega)))
            scenario = checks.swept_scenario(op.info["spec"])
            bad = checker.sweep_trajectory(scenario, traj.t, traj.omega * factor, points[0].metrics)
        elif self.workload == "export-scenarios":
            op = next(o for o in self.ops if o.kind == "gb-nostorage")
            out = op.info["out"]
            try:
                with redirect_stdout(self.console):
                    rc = op.fn(*op.args)
                good = checker.export(op, rc)
                with out.open() as stream:
                    header = stream.readline().rstrip("\n")
                rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            finally:
                _remove_export(op)
            factor = 1.0 + SELF_TEST_OMEGA_SCALE * checks.TOL_PU / float(np.max(np.abs(rows[:, 1])))
            rows[:, 1:3] *= factor  # omega in pu and in Hz, kept consistent with each other
            summary = {
                "nadir_deviation_pu": repr(float(np.min(rows[:, 1]))),
                "steady_state_deviation_pu": repr(float(rows[-1, 1])),
            }
            bad = checker.export_output(op, header, rows, summary)
        else:
            op = next(o for o in self.ops if o.kind == "droop")
            points = op.fn(*op.args)
            good = checker.capacity(op, points)
            bad = checker.capacity_point(
                op, points[0].alpha_b, points[0].p_b_max_norm * SELF_TEST_CAPACITY_FACTOR, points[0].e_b_max_norm
            )
        problems = [f"real output rejected: {good}"] if good else []
        if not bad:
            problems.append("perturbed output accepted")
        return problems


def _remove_export(op) -> None:
    for path in (op.info["out"], op.info["out"].with_suffix(".metrics.txt")):
        path.unlink(missing_ok=True)


def _layer_metrics(pass_spans: list) -> dict[str, tuple[float, str]]:
    """Layer numbers of one traced pass, with units."""
    totals = spans.layer_totals(pass_spans)

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    steps = get("simulate", "steps")
    rows = get("simulate.csv", "rows")
    sim_self = get("simulate", "self")
    csv_ms = 1e3 * get("simulate.csv", "total")
    return {
        "ops.calls": (get("op", "calls"), "count"),
        "ops.ms": (1e3 * get("op", "total"), "ms"),
        "simulate.calls": (get("simulate", "calls"), "count"),
        "simulate.steps": (steps, "count"),
        "simulate.self_ms": (1e3 * sim_self, "ms"),
        "simulate.us_per_step": (1e6 * sim_self / steps if steps else 0.0, "us"),
        "simulate.errors": (get("simulate", "errors"), "count"),
        "simulate.extract_ms": (1e3 * get("simulate.extract", "total"), "ms"),
        "simulate.csv_ms": (csv_ms, "ms"),
        "simulate.csv_rows": (rows, "count"),
        "simulate.csv_bytes": (get("simulate.csv", "bytes"), "B"),
        "simulate.csv_us_per_row": (1e3 * csv_ms / rows if rows else 0.0, "us"),
        "scenariofile.load_calls": (get("scenariofile.load", "calls"), "count"),
        "scenariofile.load_ms": (1e3 * get("scenariofile.load", "total"), "ms"),
        "cli.calls": (get("cli", "calls"), "count"),
        "cli.self_ms": (1e3 * get("cli", "self"), "ms"),
        "sweeps.points": (get("sweeps", "points"), "count"),
        "sweeps.self_ms": (1e3 * get("sweeps", "self"), "ms"),
        "tuning.calls": (get("tuning", "calls"), "count"),
        "tuning.self_ms": (1e3 * get("tuning", "self"), "ms"),
        "lti.calls": (get("lti", "calls"), "count"),
        "lti.self_ms": (1e3 * get("lti", "self"), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(gridfreq.__file__).resolve().is_relative_to(SRC):
        print(f"error: gridfreq imported from {gridfreq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        ops = workloads.build(args.workload, args.seed, ROOT / "scenarios", out_dir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        print(json.dumps(_measure(args, ops)), flush=True)
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _summary(passes: list[list[tuple[float, float]]]) -> dict[str, float]:
    """Pass wall and op quantiles, raw and at reference speed."""
    raw = [d for timings in passes for d, _f in timings]
    ref = [d * f for timings in passes for d, f in timings]
    _q1, raw_p50, raw_p75 = statistics.quantiles(raw, n=4)
    _q1, ref_p50, ref_p75 = statistics.quantiles(ref, n=4)
    return {
        "wall_ref_s": statistics.median(sum(d * f for d, f in timings) for timings in passes),
        "op_p50_ref_ms": 1e3 * ref_p50,
        "op_p75_ref_ms": 1e3 * ref_p75,
        "wall_s": statistics.median(sum(d for d, _f in timings) for timings in passes),
        "op_p50_ms": 1e3 * raw_p50,
        "op_p75_ms": 1e3 * raw_p75,
        "op_samples": len(raw),
    }


def _measure(args, ops: list) -> dict:
    tracer = spans.Tracer()
    runner = Runner(args.workload, ops, tracer)
    plain: list[list[tuple[float, float]]] = []  # per untraced pass: (raw s, speed factor) per op
    traced: list[list[tuple[float, float]]] = []
    traced_spans: list[list] = []
    start = time.perf_counter()
    while True:
        is_traced = bool(args.trace) and len(plain) > len(traced)
        timings = runner.run_pass(len(plain) + len(traced), is_traced)
        if is_traced:
            traced.append(timings)
            traced_spans.append(tracer.take())
        else:
            plain.append(timings)
        n_passes = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        balanced = not args.trace or len(plain) == len(traced)
        if balanced and elapsed * (n_passes + 1) / n_passes > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(runner.failures)
    try:
        self_test = runner.self_test()
    except Exception as exc:
        self_test = [f"self-test raised {type(exc).__name__}: {exc}"]

    untraced = _summary(plain)
    metrics = {
        "wall_ref_s": (untraced["wall_ref_s"], "s"),
        "op_p50_ref_ms": (untraced["op_p50_ref_ms"], "ms"),
        "op_p75_ref_ms": (untraced["op_p75_ref_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": ((runner.attempted - failed) / runner.attempted, "ratio"),
    }
    if args.trace:
        per_pass = [_layer_metrics(s) for s in traced_spans]
        for key, (_value, unit) in per_pass[0].items():
            metrics[key] = (statistics.median(p[key][0] for p in per_pass), unit)
        traced_wall = _summary(traced)["wall_ref_s"]
        metrics["trace.overhead_frac"] = ((traced_wall - untraced["wall_ref_s"]) / untraced["wall_ref_s"], "ratio")
        metrics["raw.wall_s"] = (untraced["wall_s"], "s")
        metrics["machine.loop_ms"] = (statistics.median(runner.probes), "ms")
        stats = runner.traced_stats
        metrics["lti.max_abs_err_pu"] = (stats.max_abs_err_pu, "pu")
        metrics["lti.verdicts_checked"] = (stats.verdicts_checked / len(traced), "count")
        metrics["lti.verdicts_agree"] = (stats.verdicts_agree / len(traced), "count")
        _write_spans(args, traced_spans)

    return {
        "correct": not runner.failures and not self_test,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": runner.failures[:20],
        "self_test": self_test or "perturbed output rejected",
        "passes": n_passes,
        "untraced": untraced,
        "loop_ms_median": statistics.median(runner.probes),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _write_spans(args, traced_spans: list[list]) -> None:
    """All traced passes' spans; a span's parent indexes into its own pass."""
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    payload = {
        "fields": ["name", "start", "end", "parent", "op", "extra"],
        "passes": [[s.as_list() for s in pass_spans] for pass_spans in traced_spans],
    }
    path.write_text(json.dumps(payload))


if __name__ == "__main__":
    sys.exit(main())
