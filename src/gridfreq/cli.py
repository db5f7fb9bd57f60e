"""Command-line interface: simulate, tune, sweep, figure.

Exit codes: 0 success, 2 usage or scenario-file error, 3 numerical failure.
The commands raise and :func:`main` alone reports, with the same rule for
every command: bad input or an unusable output (``_UsageError`` or any
``ValueError``, which every parameter check raises) is one ``error:`` line
and exit 2, and a divergence (``IntegrationError``) is one line and exit 3.
Outputs are checked before the run and written after it: a failed run leaves
existing files as they were, and a write the OS refuses is an unusable output.
Frequencies cross this boundary in Hz (mHz for the dead-band flag); scenario
files carry per-unit values as documented in :mod:`gridfreq.scenariofile`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from .controllers import IDroop, NoStorage, VirtualInertia
from .model import Disturbance, GridParams, Scenario, SimOptions, gb_reference_params, pu_disturbance
from .scenariofile import load_scenario
from .simulate import (
    IntegrationError,
    extract_metrics,
    format_metrics,
    simulate,
    write_csv_rows,
    write_trajectory_csv,
)
from .sweeps import (
    _CAPACITY_CONTROLLERS,
    TRANSIENT_OPTIONS,
    SweepSpec,
    capacity_curve,
    sweep,
    vi_min_retune,
    write_sweep_csv,
)
from .tuning import (
    design_droop_from_target,
    energy_capacity_estimate,
    mv_min_exact,
    mv_min_linear,
    mv_min_from_target,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_TRAJ_STRIDE = 10  # trajectory figures are written every 10th sample (10 ms)


@cache  # built once per process: parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfreq",
        description="Storage-based frequency control: simulation, tuning, sweeps, figure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario file, write trajectory CSV + metrics")
    p_sim.add_argument("scenario", help="scenario file path")
    p_sim.add_argument("--out", required=True, help="trajectory CSV output path")
    p_sim.add_argument("--metrics-out", default=None, help="metrics summary path (default: <out>.metrics.txt)")
    p_sim.add_argument("--dt", type=float, default=None, help="override integration step [s]")
    p_sim.add_argument("--horizon", type=float, default=None, help="override horizon [s]")
    p_step = p_sim.add_mutually_exclusive_group()
    p_step.add_argument("--step-gw", type=float, default=None, help="override disturbance [GW]")
    p_step.add_argument("--step-pu", type=float, default=None, help="override disturbance [pu]")
    p_sim.add_argument("--deadband-mhz", type=float, default=None, help="override governor dead-band [mHz]")
    p_sim.add_argument("--inertia-h", type=float, default=None, help="override inertia constant [s]")
    p_sim.add_argument(
        "--freeze-secondary",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force the secondary gain to zero for this run",
    )

    p_tune = sub.add_parser("tune", help="size the storage control for a deviation target")
    p_tune.add_argument("--target-hz", type=float, required=True, help="max steady-state deviation [Hz]")
    p_tune.add_argument("--delta-p-gw", type=float, default=1.8, help="design disturbance [GW]")
    # grid flags store under the GridParams field they override; unset ones keep the GB reference value
    p_tune.add_argument("--base-gw", dest="base_power", type=float, help="system power base [GW]")
    p_tune.add_argument("--nominal-hz", dest="nominal_freq", type=float, help="nominal frequency [Hz]")
    p_tune.add_argument("--inertia-h", type=float, help="inertia constant [s]")
    p_tune.add_argument("--turbine-tau", type=float, help="turbine time constant [s]")
    p_tune.add_argument("--alpha-l", dest="load_damping_alpha_l", type=float, help="load sensitivity [pu]")
    p_tune.add_argument("--alpha-g", dest="gen_inv_droop_alpha_g", type=float, help="generator inverse droop [pu]")
    p_tune.add_argument("--k-i", dest="secondary_gain_k_i", type=float, help="secondary gain [1/s]")

    p_sweep = sub.add_parser("sweep", help="run a standard parameter sweep, write CSV")
    p_sweep.add_argument("kind", choices=_SWEEP_NAMES)
    p_sweep.add_argument("--out-dir", default=".", help="output directory")
    p_sweep.add_argument("--alpha-b", type=float, help="storage droop for the mv sweep [pu]")
    p_sweep.add_argument("--step-gw", type=float, default=1.8, help="disturbance [GW]")

    p_fig = sub.add_parser("figure", help="regenerate a bundled figure dataset")
    p_fig.add_argument("id", choices=_FIGURE_BUILDERS)
    p_fig.add_argument("--out-dir", default=".", help="output directory")

    return parser


def _field_flags(args: argparse.Namespace, cls: type) -> dict:
    """The flags set on the command line whose ``dest`` is a field of dataclass ``cls``."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if getattr(args, f.name, None) is not None}


class _UsageError(Exception):
    """Bad input or an unusable output: :func:`main` prints it and exits 2."""


def _make_out_dir(path: str) -> Path:
    """Output directory ``path``, created if missing."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot write to {path!r}: {exc.strerror}") from exc
    return out_dir


def _cannot_write(path: Path, exc: OSError) -> _UsageError:
    return _UsageError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


def _output_file(path: Path) -> Path:
    """Output file ``path``, checked before the run: not a directory, in an existing one."""
    try:
        if path.is_dir() or not path.parent.is_dir():
            raise _UsageError(f"cannot write {str(path)!r}: not a file in an existing directory")
    except OSError as exc:  # a name the file system refuses, such as one too long
        raise _cannot_write(path, exc) from exc
    return path


def _write_output(path: Path, write: Callable[[TextIO], object]) -> None:
    """Open ``path``, ``write(stream)`` and close it, after the run; any OSError of the
    three is a usage error.  A write that fails partway leaves a partial file."""
    try:
        with path.open("w") as stream:
            write(stream)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args: argparse.Namespace) -> None:
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        raise _UsageError(exc) from exc

    # one replace per parameter type, so its joint checks see the final values
    grid_flags = _field_flags(args, GridParams)
    if args.deadband_mhz is not None:
        grid_flags["deadband_omega_db"] = args.deadband_mhz / 1000.0 / scenario.grid.nominal_freq
    grid = replace(scenario.grid, **grid_flags)
    dist_flags = _field_flags(args, Disturbance)
    if args.step_gw is not None:
        dist_flags["step_pu"] = pu_disturbance(args.step_gw, grid)
    disturbance = replace(scenario.disturbance, **dist_flags)
    sim = replace(scenario.sim, **_field_flags(args, SimOptions))
    scenario = Scenario(grid=grid, controller=scenario.controller, disturbance=disturbance, sim=sim)

    out_path = _output_file(Path(args.out))
    metrics_path = _output_file(Path(args.metrics_out) if args.metrics_out else out_path.with_suffix(".metrics.txt"))
    if metrics_path.resolve() == out_path.resolve():
        raise _UsageError(f"--metrics-out {args.metrics_out!r} names the --out file")

    traj = simulate(scenario)
    summary = format_metrics(extract_metrics(traj), scenario.grid.nominal_freq)
    _write_output(out_path, partial(write_trajectory_csv, traj))
    _write_output(metrics_path, lambda stream: stream.write(summary))
    print(summary, end="")


# ---------------------------------------------------------------------------
# tune


def _cmd_tune(args: argparse.Namespace) -> None:
    if args.target_hz == 0:
        raise _UsageError("--target-hz must be nonzero")
    grid = gb_reference_params(**_field_flags(args, GridParams))
    delta_p = Disturbance(step_pu=pu_disturbance(args.delta_p_gw, grid)).step_pu
    target_pu = args.target_hz / grid.nominal_freq
    alpha_b = design_droop_from_target(delta_p, target_pu, grid.gen_inv_droop_alpha_g)
    tuned = IDroop.nadir_tuned(grid, alpha_b)

    print(f"design disturbance = {args.delta_p_gw:.12g} GW ({delta_p:.12g} pu)")
    print(f"target deviation = {args.target_hz:.12g} Hz ({target_pu:.12g} pu)")
    print(f"alpha_b = {alpha_b:.12g} pu" + ("  (clamped to zero)" if alpha_b == 0 else ""))
    print(f"m_v_min from target (linear rule) = {mv_min_from_target(delta_p, target_pu, grid):.12g} pu*s")
    print(f"m_v_min exact at alpha_b = {mv_min_exact(grid, alpha_b):.12g} pu*s")
    print(f"lag droop tuning: nu = {tuned.nu:.12g} pu, tau_i = {tuned.tau_i:.12g} s")
    if grid.secondary_gain_k_i > 0:
        e_est = energy_capacity_estimate(alpha_b, grid.secondary_gain_k_i)
        print(f"energy capacity estimate e_b_max/delta_p = {e_est:.12g} s")
    else:
        print("energy capacity estimate e_b_max/delta_p = unbounded (k_i = 0)")


# ---------------------------------------------------------------------------
# sweep


# file stem and value column of each sweep kind
_SWEEP_NAMES = {"mv": ("mv", "m_v"), "alpha-b": ("alpha_b", "alpha_b"), "tau-t": ("tau_t", "tau_t")}


def _sweep_spec(kind: str, grid: GridParams, delta_p: float, alpha_b: float) -> SweepSpec:
    """The standard sweep ``kind``; ``alpha_b`` is the storage droop of the mv sweep."""
    disturbance = Disturbance(step_pu=delta_p)
    if kind == "mv":
        base = Scenario(grid, VirtualInertia(m_v=0.0, alpha_b=alpha_b), disturbance, TRANSIENT_OPTIONS)
        return SweepSpec(base=base, parameter="controller.m_v", values=_grid_values(0.0, 150.0, 1.0))
    if kind == "alpha-b":
        base = Scenario(grid, VirtualInertia(m_v=0.0, alpha_b=0.0), disturbance, TRANSIENT_OPTIONS)
        return SweepSpec(
            base=base,
            parameter="controller.alpha_b",
            values=_grid_values(0.0, 15.0, 0.25),
            retune=vi_min_retune,
        )
    base = Scenario(grid, IDroop.nadir_tuned(grid, 0.0), disturbance, TRANSIENT_OPTIONS)
    return SweepSpec(base=base, parameter="grid.turbine_tau", values=_grid_values(0.25, 3.0, 0.05))


def _cmd_sweep(args: argparse.Namespace) -> None:
    if args.alpha_b is not None and args.kind != "mv":
        raise _UsageError(f"--alpha-b applies to the mv sweep only, not {args.kind}")
    grid = gb_reference_params()
    alpha_b = 0.0 if args.alpha_b is None else args.alpha_b
    spec = _sweep_spec(args.kind, grid, pu_disturbance(args.step_gw, grid), alpha_b)
    name, value_name = _SWEEP_NAMES[args.kind]
    out_path = _output_file(_make_out_dir(args.out_dir) / f"{name}.csv")
    _write_output(out_path, partial(write_sweep_csv, sweep(spec), value_name=value_name))


def _grid_values(start: float, stop: float, step: float) -> list[float]:
    n = int(round((stop - start) / step))
    return [round(start + k * step, 10) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# figure datasets


# A trajectory figure is a table of runs (column tag, grid, controller,
# fields); each field is (column prefix, value read off the trajectory) and
# fills the column <prefix>_<tag>.
_OMEGA = (("omega_pu", lambda traj: traj.omega),)


def _trajectory_rows(runs, grid, delta_p):
    """Simulate each run of ``runs(grid, delta_p)`` with TRANSIENT_OPTIONS and keep
    every _TRAJ_STRIDE-th sample: ``t``, then each run's fields in table order."""
    cols = ["t"]
    data = []
    for tag, run_grid, controller, run_fields in runs(grid, delta_p):
        traj = simulate(Scenario(run_grid, controller, Disturbance(step_pu=delta_p), TRANSIENT_OPTIONS))
        for prefix, value in run_fields:
            cols.append(f"{prefix}_{tag}")
            data.append(value(traj)[::_TRAJ_STRIDE])
    return cols, [traj.t[::_TRAJ_STRIDE]] + data


def _nadir_free_tunings(grid):
    """VI on the nadir-elimination boundary and the tuned iDroop, both at alpha_b = 0."""
    return {"vi": VirtualInertia(m_v=mv_min_exact(grid, 0.0), alpha_b=0.0), "idroop": IDroop.nadir_tuned(grid, 0.0)}


def _fig2_runs(grid, _delta_p):
    hz = (("omega_hz", lambda traj: traj.omega * grid.nominal_freq),)
    return [(f"h{h}".replace(".", "p"), replace(grid, inertia_h=h), NoStorage(), hz) for h in (4.06, 2.19)]


def _fig3_rows(grid, _delta_p):
    alpha_grid = _grid_values(0.0, 15.0, 0.25)
    exact = [mv_min_exact(grid, a) for a in alpha_grid]
    linear = [mv_min_linear(grid, a) for a in alpha_grid]
    return ["alpha_b", "mv_min_exact", "mv_min_linear"], [alpha_grid, exact, linear]


def _fig4_runs(grid, _delta_p):
    m_vs = {"mv0": 0.0, "mv15": 15.0, "mv35": 35.0, "mv_min": mv_min_exact(grid, 0.0), "mv100": 100.0, "mv150": 150.0}
    return [(tag, grid, VirtualInertia(m_v=m_v, alpha_b=0.0), _OMEGA) for tag, m_v in m_vs.items()]


def _fig5_rows(grid, delta_p):
    cols = ["m_v"]
    data: list = []
    for alpha_b in (0.0, 5.0, 10.0):
        spec = _sweep_spec("mv", grid, delta_p, alpha_b)
        metrics = [pt.metrics for pt in sweep(spec)]
        tag = f"ab{int(alpha_b)}"
        cols.extend([f"max_deviation_pu_{tag}", f"p_b_max_norm_{tag}"])
        data.extend([[abs(m.nadir_deviation) for m in metrics], [m.p_b_max_norm for m in metrics]])
    return cols, [spec.values] + data


def _fig7_runs(grid, delta_p):
    storage = _OMEGA + (
        ("p_m_pu", lambda traj: traj.p_m),
        ("p_b_norm", lambda traj: traj.p_b / delta_p),
        ("e_b_norm", lambda traj: traj.e_b / delta_p),
    )
    tunings = [(tag, grid, controller, storage) for tag, controller in _nadir_free_tunings(grid).items()]
    return [("nostorage", grid, NoStorage(), _OMEGA)] + tunings


def _fig8_rows(grid, delta_p):
    targets = [round(v, 10) for v in np.linspace(1.875e-3, 3.75e-3, 21)]
    curves = {strategy: capacity_curve(grid, strategy, targets, delta_p) for strategy in _CAPACITY_CONTROLLERS}
    cols = ["delta_omega_pu", "alpha_b"]
    data: list = [targets, [pt.alpha_b for pt in curves["droop"]]]
    for strategy, pts in curves.items():
        cols.extend([f"p_b_max_norm_{strategy}", f"e_b_max_norm_{strategy}"])
        data.extend([[pt.p_b_max_norm for pt in pts], [pt.e_b_max_norm for pt in pts]])
    return cols, data


def _fig9_rows(grid, delta_p):
    spec = _sweep_spec("tau-t", grid, delta_p, 0.0)  # lag tuned for the nominal 1 s turbine
    maxdev = [abs(pt.metrics.nadir_deviation) for pt in sweep(spec)]
    return ["tau_t", "max_deviation_pu"], [spec.values, maxdev]


def _fig10_runs(grid, _delta_p):
    controller = IDroop.nadir_tuned(grid, 0.0)
    return [
        (f"taut{tau_t}".replace(".", "p"), replace(grid, turbine_tau=tau_t), controller, _OMEGA)
        for tau_t in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
    ]


def _fig11_runs(grid, _delta_p):
    db_grid = replace(grid, deadband_omega_db=0.0006)
    return [(tag, db_grid, controller, _OMEGA) for tag, controller in _nadir_free_tunings(grid).items()]


_FIGURE_BUILDERS = {
    "fig2": partial(_trajectory_rows, _fig2_runs),
    "fig3": _fig3_rows,
    "fig4": partial(_trajectory_rows, _fig4_runs),
    "fig5": _fig5_rows,
    "fig7": partial(_trajectory_rows, _fig7_runs),
    "fig8": _fig8_rows,
    "fig9": _fig9_rows,
    "fig10": partial(_trajectory_rows, _fig10_runs),
    "fig11": partial(_trajectory_rows, _fig11_runs),
}


def _cmd_figure(args: argparse.Namespace) -> None:
    grid = gb_reference_params()
    delta_p = pu_disturbance(1.8, grid)
    out_path = _output_file(_make_out_dir(args.out_dir) / f"{args.id}.csv")
    cols, data = _FIGURE_BUILDERS[args.id](grid, delta_p)
    _write_output(out_path, lambda stream: (stream.write(",".join(cols) + "\n"), write_csv_rows(data, stream)))


# ---------------------------------------------------------------------------


_COMMANDS = {"simulate": _cmd_simulate, "tune": _cmd_tune, "sweep": _cmd_sweep, "figure": _cmd_figure}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        _COMMANDS[args.command](args)
    except (_UsageError, ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, IntegrationError) else EXIT_USAGE
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
