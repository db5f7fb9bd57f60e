"""Seeded inputs and operations of the three benchmark workloads.

Each workload is a fixed list of operations ("a pass") drawn from the seed.
An operation is one public gridfreq call, the same call a user makes:

* ``sweep-linear``: one-value ``sweeps.sweep`` points, 30 s at dt = 1 ms,
  secondary frozen, no dead-band (the shape of fig5, fig9 and
  ``gridfreq sweep``);
* ``export-scenarios``: in-process ``cli.main(["simulate", ...])`` over the
  bundled scenario files with a seeded ``--step-gw`` (the interactive path,
  including CSV writing and the dead-band RK4 path);
* ``capacity-long``: single-target ``sweeps.capacity_curve`` calls, one 30 s
  run at 1 ms plus one 1200 s run at 10 ms with the secondary active (the
  shape of fig8).

Only functions that are public at the first benchmarked commit are called,
so the same file measures any later commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gridfreq import (
    Disturbance,
    Droop,
    IDroop,
    Scenario,
    SimOptions,
    SweepSpec,
    VirtualInertia,
    capacity_curve,
    gb_reference_params,
    pu_disturbance,
    sweep,
    vi_min_retune,
)
from gridfreq import cli

WORKLOADS = ("sweep-linear", "export-scenarios", "capacity-long")

SWEEP_POINTS = 48  # four sweep shapes, 12 points each
EXPORT_CALLS = 40  # five cycles of SCENARIO_CYCLE
CAPACITY_CALLS = 12  # four per strategy

SWEEP_SHAPES = ("vi_mv", "vi_alpha_retune", "droop_alpha", "idroop_tau")
CAPACITY_STRATEGIES = ("droop", "vi_min", "idroop_tuned")
# One cycle of eight export calls.  The 5 s equilibrium run is ~6x faster and
# the no-storage run ~15% faster than the other two; with equal shares the
# median op would sit exactly on the edge between two of these clusters and
# jump between them from run to run.  With these shares the median and p75
# both fall inside the lag-droop/dead-band cluster.
SCENARIO_CYCLE = (
    "gb-idroop.scn",
    "gb-vi-deadband.scn",
    "gb-nostorage.scn",
    "gb-idroop.scn",
    "gb-vi-deadband.scn",
    "gb-equilibrium.scn",
    "gb-idroop.scn",
    "gb-vi-deadband.scn",
)

# fig8's design disturbance and target range; the upper end sizes alpha_b to 0.
CAPACITY_DELTA_P_GW = 1.8
CAPACITY_TARGETS = (1.875e-3, 3.75e-3)

TRANSIENT = SimOptions(dt=1e-3, horizon=30.0, freeze_secondary=True)


@dataclass
class Op:
    """One timed call: ``layer`` names the span the benchmark puts around it."""

    kind: str
    layer: str
    fn: Callable[..., Any]
    args: tuple
    info: dict = field(default_factory=dict)


def _grid(rng: np.random.Generator):
    """GB reference set with inertia and turbine drawn from the seed."""
    return gb_reference_params(
        inertia_h=float(rng.uniform(1.5, 5.0)),
        turbine_tau=float(rng.uniform(0.5, 2.0)),
    )


def _sweep_op(rng: np.random.Generator, shape: str) -> Op:
    grid = _grid(rng)
    delta_p = pu_disturbance(float(rng.uniform(0.6, 3.0)), grid)
    dist = Disturbance(step_pu=delta_p)
    retune = None
    if shape == "vi_mv":
        base = Scenario(grid, VirtualInertia(m_v=0.0, alpha_b=float(rng.uniform(0.0, 15.0))), dist, TRANSIENT)
        parameter, value = "controller.m_v", float(rng.uniform(0.0, 150.0))
    elif shape == "vi_alpha_retune":
        base = Scenario(grid, VirtualInertia(m_v=0.0, alpha_b=0.0), dist, TRANSIENT)
        parameter, value = "controller.alpha_b", float(rng.uniform(0.0, 15.0))
        retune = vi_min_retune
    elif shape == "droop_alpha":
        base = Scenario(grid, Droop(alpha_b=0.0), dist, TRANSIENT)
        parameter, value = "controller.alpha_b", float(rng.uniform(0.0, 15.0))
    else:  # idroop_tau: lag tuned for the drawn turbine, then the turbine moves
        controller = IDroop.nadir_tuned(grid, float(rng.uniform(0.0, 15.0)))
        base = Scenario(grid, controller, dist, TRANSIENT)
        parameter, value = "grid.turbine_tau", float(rng.uniform(0.25, 3.0))
    spec = SweepSpec(base=base, parameter=parameter, values=[value], retune=retune)
    return Op(kind=shape, layer="sweeps", fn=sweep, args=(spec,), info={"spec": spec})


def _export_op(rng: np.random.Generator, scenario_path: Path, out_csv: Path) -> Op:
    step_gw = float(rng.uniform(0.6, 3.0))
    argv = ["simulate", str(scenario_path), "--out", str(out_csv), "--step-gw", repr(step_gw)]
    return Op(
        kind=scenario_path.stem,
        layer="cli",
        fn=cli.main,
        args=(argv,),
        info={"scenario_path": scenario_path, "step_gw": step_gw, "out": out_csv},
    )


def _capacity_op(rng: np.random.Generator, strategy: str) -> Op:
    grid = gb_reference_params()
    delta_p = pu_disturbance(CAPACITY_DELTA_P_GW, grid)
    target = float(rng.uniform(*CAPACITY_TARGETS))
    return Op(
        kind=strategy,
        layer="sweeps",
        fn=capacity_curve,
        args=(grid, strategy, [target], delta_p),
        info={"grid": grid, "strategy": strategy, "target": target, "delta_p": delta_p},
    )


def build(workload: str, seed: int, scenario_dir: Path, out_dir: Path) -> list[Op]:
    """The pass of ``workload`` for ``seed``: same seed, same operations."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep-linear":
        return [_sweep_op(rng, SWEEP_SHAPES[k % len(SWEEP_SHAPES)]) for k in range(SWEEP_POINTS)]
    if workload == "export-scenarios":
        out_csv = out_dir / "trajectory.csv"
        return [
            _export_op(rng, scenario_dir / SCENARIO_CYCLE[k % len(SCENARIO_CYCLE)], out_csv)
            for k in range(EXPORT_CALLS)
        ]
    if workload == "capacity-long":
        return [
            _capacity_op(rng, CAPACITY_STRATEGIES[k % len(CAPACITY_STRATEGIES)])
            for k in range(CAPACITY_CALLS)
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
