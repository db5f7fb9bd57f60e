"""Parameter sweeps and storage capacity curves.

A sweep re-simulates one scenario while stepping a single named parameter,
optionally re-tuning the controller at every point (for example keeping the
virtual inertia on the nadir-elimination boundary while the droop gain
varies).  Results are plot-ready tables, one row per swept value.

Capacity curves size the storage for a family of frequency-deviation caps:
for each target the droop gain comes from the steady-state rule, the rest
of the controller from the chosen strategy, the power requirement from a
frozen-secondary transient run, and the energy requirement from a long run
with the secondary loop active (the two quantities live on different
timescales, ~seconds versus ~minutes).  Each run is reduced to the one
maximum it is for, chunk by chunk, with no trajectory built.  The sampler's
pass samples only what it must, the states the next chunk starts from and
omega where a bound does not rule out divergence, and the reducer samples
the one row it reads, p_b or e_b, from each chunk the pass records.  A sweep
point reads its metrics' rows from the trajectory's record the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Optional, Sequence, TextIO

from .controllers import Droop, IDroop, VirtualInertia
from .model import Disturbance, GridParams, Scenario, SimOptions
from .simulate import METRIC_FIELDS, IntegrationError, Metrics, _storage_maxima, extract_metrics, simulate
from .tuning import design_droop_from_target, mv_min_exact

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "CapacityPoint",
    "sweep",
    "capacity_curve",
    "write_sweep_csv",
    "vi_min_retune",
]

# Long-horizon energy runs follow the secondary loop's slow mode, time
# constant (alpha_l + alpha_g + alpha_b)/k_i = 320..620 s on the GB grid, so
# 1200 s stops short of the asymptotic stored energy (see capacity_curve).
# 10 ms samples resolve that mode; on the exact path the step size adds no
# integration error, only the sample count.
ENERGY_RUN_DT = 1e-2
ENERGY_RUN_HORIZON = 1200.0
# Transient runs (sweeps, figures, the power half of capacity curves): 30 s
# resolves the nadir and the turbine response with the secondary frozen.
TRANSIENT_OPTIONS = SimOptions(dt=1e-3, horizon=30.0, freeze_secondary=True, exact=True)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over a base scenario.

    parameter  dotted path into the scenario, e.g. "controller.m_v",
               "controller.alpha_b", "grid.turbine_tau", "disturbance.step_pu"
    values     swept values, simulated in the given order
    retune     optional rule applied after the value is set, returning the
               scenario actually simulated (e.g. :func:`vi_min_retune`)
    """

    base: Scenario
    parameter: str
    values: Sequence[float]
    retune: Optional[Callable[[Scenario], Scenario]] = None

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")
        section, _, field_name = self.parameter.partition(".")
        if section not in ("grid", "controller", "disturbance", "sim") or not field_name:
            raise ValueError(f"bad parameter path {self.parameter!r}")


@dataclass(frozen=True)
class SweepPoint:
    value: float
    metrics: Optional[Metrics]
    error: Optional[str] = None


def _with_value(scenario: Scenario, parameter: str, value: float) -> Scenario:
    section, _, field_name = parameter.partition(".")
    target = getattr(scenario, section)
    if field_name not in {f.name for f in fields(target)}:
        raise ValueError(f"{type(target).__name__} has no field {field_name!r}")
    return replace(scenario, **{section: replace(target, **{field_name: value})})


def _vi_min(params: GridParams, alpha_b: float) -> VirtualInertia:
    return VirtualInertia(m_v=max(0.0, mv_min_exact(params, alpha_b)), alpha_b=alpha_b)


def vi_min_retune(scenario: Scenario) -> Scenario:
    """Keep the virtual inertia pinned to the nadir-elimination boundary."""
    return replace(scenario, controller=_vi_min(scenario.grid, scenario.controller.alpha_b))


def sweep(spec: SweepSpec) -> list[SweepPoint]:
    """Simulate and extract metrics at every swept value, in input order.

    A per-point integration failure is recorded in its row and the sweep
    continues.
    """
    points: list[SweepPoint] = []
    for value in spec.values:
        scenario = _with_value(spec.base, spec.parameter, value)
        if spec.retune is not None:
            scenario = spec.retune(scenario)
        try:
            metrics = extract_metrics(simulate(scenario))
        except IntegrationError as exc:
            points.append(SweepPoint(value=value, metrics=None, error=str(exc)))
            continue
        points.append(SweepPoint(value=value, metrics=metrics))
    return points


def write_sweep_csv(points: Iterable[SweepPoint], stream: TextIO, value_name: str = "value") -> None:
    """Plot-ready CSV: swept value first, then every metrics field, then error."""
    stream.write(value_name + "," + ",".join(METRIC_FIELDS) + ",error\n")
    for pt in points:
        if pt.metrics is None:
            cells = [""] * len(METRIC_FIELDS)
        else:
            cells = []
            for name in METRIC_FIELDS:
                v = getattr(pt.metrics, name)
                cells.append(str(v).lower() if isinstance(v, bool) else f"{v:.12g}")
        stream.write(f"{pt.value:.12g}," + ",".join(cells) + f",{pt.error or ''}\n")


@dataclass(frozen=True)
class CapacityPoint:
    """Storage requirement at one frequency-deviation target."""

    delta_omega: float
    alpha_b: float
    p_b_max_norm: float
    e_b_max_norm: float
    feasible: bool


# controller factory of each capacity strategy, called with (params, alpha_b)
_CAPACITY_CONTROLLERS = {
    "droop": lambda params, alpha_b: Droop(alpha_b=alpha_b),
    "vi_min": _vi_min,
    "idroop_tuned": IDroop.nadir_tuned,
}


def capacity_curve(
    params: GridParams,
    strategy: str,
    delta_omega_grid: Sequence[float],
    delta_p: float,
) -> list[CapacityPoint]:
    """Power and energy requirements versus the deviation cap |delta_omega| [pu].

    Per target: the droop gain from the steady-state sizing rule (clamped
    at zero, so curves flatten where the generators already meet the cap),
    the controller completed per ``strategy``, p_b,max from a 30 s
    frozen-secondary run, e_b,max from a 1200 s run with the secondary loop
    active.  Each run keeps one maximum, reduced chunk by chunk in one window
    of the sampler: the pass samples only what it must, and the one row the
    maximum reads is sampled from each recorded chunk.  No trajectory is
    built, and the maximum equals ``extract_metrics`` on the full trajectory
    bit for bit.  Raises ``ValueError`` where a run's loop coefficients are
    not finite.  The
    energy approaches its limit alpha_b/k_i along the secondary slow mode,
    tau_s = (alpha_l + alpha_g + alpha_b)/k_i, so the 1200 s run captures
    about 1 - e^(-1200/tau_s) of it: 86-97% on the GB grid (alpha_b in
    0..15, tau_s = 320..620 s).  A zero target is infeasible and is flagged
    rather than raised.
    """
    if strategy not in _CAPACITY_CONTROLLERS:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {tuple(_CAPACITY_CONTROLLERS)}")
    if params.secondary_gain_k_i <= 0:
        raise ValueError("capacity_curve needs secondary_gain_k_i > 0 for the energy run")
    points: list[CapacityPoint] = []
    for target in delta_omega_grid:
        if target == 0:
            points.append(
                CapacityPoint(
                    delta_omega=target,
                    alpha_b=float("nan"),
                    p_b_max_norm=float("nan"),
                    e_b_max_norm=float("nan"),
                    feasible=False,
                )
            )
            continue
        alpha_b = design_droop_from_target(delta_p, target, params.gen_inv_droop_alpha_g)
        controller = _CAPACITY_CONTROLLERS[strategy](params, alpha_b)
        disturbance = Disturbance(step_pu=delta_p)
        power_run = Scenario(
            grid=params,
            controller=controller,
            disturbance=disturbance,
            sim=TRANSIENT_OPTIONS,
        )
        energy_run = Scenario(
            grid=params,
            controller=controller,
            disturbance=disturbance,
            sim=SimOptions(dt=ENERGY_RUN_DT, horizon=ENERGY_RUN_HORIZON, exact=True),
        )
        points.append(
            CapacityPoint(
                delta_omega=target,
                alpha_b=alpha_b,
                p_b_max_norm=_storage_maxima(power_run, "p_b"),
                e_b_max_norm=_storage_maxima(energy_run, "e_b"),
                feasible=True,
            )
        )
    return points

