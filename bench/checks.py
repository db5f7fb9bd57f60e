"""Output checks of the benchmark, run outside the operation timers.

Every check compares an operation's output with something computed on a
separate path: the closed-form oracle in :mod:`gridfreq.lti`, a steady-state
formula, or the operation's own second output (CSV against metrics file).
A check returns the list of its failures; an empty list passes.

Tolerances: the simulator must agree with the oracle to 1e-6 pu on omega,
as the project requires.  Capacity values are normalized by the disturbance
and are held to 1e-6 of that unit.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gridfreq import (
    Droop,
    IDroop,
    VirtualInertia,
    closed_loop_tf,
    load_scenario,
    nadir_of_response,
    pu_disturbance,
    simulate,
    step_response,
    vi_nadir_condition,
)
from gridfreq.simulate import MONOTONE_TOL, TRAJECTORY_CSV_HEADER

from workloads import TRANSIENT, Op

TOL_PU = 1e-6  # simulator vs oracle, omega [pu]
TOL_NORM = 1e-6  # normalized capacity values
TOL_TEXT = 1e-10  # values that only went through 12-digit text formatting
VERDICT_SLACK = 1e-6  # |margin| <= slack * sigma: boundary point, verdict skipped


def swept_scenario(spec):
    """The scenario a one-value sweep simulates, rebuilt from its spec."""
    section, _, name = spec.parameter.partition(".")
    scenario = replace(spec.base, **{section: replace(getattr(spec.base, section), **{name: spec.values[0]})})
    return spec.retune(scenario) if spec.retune is not None else scenario


class OracleStats:
    """Accuracy counters filled by the checks."""

    def __init__(self) -> None:
        self.max_abs_err_pu = 0.0
        self.verdicts_checked = 0
        self.verdicts_agree = 0


def _plain_call(_name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class Checker:
    """Checks one operation's output; ``call`` lets a tracer time oracle calls."""

    def __init__(self, stats: OracleStats, call: Callable[..., Any] = _plain_call) -> None:
        self.stats = stats
        self.call = call

    def _oracle_omega(self, grid, controller, delta_p: float, t: np.ndarray):
        """Exact omega on ``t``, or None when the loop is of order > 2."""
        lti = self.call("lti", closed_loop_tf, grid, controller)
        if lti.order > 2:
            return lti, None
        return lti, self.call("lti", step_response, lti, delta_p, t)

    def _compare(self, omega: np.ndarray, ref: np.ndarray, what: str) -> list[str]:
        err = float(np.max(np.abs(omega - ref)))
        self.stats.max_abs_err_pu = max(self.stats.max_abs_err_pu, err)
        return [f"{what}: |omega - oracle| = {err:.3e} pu > {TOL_PU:g}"] if err > TOL_PU else []

    # ------------------------------------------------------------ sweep-linear

    def sweep(self, op: Op, result, captured: list) -> list[str]:
        spec = op.info["spec"]
        if len(result) != 1 or result[0].metrics is None or result[0].error:
            return [f"sweep point failed: {result!r}"]
        point = result[0]
        metrics = point.metrics
        fails = []
        if point.value != spec.values[0]:
            fails.append(f"value {point.value!r} != requested {spec.values[0]!r}")

        scenario = swept_scenario(spec)
        traj = captured[-1] if captured else simulate(scenario)
        fails += self.sweep_trajectory(scenario, traj.t, traj.omega, metrics)
        return fails

    def sweep_trajectory(self, scenario, t: np.ndarray, omega: np.ndarray, metrics) -> list[str]:
        grid, ctrl = scenario.grid, scenario.controller
        delta_p = scenario.disturbance.step_pu
        sigma = grid.load_damping_alpha_l + grid.gen_inv_droop_alpha_g + ctrl.alpha_b
        lti, ref = self._oracle_omega(grid, ctrl, delta_p, t)
        fails = []
        if ref is None:
            # third-order lag droop: only the DC gain has a closed form here
            final = -delta_p / sigma
            if abs(metrics.steady_state_deviation - final) > TOL_PU:
                fails.append(f"final {metrics.steady_state_deviation:.9g} != -dp/sigma {final:.9g}")
            return fails
        fails += self._compare(omega, ref, type(ctrl).__name__)
        if abs(metrics.nadir_deviation - float(np.min(ref))) > TOL_PU:
            fails.append(f"nadir {metrics.nadir_deviation:.9g} != oracle {float(np.min(ref)):.9g}")
        if abs(metrics.steady_state_deviation - float(ref[-1])) > TOL_PU:
            fails.append(f"final {metrics.steady_state_deviation:.9g} != oracle {float(ref[-1]):.9g}")
        if not isinstance(ctrl, IDroop):
            m_v = ctrl.m_v if isinstance(ctrl, VirtualInertia) else 0.0
            margin = vi_nadir_condition(grid, ctrl.alpha_b, m_v).margin
            if abs(margin) > VERDICT_SLACK * sigma:
                fails += self._verdict(lti, delta_p, t, ref, metrics.monotone)
        return fails

    def _verdict(self, lti, delta_p: float, t: np.ndarray, ref: np.ndarray, monotone: bool) -> list[str]:
        """Compare the monotone flag with the oracle's nadir, as the flag defines it.

        The flag means "no recovery above the running minimum by more than
        MONOTONE_TOL within the horizon", so an oracle nadir later than the
        horizon, or one whose recovery stays within the tolerance, counts as
        monotone.  Recoveries within 1e-9 pu of the tolerance are skipped.
        Every generated disturbance is positive, so the nadir is a minimum.
        """
        nadir = self.call("lti", nadir_of_response, lti, delta_p)
        rise = 0.0
        if nadir is not None and nadir.time <= t[-1]:
            rise = float(np.max(ref[t >= nadir.time], initial=nadir.omega)) - nadir.omega
        if abs(rise - MONOTONE_TOL) <= 1e-9:
            return []
        self.stats.verdicts_checked += 1
        oracle_monotone = rise <= MONOTONE_TOL
        if oracle_monotone != monotone:
            return [f"monotone={monotone} but the oracle recovers {rise:.3e} pu after its nadir"]
        self.stats.verdicts_agree += 1
        return []

    # -------------------------------------------------------- export-scenarios

    def export(self, op: Op, rc: int) -> list[str]:
        if rc != 0:
            return [f"cli exit code {rc}"]
        out: Path = op.info["out"]
        with out.open() as stream:
            header = stream.readline().rstrip("\n")
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        summary = {}
        for line in out.with_suffix(".metrics.txt").read_text().splitlines():
            key, _, value = line.partition(" = ")
            summary[key] = value
        return self.export_output(op, header, rows, summary)

    def export_output(self, op: Op, header: str, rows: np.ndarray, summary: dict) -> list[str]:
        base = load_scenario(op.info["scenario_path"])
        grid, ctrl, sim = base.grid, base.controller, base.sim
        delta_p = pu_disturbance(op.info["step_gw"], grid)
        n = int(round(sim.horizon / sim.dt)) + 1
        if header != TRAJECTORY_CSV_HEADER:
            return [f"CSV header {header!r}"]
        if rows.shape != (n, 7):
            return [f"CSV shape {rows.shape}, expected ({n}, 7)"]
        t, omega, omega_hz = rows[:, 0], rows[:, 1], rows[:, 2]
        fails = []
        if np.max(np.abs(t - np.arange(n) * sim.dt)) > TOL_TEXT * max(1.0, sim.horizon):
            fails.append("time column is not the dt grid")
        if np.max(np.abs(omega_hz - omega * grid.nominal_freq)) > TOL_TEXT * grid.nominal_freq:
            fails.append("omega_hz column != omega_pu * nominal_freq")
        for key, value in (("nadir_deviation_pu", np.min(omega)), ("steady_state_deviation_pu", omega[-1])):
            if abs(float(summary.get(key, "nan")) - value) > TOL_TEXT:
                fails.append(f"metrics file {key} = {summary.get(key)} but CSV gives {value:.12g}")

        sigma = grid.load_damping_alpha_l + grid.gen_inv_droop_alpha_g + ctrl.alpha_b
        if grid.deadband_omega_db > 0:
            final = -(delta_p + grid.gen_inv_droop_alpha_g * grid.deadband_omega_db) / sigma
            if abs(omega[-1] - final) > TOL_PU:
                fails.append(f"dead-band final {omega[-1]:.9g} != {final:.9g}")
        elif sim.freeze_secondary:
            _lti, ref = self._oracle_omega(grid, ctrl, delta_p, t)
            if ref is not None:
                fails += self._compare(omega, ref, op.kind)
        return fails

    # ----------------------------------------------------------- capacity-long

    def capacity(self, op: Op, result) -> list[str]:
        if len(result) != 1 or not result[0].feasible:
            return [f"capacity point failed: {result!r}"]
        return self.capacity_point(op, result[0].alpha_b, result[0].p_b_max_norm, result[0].e_b_max_norm)

    def capacity_point(self, op: Op, alpha_b: float, p_b_max_norm: float, e_b_max_norm: float) -> list[str]:
        grid, delta_p = op.info["grid"], op.info["delta_p"]
        expected_alpha = max(0.0, abs(delta_p / op.info["target"]) - grid.gen_inv_droop_alpha_g)
        fails = []
        if abs(alpha_b - expected_alpha) > 1e-9 * max(1.0, expected_alpha):
            fails.append(f"alpha_b {alpha_b!r} != {expected_alpha!r}")
        if op.kind == "droop":
            e_limit = expected_alpha / grid.secondary_gain_k_i
            if not 0.0 < e_b_max_norm <= e_limit:
                fails.append(f"e_b_max_norm {e_b_max_norm:.9g} outside (0, alpha_b/k_i = {e_limit:.9g}]")
            t = np.arange(int(round(TRANSIENT.horizon / TRANSIENT.dt)) + 1) * TRANSIENT.dt
            _lti, ref = self._oracle_omega(grid, Droop(alpha_b=expected_alpha), delta_p, t)
            p_b_ref = float(np.max(-expected_alpha * ref)) / delta_p
            if abs(p_b_max_norm - p_b_ref) > TOL_NORM:
                fails.append(f"p_b_max_norm {p_b_max_norm:.9g} != oracle {p_b_ref:.9g}")
        elif not e_b_max_norm > 0.0:
            fails.append(f"e_b_max_norm {e_b_max_norm!r} <= 0")
        return fails
