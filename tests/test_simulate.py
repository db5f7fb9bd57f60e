"""Simulator: integration fidelity, metrics, dead-band, CSV export.

Covers:
 - exact equilibrium preservation for a zero disturbance
 - the first-order response of the turbine-cancelling lag droop
 - inertia comparison (lower H digs a deeper nadir)
 - initial RoCoF values against the hand formulas delta_p/(2H+m_v)
 - oracle equivalence (<= 1e-6 pu) across all linear reference scenarios
 - energy bookkeeping: trapezoid of p_b vs the integrated e_b state
 - RK4 order check: halving dt barely moves the nadir
 - final values with and without secondary control
 - governor dead-band: branch values, deeper quasi-steady state, preserved
   monotonicity of the nadir-free tunings
 - divergence reporting, CSV layout (pre-step rows are unsigned zeros for
   every law), settling time, trajectory arrays as the contiguous rows of
   one block, which is not zero-filled: the columns before the step, or of
   a run with nothing sampled, are +0.0 in memory that held NaNs; the time
   column, no row of it, built as k dt on its first read
 - extract_metrics by reductions against a test-local copy of the running
   extreme, last-index and max |v| formulas, every field by ``hex``, at four
   tolerances: seeded random grids, every law, both step signs, a delayed
   step, a zero step, the dead-band runs, and hand-built trajectories (a
   rise before the extreme, ties, a run that never settles, +-0.0)
 - CSV cells byte for byte as Python's "%.12g" prints them, on edge values,
   time grids, random values over 600 decades, near-ties, multiples of a
   round step and cells 1e-9 to 1e-3 off a tie, and whole trajectories
   against a per-row "%" writer; at most 100 cells of a bundled run left
   to "%"; the writer's working memory
 - the exact (matrix-exponential) path: the oracle to 1e-9 pu, RK4 on the
   1200 s capacity runs, independence of the step, RK4 unchanged with a
   dead-band, zero disturbance, step snapping and divergence as in RK4
 - power tables filled in place equal the batched doubling bit for bit
 - linear RK4 through powers of its step matrix: the scalar RK4 loop to
   rounding, also for runs and steps at the edges of a block or a chunk,
   fourth order against the exact path, the scalar loop's divergence times,
   and a nadir time that does not depend on the method
 - dead-band RK4 region by region: the rows that read RK4's stage omegas,
   the scalar RK4 loop to rounding over every law, both step signs, an
   off-grid step, the secondary loop and 18 band crossings, and the scalar
   loop's divergence times
 - the chunk plan: a linear run takes two chunks, the 30 s and the 1200 s
   runs on both paths; a dead-band run starts at one block, doubles, and
   starts again at one block after each band crossing
 - capacity maxima reduced in one window of the sampler, each from only the
   state rows it reads: extract_metrics on the full trajectory bit for bit,
   over fig8's runs, dead-band runs, both step signs, steps at 0, later, at
   or after the horizon, a zero step, the divergence times and 20 seeded
   random grids; a window that reused freed NaN memory; k_on as
   np.searchsorted finds it
 - omega in capacity runs: unsampled (NaN in a NaN-filled window) but where
   the next chunk starts; the per-block bound above every |omega| of
   simulate's blocks on the random grids; a divergence limit patched so
   that the bound fails, where omega is sampled and scanned, passing or
   raising as simulate does
 - the exact step's shortened series equal to the series to order 18 by
   bytes, on fig8's steps and seeded random loops from 10 us to 2 s
 - the outputs p_b and omega_dot, sampled from the same tables as the
   states, against A's output rows applied to the sampled states, with +0.0
   at and before the step; those rows read theta and e_b only by exact +0.0
   coefficients
 - a run stepped once: no row read by simulate, and every row sampled on its
   first read from the recorded chunks, byte for byte the sampler asked for
   all seven rows, in either read order, with no second pass; a trajectory
   equal only to itself
"""

import io
import math
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gridfreq import (
    Disturbance,
    Droop,
    IDroop,
    IntegrationError,
    NoStorage,
    Scenario,
    SimOptions,
    Trajectory,
    VirtualInertia,
    closed_loop_tf,
    deadband_response,
    extract_metrics,
    gb_reference_params,
    load_scenario,
    pu_disturbance,
    simulate,
    step_response,
    steady_state_deviation,
    write_trajectory_csv,
)
from gridfreq.simulate import (
    METRIC_FIELDS,
    TRAJECTORY_CSV_HEADER,
    _assemble,
    _expm1,
    _most_blocks,
    _plan,
    _powers,
    _rk4_step1,
    _round12,
    _sample_rows,
    _sample_runs,
    _sample_table,
    _stage_rows,
    _storage_maxima,
    write_csv_rows,
)
from gridfreq.sweeps import ENERGY_RUN_DT, ENERGY_RUN_HORIZON, TRANSIENT_OPTIONS, _CAPACITY_CONTROLLERS, capacity_curve
from gridfreq.tuning import design_droop_from_target, mv_min_exact

GB = gb_reference_params()
DP = 0.05625
MV_MIN = 57.603866769659334
FROZEN = SimOptions(dt=1e-3, horizon=30.0, freeze_secondary=True)
EXACT = replace(FROZEN, exact=True)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _both_paths(sim):
    """``sim`` on RK4 and on the exact path."""
    return replace(sim, exact=False), replace(sim, exact=True)


def _scenario(controller, grid=GB, step=DP, sim=FROZEN):
    return Scenario(grid=grid, controller=controller, disturbance=Disturbance(step_pu=step), sim=sim)


# --------------------------------------------------------------- dead-band


def test_deadband_branch_values():
    assert deadband_response(-0.0006, 0.0006, 15.0) == 0.0  # boundary, continuous
    assert deadband_response(-0.003, 0.0006, 15.0) == pytest.approx(0.036, rel=1e-12)
    assert deadband_response(0.0003, 0.0006, 15.0) == 0.0
    assert deadband_response(0.003, 0.0006, 15.0) == pytest.approx(-0.036, rel=1e-12)
    # no dead-band reduces exactly to plain droop
    assert deadband_response(-0.003, 0.0, 15.0) == pytest.approx(0.045, rel=1e-15)
    with pytest.raises(ValueError):
        deadband_response(0.0, -1e-4, 15.0)


# -------------------------------------------------------------- equilibrium


def test_zero_disturbance_stays_exactly_zero():
    for sim in _both_paths(SimOptions(horizon=5.0)):
        traj = simulate(_scenario(NoStorage(), step=0.0, sim=sim))
        for arr in (traj.theta, traj.omega, traj.p_m, traj.e_b, traj.x_c, traj.p_b, traj.omega_dot):
            assert np.all(arr == 0.0)
        m = extract_metrics(traj)
        assert m.monotone and m.zero_disturbance
        assert m.p_b_max_norm == 0.0 and m.e_b_max_norm == 0.0


def test_pre_step_samples_are_zero():
    sc = Scenario(
        grid=GB,
        controller=NoStorage(),
        disturbance=Disturbance(step_pu=DP, step_time=1.0),
        sim=FROZEN,
    )
    traj = simulate(sc)
    before = traj.t < 1.0
    assert np.all(traj.omega[before] == 0.0)
    m = extract_metrics(traj)
    assert m.rocof_initial == pytest.approx(-DP / (2 * GB.inertia_h), rel=1e-12)


@pytest.mark.parametrize("step, step_time", [(DP, 12.3456), (0.0, 12.3456), (DP, 40.0)], ids=["mid-run", "zero", "after-horizon"])
def test_pre_step_columns_are_zero_on_a_dirty_heap(step, step_time):
    """The block is not zero-filled, yet every state and output before the step, or of
    the whole run when nothing is sampled, is +0.0 when the memory it reuses held NaNs:
    a run of the same size lets the allocator keep such a block on its heap, and a NaN
    block is freed just before the run."""
    sc = Scenario(GB, IDroop(nu=10.0, tau_i=1.0, alpha_b=3.0), Disturbance(step_pu=step, step_time=step_time), FROZEN)
    _, n, k_on = _plan(sc)
    simulate(sc)
    dirty = np.full((7, n + 256), np.nan)
    del dirty
    block = simulate(sc).theta.base
    zero = block[:, : k_on if step and k_on <= n else n + 1]
    assert zero.shape[1] == (12346 if step and step_time < FROZEN.horizon else n + 1)
    assert np.all(zero == 0.0) and not np.any(np.signbit(zero))


# -------------------------------------------------------- tuned first order


def test_tuned_idroop_first_order_response():
    """omega(t) = -(dp/16)(1 - exp(-t/0.27375)), error <= 1e-4 pu."""
    traj = simulate(_scenario(IDroop.nadir_tuned(GB, 0.0)))
    tau_cl = 2 * GB.inertia_h / 16.0
    assert tau_cl == pytest.approx(0.27375, rel=1e-12)
    ref = -(DP / 16.0) * (1.0 - np.exp(-traj.t / tau_cl))
    err = np.max(np.abs(traj.omega - ref))
    print(f"\n  tuned lag droop vs first-order form: max err {err:.3e} pu")
    assert err <= 1e-4
    m = extract_metrics(traj)
    assert m.monotone
    assert m.nadir_deviation == pytest.approx(-3.515625e-3, rel=1e-4)
    assert m.nadir_deviation == pytest.approx(m.steady_state_deviation, rel=1e-6)


def test_lower_inertia_digs_deeper():
    low = extract_metrics(simulate(_scenario(NoStorage(), grid=gb_reference_params(inertia_h=2.19))))
    high = extract_metrics(simulate(_scenario(NoStorage(), grid=gb_reference_params(inertia_h=4.06))))
    assert not low.monotone and not high.monotone
    assert low.nadir_deviation < high.nadir_deviation < 0
    print(
        f"\n  nadir at H=2.19: {low.nadir_deviation:.5e}, at H=4.06: {high.nadir_deviation:.5e}"
    )


# -------------------------------------------------------------------- RoCoF


def test_initial_rocof_values():
    m0 = extract_metrics(simulate(_scenario(NoStorage())))
    assert m0.rocof_initial == pytest.approx(-DP / 4.38, rel=1e-12)
    assert m0.rocof_initial * 60 == pytest.approx(-0.77055, rel=1e-3)

    m_vi = extract_metrics(simulate(_scenario(VirtualInertia(m_v=MV_MIN, alpha_b=0.0))))
    assert m_vi.rocof_initial == pytest.approx(-DP / (4.38 + MV_MIN), rel=1e-12)

    m_id = extract_metrics(simulate(_scenario(IDroop.nadir_tuned(GB, 0.0))))
    assert abs(m_id.rocof_initial) > abs(m_vi.rocof_initial)


# -------------------------------------------------------- oracle equivalence


@pytest.mark.parametrize(
    "controller",
    [
        NoStorage(),
        Droop(alpha_b=1.875),
        VirtualInertia(m_v=MV_MIN, alpha_b=0.0),
        VirtualInertia(m_v=100.0, alpha_b=5.0),
        IDroop.nadir_tuned(gb_reference_params(), 0.0),
        IDroop.nadir_tuned(gb_reference_params(), 15.0),
        IDroop(nu=10.0, tau_i=1.0, alpha_b=0.0),
    ],
    ids=lambda c: type(c).__name__ + f"_ab{getattr(c, 'alpha_b', 0)}",
)
def test_rk4_matches_oracle(controller):
    """Simulated omega(t) tracks the closed-form response to <= 1e-6 pu."""
    traj = simulate(_scenario(controller))
    lti = closed_loop_tf(GB, controller)
    ref = step_response(lti, DP, traj.t)
    err = np.max(np.abs(traj.omega - ref))
    print(f"\n  {lti.label}: max |sim - oracle| = {err:.3e} pu")
    assert err <= 1e-6


@pytest.mark.parametrize(
    "controller",
    [NoStorage(), Droop(alpha_b=1.875), VirtualInertia(m_v=100.0, alpha_b=5.0), VirtualInertia(m_v=MV_MIN, alpha_b=0.0)],
    ids=["nostorage", "droop", "vi", "vi_boundary"],
)
def test_exact_matches_oracle(controller):
    """The exact path samples the order <= 2 closed forms to <= 1e-9 pu."""
    traj = simulate(_scenario(controller, sim=EXACT))
    ref = step_response(closed_loop_tf(GB, controller), DP, traj.t)
    err = np.max(np.abs(traj.omega - ref))
    print(f"\n  exact path: max |sim - oracle| = {err:.3e} pu")
    assert err <= 1e-9


@pytest.mark.parametrize(
    "controller",
    [Droop(alpha_b=5.0), VirtualInertia(m_v=mv_min_exact(GB, 5.0), alpha_b=5.0), IDroop.nadir_tuned(GB, 5.0)],
    ids=["droop", "vi_min", "idroop_tuned"],
)
def test_exact_matches_rk4_on_energy_runs(controller):
    """1200 s at 10 ms with the secondary loop active: the capacity-curve energy run.

    The differences are RK4's truncation error; at alpha_b = 15 the lag
    droop's fast start moves its e_b by ~1.2e-8 s (normalized) at this step.
    """
    rk4, exact = (simulate(_scenario(controller, sim=sim)) for sim in _both_paths(SimOptions(dt=1e-2, horizon=1200.0)))
    d_omega = np.max(np.abs(exact.omega - rk4.omega))
    d_e_b = np.max(np.abs(exact.e_b - rk4.e_b)) / DP
    print(f"\n  max |d omega| = {d_omega:.2e} pu, max |d e_b|/dp = {d_e_b:.2e} s")
    assert d_omega <= 1e-9
    assert d_e_b <= 1e-8


def test_exact_does_not_depend_on_step():
    """The exact path has no step error to shrink: 10 ms and 2 ms samples of the
    1200 s energy runs agree to rounding, with no drift over 600 000 steps."""
    for controller in (Droop(alpha_b=15.0), VirtualInertia(m_v=mv_min_exact(GB, 15.0), alpha_b=15.0), IDroop.nadir_tuned(GB, 15.0)):
        coarse, fine = (
            simulate(_scenario(controller, sim=SimOptions(dt=dt, horizon=1200.0, exact=True))) for dt in (1e-2, 2e-3)
        )
        d_e_b = np.max(np.abs(coarse.e_b - fine.e_b[::5])) / DP
        print(f"\n  {type(controller).__name__}: max |d e_b|/dp = {d_e_b:.2e} s")
        assert np.max(np.abs(coarse.omega - fine.omega[::5])) <= 1e-15
        assert d_e_b <= 1e-11


def test_exact_flag_runs_rk4_with_deadband():
    """The dead-band makes the loop nonlinear; the flag then leaves RK4 in charge."""
    grid_db = gb_reference_params(deadband_omega_db=0.0006)
    rk4, exact = (simulate(_scenario(VirtualInertia(m_v=MV_MIN), grid=grid_db, sim=sim)) for sim in _both_paths(FROZEN))
    for name in ("t", "theta", "omega", "p_m", "e_b", "x_c", "p_b", "omega_dot"):
        assert np.array_equal(getattr(exact, name), getattr(rk4, name)), name


def test_exact_off_grid_step_snaps_like_rk4():
    """A step_time between samples acts from the next sample on both paths."""
    sims = _both_paths(SimOptions(dt=1e-2, horizon=3.0, freeze_secondary=True))
    rk4, exact = (
        simulate(Scenario(GB, Droop(alpha_b=2.0), Disturbance(step_pu=DP, step_time=0.503), sim)) for sim in sims
    )
    for traj in (rk4, exact):
        assert np.all(traj.omega[:52] == 0.0) and np.all(traj.p_b[:51] == 0.0)
        assert traj.omega_dot[51] == pytest.approx(-DP / (2 * GB.inertia_h), rel=1e-12)
        assert traj.omega[52] < 0.0
    assert np.max(np.abs(exact.omega - rk4.omega)) <= 1e-9


def test_exact_divergence_reports_last_valid_time():
    """An unstable loop (secondary gain 50/s) fails on both paths, at nearly the same time."""
    grid = gb_reference_params(secondary_gain_k_i=50.0)
    times = []
    for sim in _both_paths(SimOptions(dt=1e-3, horizon=60.0)):
        with pytest.raises(IntegrationError) as excinfo:
            simulate(_scenario(NoStorage(), grid=grid, sim=sim))
        times.append(excinfo.value.last_valid_time)
    print(f"\n  last valid time: RK4 {times[0]:.3f} s, exact {times[1]:.3f} s")
    assert 0.0 < times[1] < 60.0
    assert times[1] == pytest.approx(times[0], abs=0.01)


# --------------------------------------------------- linear RK4 (step matrix)


def _scalar_rk4(sc):
    """RK4 over the module docstring's equations, one scalar step at a time, with the
    governor through ``deadband_response``: the reference for the sampled paths,
    independent of the simulator's matrices.  Returns the seven sampled arrays."""
    g = sc.grid
    m_v, nu, gain, tau_i = sc.controller.realization
    k_i = 0.0 if sc.sim.freeze_secondary else g.secondary_gain_k_i
    dt, n = sc.sim.dt, int(round(sc.sim.horizon / sc.sim.dt))
    d_p, t_on = sc.disturbance.step_pu, sc.disturbance.step_time
    out = np.empty((n + 1, 7))
    x = np.zeros(5)  # theta, omega, p_m, e_b, x_c

    def f(p_l, x):
        th, om, pm, _eb, xc = x
        p_s = xc - nu * om  # p_b without the inertia term
        om_dot = (pm - p_l - g.load_damping_alpha_l * om + p_s) / (2.0 * g.inertia_h + m_v)
        phi = deadband_response(om, g.deadband_omega_db, g.gen_inv_droop_alpha_g)
        return np.array([om, om_dot, (phi - pm - k_i * th) / g.turbine_tau, p_s - m_v * om_dot, (gain * om - xc) / tau_i])

    for k in range(n + 1):
        p_l = d_p if k * dt >= t_on else 0.0
        k1 = f(p_l, x)
        out[k] = (*x, k1[3], k1[1])
        if k == n:
            break
        k2 = f(p_l, x + 0.5 * dt * k1)
        k3 = f(p_l, x + 0.5 * dt * k2)
        k4 = f(p_l, x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return out.T


def _assert_matches_scalar_loop(sc):
    """All seven arrays within 1e-12 of each column's maximum."""
    traj = simulate(sc)
    for name, col in zip(("theta", "omega", "p_m", "e_b", "x_c", "p_b", "omega_dot"), _scalar_rk4(sc)):
        scale = np.max(np.abs(col))  # 0 for x_c of the laws without a lag
        assert np.max(np.abs(getattr(traj, name) - col)) <= 1e-12 * scale, name


LINEAR_LAWS = [NoStorage(), Droop(alpha_b=5.0), VirtualInertia(m_v=20.0, alpha_b=2.0), IDroop(nu=10.0, tau_i=1.0, alpha_b=3.0)]
LINEAR_IDS = ["nostorage", "droop", "vi", "idroop_off_tuned"]


@pytest.mark.parametrize("dt", [0.05, 0.01])
@pytest.mark.parametrize("controller", LINEAR_LAWS, ids=LINEAR_IDS)
def test_linear_rk4_matches_scalar_loop(controller, dt):
    """Without a dead-band RK4 runs as powers of its step matrix; the samples equal
    the scalar loop's to rounding, secondary loop active."""
    _assert_matches_scalar_loop(_scenario(controller, sim=SimOptions(dt=dt, horizon=200.0)))


@pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "secondary"])
@pytest.mark.parametrize("controller", LINEAR_LAWS, ids=LINEAR_IDS)
def test_rk4_matches_scalar_loop_across_chunk_edges(controller, freeze):
    """Runs ending on either side of a block edge (256 steps a block), runs that end on
    the largest chunk's edge or cross it into a second chunk (1024 steps, 4 blocks; 1025
    and 1280, 4 + 1; 2049, 8 + 1), and steps on the last sample, between the last two
    and past the horizon (all zeros), equal the scalar loop's to rounding."""
    dt = 0.01
    for n in (1, 2, 255, 256, 257, 511, 769, 1024, 1025, 1280, 2049):
        _assert_matches_scalar_loop(_scenario(controller, sim=SimOptions(dt=dt, horizon=n * dt, freeze_secondary=freeze)))
    n = 257
    sim = SimOptions(dt=dt, horizon=n * dt, freeze_secondary=freeze)
    for step_time in (n * dt, (n - 0.5) * dt, (n + 1) * dt):
        _assert_matches_scalar_loop(Scenario(GB, controller, Disturbance(step_pu=DP, step_time=step_time), sim))


@pytest.mark.parametrize("controller", LINEAR_LAWS, ids=LINEAR_IDS)
def test_linear_rk4_is_fourth_order(controller):
    """Halving dt shrinks RK4's distance to the exact samples ~16x: the default
    path is still RK4, not the matrix exponential."""
    errs = []
    for dt in (0.05, 0.025):
        rk4, exact = (simulate(_scenario(controller, sim=sim)) for sim in _both_paths(SimOptions(dt=dt, horizon=30.0, freeze_secondary=True)))
        errs.append(np.max(np.abs(rk4.omega - exact.omega)))
    print(f"\n  max |omega - exact|: {errs[0]:.2e} -> {errs[1]:.2e} pu")
    assert 12.0 <= errs[0] / errs[1] <= 20.0


@pytest.mark.parametrize(
    "controller, dt, last_valid_time",
    [
        (IDroop.nadir_tuned(GB, 0.0), 2.0, 8.0),
        (NoStorage(), 2.0, 24.0),
        (VirtualInertia(m_v=0.0, alpha_b=5.0), 2.0, 18.0),
        (Droop(alpha_b=10.0), 2.0, 14.0),
        (IDroop.nadir_tuned(GB, 0.0), 1.0, 16.0),
        (IDroop.nadir_tuned(GB, 0.0), 0.8, 76.0),
        (Droop(alpha_b=10.0), 1.0, None),
        (VirtualInertia(m_v=0.0, alpha_b=5.0), 1.0, None),
        (NoStorage(), 1.0, None),
    ],
    ids=["idroop-2", "nostorage-2", "vi-2", "droop-2", "idroop-1", "idroop-0.8", "droop-1", "vi-1", "nostorage-1"],
)
def test_rk4_divergence_times(controller, dt, last_valid_time):
    """Outside RK4's stability region the step matrix fails where the scalar loop
    did (400 s, secondary frozen), and the overflow raises no numpy warning."""
    sc = _scenario(controller, sim=SimOptions(dt=dt, horizon=400.0, freeze_secondary=True))
    if last_valid_time is None:
        assert np.all(np.isfinite(simulate(sc).omega))
        return
    with pytest.raises(IntegrationError) as excinfo:
        simulate(sc)
    assert excinfo.value.last_valid_time == last_valid_time


def test_horizon_at_last_valid_time_does_not_raise():
    """A run that ends at its last valid time returns: the samples a chunk computes
    past the horizon are not checked for divergence."""
    for grid in (GB, GB_DB):
        sc = _scenario(IDroop.nadir_tuned(GB, 0.0), grid=grid, sim=SimOptions(dt=2.0, horizon=8.0, freeze_secondary=True))
        assert np.all(np.abs(simulate(sc).omega) < 1e6)


def test_nadir_time_does_not_depend_on_method():
    """Tuned lag droop settles to rounding; its nadir time is the first sample at the
    printed minimum, the same on RK4 and on the exact path."""
    for alpha_b in (0.0, 5.0, 15.0):
        for tau_t in (0.5, 1.0, 2.0):
            grid = gb_reference_params(turbine_tau=tau_t)
            rk4, exact = (
                extract_metrics(simulate(_scenario(IDroop.nadir_tuned(grid, alpha_b), grid=grid, sim=sim))).nadir_time
                for sim in _both_paths(FROZEN)
            )
            assert rk4 == pytest.approx(exact, abs=0.01), (alpha_b, tau_t)


# ------------------------------------------- dead-band RK4 (region by region)

GB_DB = gb_reference_params(deadband_omega_db=0.0006)  # +-36 mHz on 60 Hz
DEADBAND_LAWS = [
    NoStorage(),
    Droop(alpha_b=5.0),
    VirtualInertia(m_v=MV_MIN, alpha_b=0.0),
    IDroop.nadir_tuned(GB, 0.0),
    IDroop(nu=10.0, tau_i=1.0, alpha_b=3.0),
]
DEADBAND_CASES = {
    "frozen": (DP, 0.0, SimOptions(dt=1e-3, horizon=30.0, freeze_secondary=True)),
    "negative": (-DP, 0.0, SimOptions(dt=1e-3, horizon=30.0, freeze_secondary=True)),
    "off_grid_step": (DP, 0.503, SimOptions(dt=1e-2, horizon=30.0, freeze_secondary=True)),
    "secondary": (DP, 0.0, SimOptions(dt=1e-2, horizon=600.0)),
}


def test_stage_rows_give_rk4_stage_omegas():
    """The rows that screen a step's region read the omegas of RK4's four stages,
    each stage taken here as RK4 takes it, from the previous one.  A band crossing
    rarely tells the stages apart: the last one goes furthest."""
    rng = np.random.RandomState(2027)
    m = 0.3 * rng.normal(size=(6, 6))  # M dt
    m[5] = 0.0  # the held imbalance
    z = rng.normal(size=6)
    stage = [z]
    for h in (0.5, 0.5, 1.0):
        stage.append(z + h * (m @ stage[-1]))
    rows = _stage_rows(m)
    np.testing.assert_allclose(rows[:, :5] @ z[:5] + rows[:, 5] * z[5], [s[1] for s in stage], rtol=1e-14)


def test_power_tables_match_batched_doubling():
    """Each table of powers, filled in place with one stacked product per doubling,
    equals the batched doubling P_(i+k) = (P_i + P_k) + P_i P_k bit for bit: the step
    rows and start tables of every law, on RK4 and on the exact path, at every count a
    run uses (0 .. 255 starts, 256 step rows)."""
    for controller in (NoStorage(), Droop(alpha_b=5.0), VirtualInertia(m_v=MV_MIN, alpha_b=2.0), *DEADBAND_LAWS[3:]):
        a, _, _ = _plan(_scenario(controller, sim=SimOptions(dt=1e-3, horizon=30.0)))
        for step1 in (_rk4_step1, _expm1):
            steps = _powers(step1(a * 1e-3), 256)
            for p, count in ((step1(a * 1e-3), 256), *((steps[-1], c) for c in (0, 1, 2, 3, 63, 127, 255))):
                want = p[None]
                while len(want) < count:
                    want = np.concatenate([want, want + want[-1] + want @ want[-1]])
                got = _powers(p, count)
                assert got.shape == (count, 6, 6) and np.array_equal(got, want[:count]), (controller, count)


@pytest.mark.parametrize("case", DEADBAND_CASES)
@pytest.mark.parametrize("controller", DEADBAND_LAWS, ids=["nostorage", "droop", "vi", "idroop", "idroop_off_tuned"])
def test_deadband_rk4_matches_scalar_loop(controller, case):
    """With a dead-band RK4 runs region by region through each region's step matrix,
    with one scalar RK4 step at each band crossing; the samples equal the scalar
    loop's to rounding."""
    step, step_time, sim = DEADBAND_CASES[case]
    _assert_matches_scalar_loop(Scenario(GB_DB, controller, Disturbance(step_pu=step, step_time=step_time), sim))


def test_deadband_rk4_matches_scalar_loop_on_oscillation():
    """A fast secondary loop (k_i = 2/s) against plain droop swings omega across the
    band's edges 18 times in 60 s; the samples still equal the scalar loop's."""
    grid = gb_reference_params(deadband_omega_db=0.0006, secondary_gain_k_i=2.0)
    sc = _scenario(Droop(alpha_b=0.0), grid=grid, sim=SimOptions(dt=1e-3, horizon=60.0))
    omega = simulate(sc).omega
    region = (omega >= 0.0006).astype(int) - (omega <= -0.0006)
    assert np.count_nonzero(np.diff(region)) == 18
    _assert_matches_scalar_loop(sc)


def _run_lengths(sc):
    """The samples each run that ``_sample_runs`` yields for ``sc`` takes, a band
    crossing step included, in a trajectory's buffer; the steps of the whole run; and
    its largest chunk in steps."""
    a, n, k_on = _plan(sc)
    buf = np.empty((len(a) + 1, n - k_on + 256))
    return [run.shape[1] - 1 for run in _sample_runs(sc, a, k_on, n, buf, [])], n - k_on, _most_blocks(n - k_on) * 256


@pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "secondary"])
@pytest.mark.parametrize("sim", [FROZEN, SimOptions(dt=ENERGY_RUN_DT, horizon=ENERGY_RUN_HORIZON)], ids=["30s", "1200s"])
def test_linear_runs_take_two_chunk_products(sim, freeze):
    """Without a dead-band a run starts at the largest chunk, so the 30 s run at 1 ms
    (64 + 54 blocks) and the 1200 s run at 10 ms (256 + 213 blocks) each take two
    chunks, one product each, on RK4 and on the exact path."""
    for run_sim in _both_paths(replace(sim, freeze_secondary=freeze)):
        lengths, steps, most = _run_lengths(_scenario(IDroop.nadir_tuned(GB, 2.0), sim=run_sim))
        assert lengths == [most, steps - most], run_sim


@pytest.mark.parametrize("w_db, k_i, crossings", [(0.0006, 2.0, 18), (0.005, 0.05, 1)], ids=["oscillation", "late_crossing"])
def test_deadband_chunks_restart_at_one_block(w_db, k_i, crossings):
    """With a dead-band a run starts at one block and doubles up to the largest chunk,
    and after each band crossing, a run that stops short of its chunk, it starts again
    at one block: every run is at most the chunk this plan gives it, on the oscillation
    of 18 crossings in 60 s and on a 300 mHz band first crossed in the second block."""
    grid = gb_reference_params(deadband_omega_db=w_db, secondary_gain_k_i=k_i)
    lengths, steps, most = _run_lengths(_scenario(Droop(alpha_b=0.0), grid=grid, sim=SimOptions(dt=1e-3, horizon=60.0)))
    assert sum(lengths) == steps
    chunk, done, short = 256, 0, 0
    for length in lengths:
        planned = min(chunk, steps - done)
        assert length <= planned, (done, length, planned)
        if length == planned:
            chunk = min(2 * chunk, most)
        else:
            chunk, short = 256, short + 1
        done += length
    assert short >= crossings


@pytest.mark.parametrize(
    "controller, dt, last_valid_time",
    [
        (IDroop.nadir_tuned(GB, 0.0), 2.0, 8.0),
        (NoStorage(), 2.0, 24.0),
        (VirtualInertia(m_v=0.0, alpha_b=5.0), 2.0, 18.0),
        (Droop(alpha_b=10.0), 2.0, 14.0),
        (IDroop.nadir_tuned(GB, 0.0), 1.0, 16.0),
        (IDroop.nadir_tuned(GB, 0.0), 0.8, 72.8),
    ],
    ids=["idroop-2", "nostorage-2", "vi-2", "droop-2", "idroop-1", "idroop-0.8"],
)
def test_deadband_rk4_divergence_times(controller, dt, last_valid_time):
    """With a dead-band too, an unstable step raises where the scalar loop did
    (400 s, secondary frozen), and the overflow raises no numpy warning."""
    sc = _scenario(controller, grid=GB_DB, sim=SimOptions(dt=dt, horizon=400.0, freeze_secondary=True))
    with pytest.raises(IntegrationError) as excinfo:
        simulate(sc)
    assert excinfo.value.last_valid_time == last_valid_time


def test_deadband_unstable_loop_reports_last_valid_time():
    """An unstable loop (secondary gain 50/s) swings through the band with a growing
    amplitude and leaves the finite range inside one region, not on a crossing
    step; it raises where the scalar loop did."""
    grid = gb_reference_params(deadband_omega_db=0.0006, secondary_gain_k_i=50.0)
    with pytest.raises(IntegrationError) as excinfo:
        simulate(_scenario(NoStorage(), grid=grid, sim=SimOptions(dt=1e-3, horizon=60.0)))
    assert excinfo.value.last_valid_time == 44.312


# ---------------------------------------------- storage maxima (one window)

FIG8_TARGETS = [round(v, 10) for v in np.linspace(1.875e-3, 3.75e-3, 21)]
CAPACITY_RUNS = [TRANSIENT_OPTIONS, SimOptions(dt=ENERGY_RUN_DT, horizon=ENERGY_RUN_HORIZON, exact=True)]


def _assert_maxima_match(sc):
    """The reducer gives extract_metrics(simulate(sc))'s p_b_max_norm and e_b_max_norm,
    each from a run of its own rows, bit for bit (``hex`` tells -0.0 from 0.0), as
    Python floats."""
    metrics = extract_metrics(simulate(sc))
    for quantity, want in (("p_b", metrics.p_b_max_norm), ("e_b", metrics.e_b_max_norm)):
        got = _storage_maxima(sc, quantity)
        assert type(got) is float and got == want and got.hex() == want.hex(), (quantity, sc)


@pytest.mark.parametrize("strategy", ["droop", "vi_min", "idroop_tuned"])
def test_storage_maxima_match_metrics_on_fig8(strategy):
    """Every fig8 target, on the power run and on the energy run of capacity_curve."""
    for target in FIG8_TARGETS:
        alpha_b = design_droop_from_target(DP, target, GB.gen_inv_droop_alpha_g)
        controller = _CAPACITY_CONTROLLERS[strategy](GB, alpha_b)
        for sim in CAPACITY_RUNS:
            _assert_maxima_match(_scenario(controller, sim=sim))


@pytest.mark.parametrize("case", [*DEADBAND_CASES, "oscillation"])
def test_storage_maxima_match_metrics_with_deadband(case):
    """Region by region, with band crossing steps, over every law."""
    if case == "oscillation":  # 18 band crossings in 60 s
        grid = gb_reference_params(deadband_omega_db=0.0006, secondary_gain_k_i=2.0)
        _assert_maxima_match(_scenario(Droop(alpha_b=0.0), grid=grid, sim=SimOptions(dt=1e-3, horizon=60.0)))
        return
    step, step_time, sim = DEADBAND_CASES[case]
    for controller in DEADBAND_LAWS:
        _assert_maxima_match(Scenario(GB_DB, controller, Disturbance(step_pu=step, step_time=step_time), sim))


@pytest.mark.parametrize(
    "step, step_time",
    [(DP, 0.0), (DP, 0.5), (DP, 0.0005), (-DP, 0.0), (-DP, 0.5), (DP, 30.0), (DP, 40.0), (0.0, 0.0)],
    ids=["at-0", "at-0.5", "off-grid", "negative", "negative-at-0.5", "at-horizon", "after-horizon", "zero"],
)
def test_storage_maxima_match_metrics_on_edges(step, step_time):
    """Both step signs, a step at 0 (no zero sample before it) or later, one at or
    after the horizon and none at all, on both paths, frozen and with the secondary."""
    for controller in (NoStorage(), Droop(alpha_b=5.0), VirtualInertia(m_v=MV_MIN, alpha_b=2.0), IDroop.nadir_tuned(GB, 2.0)):
        for sim in (*_both_paths(FROZEN), SimOptions(dt=1e-2, horizon=30.0)):
            _assert_maxima_match(Scenario(GB, controller, Disturbance(step_pu=step, step_time=step_time), sim))


@pytest.mark.parametrize("step, step_time", [(DP, 0.0), (-DP, 0.0), (DP, 12.3456)], ids=["at-0", "negative", "delayed"])
def test_storage_maxima_read_no_unwritten_window_cell(step, step_time):
    """The window is not filled: the sampler writes its column 0 and the rows each chunk
    computes, and the maxima read no other cell.  A NaN array of the window's size is
    freed just before each run, so the window reuses memory that held NaNs, and both
    maxima still equal the trajectory's by ``hex``."""
    sc = Scenario(GB, IDroop(nu=10.0, tau_i=1.0, alpha_b=3.0), Disturbance(step_pu=step, step_time=step_time), FROZEN)
    _, n, k_on = _plan(sc)
    metrics = extract_metrics(simulate(sc))
    for quantity, want in (("p_b", metrics.p_b_max_norm), ("e_b", metrics.e_b_max_norm)):
        _storage_maxima(sc, quantity)
        dirty = np.full((7, 1 + _most_blocks(n - k_on) * 256), np.nan)
        del dirty
        got = _storage_maxima(sc, quantity)
        assert got.hex() == want.hex(), (quantity, got, want)


def test_first_step_sample_matches_searchsorted():
    """k_on is the first sample time at or after the step, as np.searchsorted finds it."""
    for dt, horizon in ((1e-3, 30.0), (1e-2, 1200.0), (0.3, 7.0), (2.0, 8.0)):
        t = np.arange(int(round(horizon / dt)) + 1) * dt
        for k in (0, 1, 7, 500, len(t) - 1, len(t)):
            for step_time in (k * dt, np.nextafter(k * dt, 0.0), np.nextafter(k * dt, np.inf), (k + 0.5) * dt):
                sc = Scenario(GB, NoStorage(), Disturbance(step_pu=DP, step_time=step_time), SimOptions(dt=dt, horizon=horizon))
                assert _plan(sc)[1:] == (len(t) - 1, int(np.searchsorted(t, step_time))), (dt, step_time)


@pytest.mark.parametrize(
    "grid, controller, sim, last_valid_time",
    [
        (GB, IDroop.nadir_tuned(GB, 0.0), SimOptions(dt=2.0, horizon=400.0, freeze_secondary=True), 8.0),
        (GB_DB, IDroop.nadir_tuned(GB, 0.0), SimOptions(dt=2.0, horizon=400.0, freeze_secondary=True), 8.0),
        (gb_reference_params(deadband_omega_db=0.0006, secondary_gain_k_i=50.0), NoStorage(), SimOptions(dt=1e-3, horizon=60.0), 44.312),
        (GB, IDroop.nadir_tuned(GB, 0.0), SimOptions(dt=0.8, horizon=1000.0, freeze_secondary=True), 76.0),
    ],
    ids=["idroop-2", "deadband-idroop-2", "deadband-unstable", "idroop-0.8-chunks"],
)
def test_storage_maxima_divergence_times(grid, controller, sim, last_valid_time):
    """The reducer raises where simulate does, and returns for a horizon that ends at
    the last valid time.  The 0.8 s run diverges in a first chunk of 4 blocks, where a
    capacity run samples omega only because its block bound fails."""
    sc = _scenario(controller, grid=grid, sim=sim)
    for run in (simulate, lambda sc: _storage_maxima(sc, "p_b"), lambda sc: _storage_maxima(sc, "e_b")):
        with pytest.raises(IntegrationError) as excinfo:
            run(sc)
        assert excinfo.value.last_valid_time == last_valid_time
    _assert_maxima_match(replace(sc, sim=replace(sim, horizon=last_valid_time)))


def _random_grid_runs():
    """20 seeded random GB-like grids, every law, frozen and with the secondary, on both
    paths, at 10 ms over horizons of 5-60 s."""
    rng = np.random.RandomState(2027)
    for _ in range(20):
        grid = gb_reference_params(
            inertia_h=rng.uniform(1.0, 6.0),
            turbine_tau=rng.uniform(0.25, 3.0),
            load_damping_alpha_l=rng.uniform(0.0, 2.0),
            gen_inv_droop_alpha_g=rng.uniform(5.0, 30.0),
            secondary_gain_k_i=rng.uniform(0.02, 0.2),
        )
        alpha_b = rng.uniform(0.0, 15.0)
        laws = (
            NoStorage(),
            Droop(alpha_b=alpha_b),
            VirtualInertia(m_v=max(0.0, mv_min_exact(grid, alpha_b)), alpha_b=alpha_b),
            IDroop.nadir_tuned(grid, alpha_b),
            IDroop(nu=alpha_b + rng.uniform(1.0, 30.0), tau_i=rng.uniform(0.25, 3.0), alpha_b=alpha_b),
        )
        disturbance = Disturbance(step_pu=rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.1), step_time=rng.uniform(0.0, 2.0))
        horizon = rng.uniform(5.0, 60.0)
        for controller in laws:
            for freeze in (True, False):
                for sim in _both_paths(SimOptions(dt=1e-2, horizon=horizon, freeze_secondary=freeze)):
                    yield Scenario(grid, controller, disturbance, sim)


def test_storage_maxima_match_metrics_on_random_grids():
    """The random grids' runs start with the largest chunk, 2 to 16 blocks, and all but
    the shortest go on to a second, so the window wraps; the run computes only its own
    rows in chunks of 3 blocks and more."""
    for sc in _random_grid_runs():
        _assert_maxima_match(sc)


def test_block_bound_holds_on_random_grids():
    """Every |omega| a block samples is at most reach . |h| for the block's start h =
    (x, p_L), reach_m = max_j |(Phi^j)[1, m]| over the block's 256 steps: on every
    block of every run of the random grids, against simulate's omega and the state it
    holds at the block's start."""
    for sc in _random_grid_runs():
        a, n, k_on = _plan(sc)
        step1 = _expm1 if sc.sim.exact else _rk4_step1
        reach = np.abs(_sample_table(_powers(step1(a * sc.sim.dt), 256), a[[3, 1]])[1]).max(axis=1)
        traj = simulate(sc)
        x = np.vstack([traj.theta, traj.omega, traj.p_m, traj.e_b, traj.x_c, np.full(n + 1, sc.disturbance.step_pu)])
        for start in range(k_on, n, 256):
            peak = np.max(np.abs(traj.omega[start + 1 : start + 257]))
            assert peak <= reach @ np.abs(x[:, start]), (sc, start)


@pytest.mark.parametrize("sim", CAPACITY_RUNS, ids=["power", "energy"])
def test_storage_maxima_fall_back_to_the_scan(monkeypatch, sim):
    """A chunk whose block bound reaches half the divergence limit samples omega and
    scans it as simulate does.  With the limit just above the run's max |omega|, the
    block holding it fails the bound, since its bound is at least that max: the chunk
    samples omega, equal to simulate's bit for bit, the scan passes, and both maxima
    equal extract_metrics(simulate(...)) bit for bit; simulate, which scans such a chunk
    too, returns the unpatched trajectory bit for bit.  With the limit at half that max,
    simulate and both maxima raise at the same last valid time."""
    module = sys.modules["gridfreq.simulate"]
    sc = _scenario(IDroop.nadir_tuned(GB, design_droop_from_target(DP, FIG8_TARGETS[0], GB.gen_inv_droop_alpha_g)), sim=sim)
    omega = simulate(sc).omega
    k_peak = int(np.argmax(np.abs(omega)))
    want = simulate(sc)
    monkeypatch.setattr(module, "_DIVERGENCE_LIMIT", abs(omega[k_peak]) * (1.0 + 1e-9))
    _assert_maxima_match(sc)
    traj = simulate(sc)
    for name in ("theta", "omega", "p_m", "e_b", "x_c", "p_b", "omega_dot"):
        assert getattr(traj, name).tobytes() == getattr(want, name).tobytes(), name
    a, n, k_on = _plan(sc)
    window = np.full((5, 1 + _most_blocks(n - k_on) * 256), np.nan)
    done = k_on
    for run in _sample_runs(sc, a, k_on, n, window, []):
        steps = run.shape[1] - 1
        if done < k_peak <= done + steps:
            assert run[1].tobytes() == omega[done : done + steps + 1].tobytes()
        done += steps
    assert done == n
    monkeypatch.setattr(module, "_DIVERGENCE_LIMIT", abs(omega[k_peak]) / 2.0)
    times = []
    for run in (simulate, lambda sc: _storage_maxima(sc, "p_b"), lambda sc: _storage_maxima(sc, "e_b")):
        with pytest.raises(IntegrationError) as excinfo:
            run(sc)
        times.append(excinfo.value.last_valid_time)
    assert times[0] < k_peak * sim.dt and times == [times[0]] * 3, times


@pytest.mark.parametrize("quantity", ["p_b", "e_b"])
@pytest.mark.parametrize("sim", CAPACITY_RUNS, ids=["power", "energy"])
def test_capacity_runs_sample_no_omega(monkeypatch, sim, quantity):
    """A capacity run samples its own row alone from each run's recorded chunk, and its
    chunks of more than two blocks, whose block bounds rule out divergence, leave omega
    unsampled: in a NaN-filled window omega stays NaN but in column 0 and in each
    chunk's last two blocks, where the next chunk starts, and once the consumer has
    sampled it, the quantity's row equals simulate's bit for bit in every run."""
    module = sys.modules["gridfreq.simulate"]
    sample_runs, row = module._sample_runs, {"p_b": 5, "e_b": 3}[quantity]
    sc = _scenario(VirtualInertia(m_v=MV_MIN, alpha_b=2.0), sim=sim)
    traj = simulate(sc)
    want = getattr(traj, quantity)
    lengths = []

    def spy(scenario, a, k_on, n, buf, chunks):
        buf.fill(np.nan)
        done = k_on
        for run in sample_runs(scenario, a, k_on, n, buf, chunks):
            steps = run.shape[1] - 1
            unsampled = 256 * (-(-steps // 256) - 2)  # the chunk's blocks but its last two
            assert np.all(np.isnan(run[1, 1 : 1 + unsampled])) and not np.any(np.isnan(run[1, 1 + unsampled :]))
            assert not np.isnan(run[1, 0])
            yield run
            assert run[row].tobytes() == want[done : done + steps + 1].tobytes()  # sampled by the consumer
            lengths.append(steps)
            done += steps

    monkeypatch.setattr(module, "_sample_runs", spy)
    assert _storage_maxima(sc, quantity).hex() == getattr(extract_metrics(traj), f"{quantity}_max_norm").hex()
    assert len(lengths) == 2 and min(lengths) > 2 * 256, lengths


def _expm1_order18(m):
    """exp(m) - I by the Taylor series to order 18 of m / 2^s, squared s times."""
    s = max(0, int(np.frexp(np.linalg.norm(m, 1))[1]) + 1)
    eye = e = np.eye(len(m))
    m = m / 2.0**s
    for j in range(18, 1, -1):
        e = eye + m @ e / j
    e = m @ e
    for _ in range(s):
        e = 2.0 * e + e @ e
    return e


def test_expm1_equals_the_order_18_series():
    """The exact step's series stops where its terms no longer move a bit: equal to
    the series to order 18 by ``tobytes``, on fig8's power and energy steps (21
    targets, three strategies) and on 150 seeded random loops at each of dt = 1e-5,
    1e-3, 1e-2, 0.05 and 2 s."""
    steps = []
    for strategy in _CAPACITY_CONTROLLERS:
        for target in FIG8_TARGETS:
            controller = _CAPACITY_CONTROLLERS[strategy](GB, design_droop_from_target(DP, target, GB.gen_inv_droop_alpha_g))
            for sim in CAPACITY_RUNS:
                steps.append(_plan(_scenario(controller, sim=sim))[0] * sim.dt)
    assert len(steps) == 126
    rng = np.random.RandomState(2024)
    for dt in (1e-5, 1e-3, 1e-2, 0.05, 2.0):
        for _ in range(150):
            grid = gb_reference_params(
                inertia_h=rng.uniform(1.0, 6.0),
                turbine_tau=rng.uniform(0.25, 3.0),
                load_damping_alpha_l=rng.uniform(0.0, 2.0),
                gen_inv_droop_alpha_g=rng.uniform(5.0, 30.0),
                secondary_gain_k_i=rng.uniform(0.02, 0.2),
            )
            alpha_b = rng.uniform(0.0, 15.0)
            laws = (
                NoStorage(),
                Droop(alpha_b=alpha_b),
                VirtualInertia(m_v=rng.uniform(0.0, 100.0), alpha_b=alpha_b),
                IDroop.nadir_tuned(grid, alpha_b),
                IDroop(nu=alpha_b + rng.uniform(1.0, 30.0), tau_i=rng.uniform(0.25, 3.0), alpha_b=alpha_b),
            )
            k_i = grid.secondary_gain_k_i * rng.randint(2)
            steps.append(_assemble(_scenario(laws[rng.randint(5)], grid=grid), k_i) * dt)
    for m in steps:
        assert _expm1(m).tobytes() == _expm1_order18(m).tobytes(), m


@pytest.mark.parametrize("k_i", [0.0, GB.secondary_gain_k_i], ids=["frozen", "secondary"])
@pytest.mark.parametrize(
    "controller",
    [
        NoStorage(),
        Droop(alpha_b=0.0),
        Droop(alpha_b=5.0),
        VirtualInertia(m_v=MV_MIN, alpha_b=0.0),
        VirtualInertia(m_v=20.0, alpha_b=2.0),
        IDroop.nadir_tuned(GB, 0.0),
        IDroop.nadir_tuned(GB, 5.0),
        IDroop(nu=10.0, tau_i=1.0, alpha_b=3.0),
    ],
    ids=["nostorage", "droop0", "droop", "vi_boundary", "vi", "idroop0", "idroop", "idroop_off_tuned"],
)
def test_output_rows_read_theta_and_e_b_by_positive_zeros(controller, k_i):
    """The output rows of A, which the sample tables fold in as c + c P_j, take theta
    and e_b with coefficients that are exactly +0.0: neither p_b nor omega_dot depends
    on the angle or on the stored energy, and a nonzero or -0.0 coefficient leaking in
    through ``_assemble`` fails here before it moves a sample."""
    coef = _assemble(_scenario(controller), k_i)[[3, 1]][:, [0, 3]]
    assert np.all(coef == 0.0) and not np.any(np.signbit(coef)), coef


@pytest.mark.parametrize("controller", DEADBAND_LAWS, ids=["nostorage", "droop", "vi", "idroop", "idroop_off_tuned"])
def test_output_rows_match_the_states(controller):
    """p_b and omega_dot, sampled with the states from the same tables, equal A[[3, 1]]
    (x, d_p) recomputed from the sampled state rows, to 1e-13 of each row's maximum: on
    RK4, on the exact path and on dead-band runs that cross the band, for both step
    signs, at 0 and delayed.  Every output before k_on is +0.0, and the one at k_on is
    0.0 + d_p A[[3, 1], 5], so it is never -0.0."""
    dead_band = (FROZEN, SimOptions(dt=1e-2, horizon=600.0))
    for grid, sims in ((GB, _both_paths(FROZEN)), (GB_DB, dead_band)):
        for step, step_time in ((DP, 0.0), (-DP, 0.5)):
            for sim in sims:
                sc = Scenario(grid, controller, Disturbance(step_pu=step, step_time=step_time), sim)
                a, n, k_on = _plan(sc)
                traj = simulate(sc)
                x = np.vstack([traj.theta, traj.omega, traj.p_m, traj.e_b, traj.x_c, np.full(n + 1, step)])
                if grid is GB_DB:
                    assert np.any(np.abs(traj.omega) >= grid.deadband_omega_db), sc
                for got, row in ((traj.p_b, a[3]), (traj.omega_dot, a[1])):
                    want = row @ x[:, k_on:]
                    assert np.max(np.abs(got[k_on:] - want)) <= 1e-13 * np.max(np.abs(want)), sc
                    assert np.all(got[:k_on] == 0.0) and not np.any(np.signbit(got[:k_on])), sc
                    assert got[k_on].hex() == (0.0 + step * row[5]).hex(), sc


# ----------------------------------------------------------- energy account


@pytest.mark.parametrize(
    "controller",
    [Droop(alpha_b=1.875), VirtualInertia(m_v=MV_MIN, alpha_b=2.0), IDroop.nadir_tuned(gb_reference_params(), 1.875)],
    ids=["droop", "vi", "idroop"],
)
def test_energy_consistency(controller):
    """Trapezoid of the recorded p_b matches the integrated e_b state."""
    traj = simulate(_scenario(controller))
    trapz = np.concatenate(
        [[0.0], np.cumsum(0.5 * traj.dt * (traj.p_b[1:] + traj.p_b[:-1]))]
    )
    err = np.max(np.abs(trapz - traj.e_b))
    bound = 1e-6 * max(np.max(np.abs(traj.e_b)), 1e-9)
    print(f"\n  energy mismatch {err:.3e} vs bound {bound:.3e}")
    assert err <= bound


# ------------------------------------------------------------- convergence


def test_halving_dt_is_converged():
    """RK4 order check: the nadir moves <= 1e-8 pu when dt is halved."""
    coarse = extract_metrics(simulate(_scenario(NoStorage())))
    fine = extract_metrics(
        simulate(_scenario(NoStorage(), sim=SimOptions(dt=5e-4, horizon=30.0, freeze_secondary=True)))
    )
    delta = abs(coarse.nadir_deviation - fine.nadir_deviation)
    print(f"\n  nadir shift on halving dt: {delta:.3e} pu")
    assert delta <= 1e-8


# -------------------------------------------------------------- final value


def test_final_value_primary_only():
    """With the secondary loop frozen, omega(30 s) is the droop steady state."""
    for controller in (NoStorage(), Droop(alpha_b=16.0)):
        traj = simulate(_scenario(controller))
        expected = steady_state_deviation(DP, 1.0, 15.0, controller.alpha_b)
        assert traj.omega[-1] == pytest.approx(expected, rel=1e-3)


def test_secondary_restores_frequency():
    """With k_i = 0.05 active the frequency decays on the slow integral mode.

    The restoration time constant is sigma/k_i = 357.5 s here, so at 1200 s
    the residual deviation sits at exp(-1200 k_i/sigma) of the primary
    droop value (~1.1e-4 pu), and full restoration below 1e-5 pu needs a
    horizon past ~5 slow time constants (checked at 4000 s in
    test_energy_limit_long_horizon).
    """
    sc = _scenario(Droop(alpha_b=1.875), sim=SimOptions(dt=1e-2, horizon=1200.0))
    traj = simulate(sc)
    sigma = 1.0 + 15.0 + 1.875
    residual = (DP / sigma) * math.exp(-1200.0 * 0.05 / sigma)
    print(f"\n  omega(1200 s) = {traj.omega[-1]:.4e} pu, slow-mode prediction {-residual:.4e}")
    assert traj.omega[-1] == pytest.approx(-residual, rel=0.05)
    # restored to under 4% of the primary-only deviation, still heading to 0
    assert abs(traj.omega[-1]) <= 0.04 * DP / sigma
    # the stored energy approaches alpha_b * dp / k_i from below
    e_lim = 1.875 * DP / 0.05
    assert traj.e_b[-1] <= e_lim * (1.0 + 1e-9)
    assert traj.e_b[-1] == pytest.approx(e_lim, rel=0.05)


def test_energy_limit_long_horizon():
    """The stored-energy limit alpha_b * dp / k_i is exact once the horizon
    covers the secondary loop's slow mode, (a_l + a_g + alpha_b)/k_i = 620 s
    at alpha_b = 15.  At a 4000 s horizon the measured maximum is within 1%
    (the standard 1200 s energy run truncates this case by ~14%; the
    acceptance suite's criterion 6 checks every gain at 5 slow time
    constants)."""
    for controller in (IDroop.nadir_tuned(GB, 15.0), VirtualInertia(m_v=84.74771730569564, alpha_b=15.0)):
        sc = _scenario(controller, sim=SimOptions(dt=1e-2, horizon=4000.0))
        traj = simulate(sc)
        m = extract_metrics(traj)
        expected = 15.0 / 0.05
        rel = abs(m.e_b_max_norm - expected) / expected
        print(f"\n  {type(controller).__name__}: e_b_max_norm={m.e_b_max_norm:.2f} s (limit {expected:.0f}), rel={rel:.2%}")
        assert rel <= 0.01
        # by now the secondary loop has fully restored the frequency
        assert abs(traj.omega[-1]) <= 1e-5


# ---------------------------------------------------------------- dead-band


def test_deadband_deepens_final_deviation():
    grid_db = gb_reference_params(deadband_omega_db=0.0006)
    for controller in (VirtualInertia(m_v=MV_MIN, alpha_b=0.0), IDroop.nadir_tuned(GB, 0.0)):
        plain = simulate(_scenario(controller))
        withdb = simulate(_scenario(controller, grid=grid_db))
        assert abs(withdb.omega[-1]) >= abs(plain.omega[-1])
        # quasi-steady state with the offset turbine law: -(dp + a_g*w_db)/16
        expected = -(DP + 15.0 * 0.0006) / 16.0
        assert withdb.omega[-1] == pytest.approx(expected, rel=1e-3)
        m = extract_metrics(withdb, monotone_tol=1e-5)
        assert m.monotone


# -------------------------------------------------------------- divergence


def test_divergence_reports_last_valid_time():
    """A step far outside the RK4 stability region must fail loudly."""
    sc = _scenario(
        IDroop.nadir_tuned(GB, 0.0),
        sim=SimOptions(dt=2.0, horizon=400.0, freeze_secondary=True),
    )
    with pytest.raises(IntegrationError) as excinfo:
        simulate(sc)
    assert excinfo.value.last_valid_time >= 0.0
    assert "last valid time" in str(excinfo.value)


def test_non_finite_loop_coefficients_are_rejected():
    """An inertia, a turbine time constant or a lag time constant of 1e-320 is finite
    and positive, but its reciprocal overflows A: simulate and capacity_curve raise a
    ValueError for it, with no numpy warning (the suite raises those as errors) and no
    IntegrationError, on both paths and with a dead-band."""
    tiny = 1e-320
    runs = [
        (gb_reference_params(inertia_h=tiny), Droop(alpha_b=1.0)),
        (gb_reference_params(turbine_tau=tiny), Droop(alpha_b=1.0)),
        (GB, IDroop(nu=15.0, tau_i=tiny)),
    ]
    for grid, controller in runs:
        for db_grid in (grid, replace(grid, deadband_omega_db=0.0006)):
            for sim in _both_paths(FROZEN):
                with pytest.raises(ValueError, match="coefficients are not finite"):
                    simulate(_scenario(controller, grid=db_grid, sim=sim))
    for grid, _ in runs[:2]:  # idroop_tuned takes tau_i = turbine_tau
        for strategy in ("droop", "idroop_tuned"):
            with pytest.raises(ValueError, match="coefficients are not finite"):
                capacity_curve(grid, strategy, [2.5e-3], DP)


# -------------------------------------------------------------------- CSV


def test_trajectory_csv_layout():
    sc = _scenario(NoStorage(), sim=SimOptions(dt=1e-2, horizon=2.0, freeze_secondary=True))
    traj = simulate(sc)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == TRAJECTORY_CSV_HEADER
    assert len(lines) == 1 + int(round(2.0 / 1e-2)) + 1  # header + horizon/dt + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    # omega_hz column is omega_pu * 60
    row = lines[-1].split(",")
    assert float(row[2]) == pytest.approx(float(row[1]) * 60.0, rel=1e-9)
    # byte-determinism of a second write
    buf2 = io.StringIO()
    write_trajectory_csv(traj, buf2)
    assert buf2.getvalue() == buf.getvalue()


@pytest.mark.parametrize(
    "controller",
    [NoStorage(), Droop(alpha_b=2.0), VirtualInertia(m_v=MV_MIN, alpha_b=2.0), IDroop.nadir_tuned(GB, 2.0)],
    ids=["nostorage", "droop", "vi", "idroop"],
)
def test_pre_step_csv_rows_are_plain_zeros(controller):
    """Every row before the step writes bare zeros: no law's p_b prints a signed -0."""
    sc = Scenario(
        grid=GB,
        controller=controller,
        disturbance=Disturbance(step_pu=DP, step_time=0.5),
        sim=SimOptions(dt=1e-2, horizon=1.0, freeze_secondary=True),
    )
    for sim in _both_paths(sc.sim):
        buf = io.StringIO()
        write_trajectory_csv(simulate(replace(sc, sim=sim)), buf)
        rows = buf.getvalue().splitlines()[1:]
        for k in range(50):
            assert rows[k] == f"{k * 1e-2:.12g},0,0,0,0,0,0"
        assert rows[51] != f"{51 * 1e-2:.12g},0,0,0,0,0,0"  # the step did act


def _percent_csv(rows) -> str:
    """CSV text of the rows by a per-row ``%`` loop: the reference for the numpy formatter."""
    return "".join(",".join(["%.12g"] * len(row)) % tuple(row) + "\n" for row in rows)


def _reference_trajectory_csv(traj) -> str:
    f_nom = traj.scenario.grid.nominal_freq
    cols = (traj.t, traj.omega, traj.omega * f_nom, traj.p_m, traj.p_b, traj.e_b, traj.theta)
    return TRAJECTORY_CSV_HEADER + "\n" + _percent_csv(zip(*(c.tolist() for c in cols)))


# With their negatives: zeros, the subnormal and normal ends, the ends of the range
# formatted in numpy, a carry across the fixed/exponent boundary and one to 1e12
# (999999999999.5 is an exact tie), exact ties that % breaks to even
# (1234567890.12 and 1234567890.38), and the largest double.
_EDGE_CELLS = [
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    1e-300,
    1e-279,
    1e-05,
    9.9999999999995e-05,
    0.0001,
    999999999999.4,
    999999999999.5,
    999999999999.6,
    1e12,
    1e16,
    1.7976931348623157e308,
    1234567890.125,
    1234567890.375,
]


def _tie_window_cells(rng, n):
    """n cells whose scaled value |v| 10^(11 - e) is exactly an integer + 0.5 + d, with |d|
    log-uniform on [1e-9, 1e-3], both signs of d and of v, and e in [-5, 3].

    v = m 2^-E with m < 2^53, so the scaled value is m 5^k / 2^(E - k) for k = 11 - e:
    m modulo 2^(E - k) sets the fraction, and a multiple of 2^(E - k) moves m into e's
    decade.  The fraction's grid, 2^(k - E), is below 1e-9 from e = 3 on, and the decade
    holds a multiple of 2^(E - k) up to e = -5.
    """
    cells = []
    for _ in range(n):
        e = int(rng.randint(-5, 4))
        k, big = 11 - e, 52 - math.ceil((e + 1) * math.log2(10))  # 10^(e + 1) 2^big <= 2^52
        mod = 1 << (big - k)
        d = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-9, -3)
        m = (mod // 2 + round(d * mod)) * pow(5**k, -1, mod) % mod
        lo, hi = (math.ceil(Fraction(10) ** x * 2**big) for x in (e, e + 1))
        m += mod * int(rng.randint(-(-(lo - m) // mod), (hi - 1 - m) // mod + 1))
        cells.append(rng.choice([-1.0, 1.0]) * math.ldexp(m, -big))
    return np.array(cells)


def test_csv_cells_match_percent_format():
    """Every cell is byte for byte what ``"%.12g" %`` prints, in one column and in rows of seven.

    Near-ties are 13-digit decimals ending in 5, within a few units of the last
    bit of a tie: their rounding digit needs the double-double scaling.  So do
    multiples of a round step, as in gb-idroop's theta column (a third of
    them 13-digit ties), and cells 1e-9 to 1e-3 off a tie, which one product
    cannot place: it is within 2.3e-4 of the scaled value.
    """
    rng = np.random.RandomState(2027)
    k = np.arange(120001)
    n = 20000
    random = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    near_ties = (rng.randint(10**11, 10**12, n, dtype=np.int64) * 10.0 + 5.0) / 10.0 ** rng.randint(1, 291, n)
    edge = np.array(_EDGE_CELLS)
    steps = np.concatenate([k * 1.7578125e-6, k * -1.7578125e-5])
    for values in (
        np.concatenate([edge, -edge]),
        k * 1e-3,
        k * 1e-2,
        random,
        np.concatenate([near_ties, -near_ties]),
        steps,
        _tie_window_cells(rng, n // 4),
    ):
        for width in (1, 7):
            rows = values[: len(values) // width * width].reshape(-1, width)
            buf = io.StringIO()
            write_csv_rows(list(rows.T), buf)
            assert buf.getvalue().splitlines() == _percent_csv(rows.tolist()).splitlines()


def _bundled_run(case):
    name, _, change = case.partition(":")
    sc = load_scenario(SCENARIO_DIR / f"{name}.scn")
    if change == "deadband":  # gridfreq simulate --step-gw 2.3 --deadband-mhz 20
        grid = replace(sc.grid, deadband_omega_db=20 / 1000.0 / sc.grid.nominal_freq)
        sc = replace(sc, grid=grid, disturbance=replace(sc.disturbance, step_pu=pu_disturbance(2.3, grid)))
    elif change == "1200s":
        sc = replace(sc, sim=replace(sc.sim, horizon=1200.0, dt=0.01))
    return simulate(sc)


@pytest.mark.parametrize(
    "case",
    ["gb-equilibrium", "gb-idroop", "gb-nostorage", "gb-vi-deadband", "gb-vi-deadband:deadband", "gb-idroop:1200s"],
)
def test_trajectory_csv_matches_reference_writer(case):
    """The bundled scenarios, the dead-band override and a 1200 s / 10 ms run write the
    per-row ``%`` loop's CSV byte for byte."""
    traj = _bundled_run(case)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    assert buf.getvalue().splitlines() == _reference_trajectory_csv(traj).splitlines()


@pytest.mark.parametrize(
    "case",
    ["gb-equilibrium", "gb-idroop", "gb-nostorage", "gb-vi-deadband", "gb-vi-deadband:deadband", "gb-idroop:1200s"],
)
def test_trajectory_csv_leaves_few_cells_to_percent(case):
    """Only cells within 1e-9 of a rounding tie are printed by ``%``: 20 of gb-idroop's
    210 007 cells (its theta column has 20 547 within 1e-3, scaled again in numpy), 10
    of the 1200 s run's and none of the others'."""
    traj = _bundled_run(case)
    f_nom = traj.scenario.grid.nominal_freq
    cells = np.stack([traj.t, traj.omega, traj.omega * f_nom, traj.p_m, traj.p_b, traj.e_b, traj.theta], axis=1)
    assert len(_round12(cells.ravel())[2]) <= 100


def test_trajectory_csv_working_memory_is_small():
    """Writing 120 001 samples holds at most 1.5 MB beyond the text the stream keeps.

    The writer formats 1024 rows at a time (0.90 MB measured); 2048-row
    chunks take 1.67 MB, 4096-row chunks 3.4 MB and the whole file at once
    200 MB.
    """
    traj = _bundled_run("gb-idroop:1200s")
    assert traj.n_samples == 120001
    # A first write builds the formatter's tables, which stay.
    write_trajectory_csv(simulate(_scenario(NoStorage(), sim=SimOptions(dt=0.1, horizon=1.0))), io.StringIO())
    buf = io.StringIO()
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, buf)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 1.5e6


# ------------------------------------------------------------------ metrics


def test_settling_time_definition():
    traj = simulate(_scenario(NoStorage()))
    m = extract_metrics(traj)
    band = 0.05 * abs(m.steady_state_deviation)
    after = traj.t >= m.settling_time
    assert np.all(np.abs(traj.omega[after] - m.steady_state_deviation) <= band + 1e-15)
    assert 0.0 < m.settling_time < 30.0


def test_nadir_never_shallower_than_final():
    for controller in (NoStorage(), Droop(alpha_b=3.0), VirtualInertia(m_v=20.0)):
        m = extract_metrics(simulate(_scenario(controller)))
        assert abs(m.nadir_deviation) >= abs(m.steady_state_deviation) - 1e-15


def test_slow_recovery_is_not_monotone():
    """A dip with a slow recovery must not pass as monotone at small dt.

    A lag droop tuned for a 1 s turbine against a 1.5 s turbine dips ~5e-4
    pu below its steady state and crawls back over ~10 s; per-step
    differences are below any jitter tolerance, but the flag must still be
    False, and monotone == True must continue to imply nadir == final.
    """
    grid = gb_reference_params(turbine_tau=1.5)
    m = extract_metrics(simulate(_scenario(IDroop.nadir_tuned(GB, 0.0), grid=grid)))
    assert not m.monotone
    assert abs(m.nadir_deviation) > abs(m.steady_state_deviation) + 1e-4
    for controller in (IDroop.nadir_tuned(GB, 0.0), VirtualInertia(m_v=MV_MIN)):
        m = extract_metrics(simulate(_scenario(controller)))
        assert m.monotone
        assert m.nadir_deviation == pytest.approx(m.steady_state_deviation, abs=1e-6)


def _reference_metrics(traj, monotone_tol):
    """extract_metrics by running extremes, the last index outside the band and max |v|:
    the definitions the reductions of extract_metrics must reproduce bit for bit.  Its
    times are read off ``traj.t`` by np.searchsorted and index, which extract_metrics
    never reads: its k dt must equal them bit for bit."""
    omega, d_p = traj.omega, traj.scenario.disturbance.step_pu
    k_min = int(np.argmin(omega))
    nadir = float(omega[k_min])
    k_nadir = int(np.argmax(omega[: k_min + 1] <= nadir + 1e-12 * abs(nadir)))
    final = float(omega[-1])
    k_on = min(int(np.searchsorted(traj.t, traj.scenario.disturbance.step_time)), traj.n_samples - 1)
    outside = np.abs(omega - final) > traj.scenario.sim.settling_band * abs(final)
    settling_time = 0.0
    if outside.any():
        settling_time = float(traj.t[min(int(np.flatnonzero(outside)[-1]) + 1, traj.n_samples - 1)])
    if d_p > 0:
        monotone = bool(np.max(omega - np.minimum.accumulate(omega)) <= monotone_tol)
    elif d_p < 0:
        monotone = bool(np.max(np.maximum.accumulate(omega) - omega) <= monotone_tol)
    else:
        monotone = True
    capacities = (0.0, 0.0, 0.0)
    if d_p:
        capacities = (
            float(np.max(traj.p_b) / d_p),
            float(np.max(np.abs(traj.p_b)) / abs(d_p)),
            float(np.max(traj.e_b) / d_p),
        )
    return (
        nadir,
        float(traj.t[k_nadir]),
        float(traj.omega_dot[k_on]),
        float(np.max(np.abs(traj.omega_dot))),
        final,
        settling_time,
        *capacities,
        monotone,
        d_p == 0,
    )


def _assert_metrics_match_reference(traj):
    """Every field at every tolerance, by type and ``hex`` (which tells -0.0 from 0.0)."""
    for tol in (0.0, 1e-9, 1e-6, 1e-5):
        got = tuple(getattr(extract_metrics(traj, tol), name) for name in METRIC_FIELDS)
        for name, g, w in zip(METRIC_FIELDS, got, _reference_metrics(traj, tol)):
            assert type(g) is type(w), (name, tol, traj.scenario)
            assert (g.hex() == w.hex()) if type(w) is float else g == w, (name, g, w, tol, traj.scenario)


def _rises_before_extreme(traj):
    """Whether omega moves against the step before its first global extreme, the case
    in which extract_metrics takes the running extreme of that prefix."""
    om, d_p = traj.omega, traj.scenario.disturbance.step_pu
    head = om[: int(np.argmin(om) if d_p > 0 else np.argmax(om)) + 1]
    return bool(d_p) and bool(np.any(head[1:] > head[:-1]) if d_p > 0 else np.any(head[1:] < head[:-1]))


def test_metrics_match_reference_on_random_grids():
    """Ten seeded random grids, every law, both step signs, at 0 and delayed, frozen and
    with the secondary; a zero step; the dead-band runs."""
    rng = np.random.RandomState(2027)
    fallbacks = monotone = 0
    runs = []
    for _ in range(10):
        grid = gb_reference_params(
            inertia_h=rng.uniform(1.0, 6.0),
            turbine_tau=rng.uniform(0.25, 3.0),
            load_damping_alpha_l=rng.uniform(0.0, 2.0),
            gen_inv_droop_alpha_g=rng.uniform(5.0, 30.0),
            secondary_gain_k_i=rng.uniform(0.02, 0.2),
        )
        alpha_b = rng.uniform(0.0, 15.0)
        laws = (
            NoStorage(),
            Droop(alpha_b=alpha_b),
            VirtualInertia(m_v=max(0.0, mv_min_exact(grid, alpha_b)), alpha_b=alpha_b),
            IDroop.nadir_tuned(grid, alpha_b),
            IDroop(nu=alpha_b + rng.uniform(1.0, 30.0), tau_i=rng.uniform(0.25, 3.0), alpha_b=alpha_b),
        )
        size, delay, horizon = rng.uniform(0.01, 0.1), rng.uniform(0.1, 2.0), rng.uniform(5.0, 30.0)
        for controller in laws:
            for step, step_time in ((size, 0.0), (-size, delay)):
                for freeze in (True, False):
                    sim = SimOptions(dt=1e-3, horizon=horizon, freeze_secondary=freeze)
                    runs.append(Scenario(grid, controller, Disturbance(step_pu=step, step_time=step_time), sim))
    runs.append(_scenario(Droop(alpha_b=5.0), step=0.0))
    for step, step_time, sim in DEADBAND_CASES.values():
        runs += [Scenario(GB_DB, law, Disturbance(step_pu=step, step_time=step_time), sim) for law in DEADBAND_LAWS]
    for sc in runs:
        traj = simulate(sc)
        _assert_metrics_match_reference(traj)
        fallbacks += _rises_before_extreme(traj)
        monotone += extract_metrics(traj).monotone
    assert fallbacks and 0 < monotone < len(runs), (fallbacks, monotone)


def _hand_trajectory(omega, step=DP, p_b=None, omega_dot=None, step_time=0.0):
    omega = np.asarray(omega, dtype=float)
    zeros = np.zeros_like(omega)
    sim = SimOptions(dt=1.0, horizon=len(omega) - 1.0)
    sc = Scenario(GB, NoStorage(), Disturbance(step_pu=step, step_time=step_time), sim)
    p_b = zeros if p_b is None else np.asarray(p_b, dtype=float)
    omega_dot = zeros if omega_dot is None else np.asarray(omega_dot, dtype=float)
    return Trajectory(sc, np.array([zeros, omega, zeros, omega * 0.5, zeros, p_b, omega_dot]))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_metrics_match_reference_on_hand_built_trajectories(sign):
    """A rise before the global extreme (the prefix fallback), ties at the extreme, a run
    that never settles, one that is settled throughout, p_b and omega_dot of +-0.0, a
    long monotone stretch with a tie before the first rise, the only one above some
    tolerances, and a slow rise that is above them only across the blocks of the prefix
    scan, mirrored for a negative step."""
    cases = [
        ([0.0, -1.0, -0.4, -2.0, -1.9, -1.95], {}),
        ([0.0, -1e-7, 2e-7, -3.0, -3.0, -2.0, -3.0, -2.5], {}),
        ([0.0, -3.0, -3.0, -3.0], {}),
        ([0.0, -1.0, 0.0, -1.0, 0.0, -0.5], {"p_b": [0.0, -0.0, -0.0, 0.0, 0.0, -0.0]}),
        ([-2.0] * 5, {"p_b": [-0.0] * 5, "omega_dot": [-0.0] * 5}),
        ([0.0] * 4, {"p_b": [0.0] * 4, "omega_dot": [0.0, -0.0, 0.0, -0.0]}),
        ([0.0, 0.0, -1.0, -1.5, -1.2], {"p_b": [0.0, 0.0, 2.0, -3.0, -1.0], "step_time": 1.5}),
        ([0.0, *np.linspace(-0.1, -4.0, 40), -4.0, -4.0 + 5e-7, -4.0 + 1e-7, -5.0, -5.0], {}),
        ([0.0, -1.0, -3.0, *(-3.0 + 2e-10 * np.arange(1, 7201)), -5.0], {}),
    ]
    for omega, extra in cases:
        extra = {k: np.multiply(v, sign) if k != "step_time" else v for k, v in extra.items()}
        for step in (sign * DP, 0.0):
            traj = _hand_trajectory(np.multiply(omega, sign), step=step, **extra)
            _assert_metrics_match_reference(traj)
    assert _rises_before_extreme(_hand_trajectory(np.multiply(cases[0][0], sign), step=sign * DP))
    assert extract_metrics(_hand_trajectory(np.multiply(cases[3][0], sign), step=sign * DP)).settling_time == 5.0
    late = _hand_trajectory(np.multiply(cases[-2][0], sign), step=sign * DP)
    assert not extract_metrics(late, 1e-7).monotone and extract_metrics(late, 1e-6).monotone
    slow = _hand_trajectory(np.multiply(cases[-1][0], sign), step=sign * DP)
    assert not extract_metrics(slow, 1e-6).monotone and extract_metrics(slow, 1e-5).monotone


def test_trajectory_arrays_are_contiguous():
    """The seven sampled arrays are the rows of one block, in order, each contiguous: with a
    dead-band and without, and with a zero step or one after the horizon, where nothing is
    sampled.  The time column is no row of it: an array of its own, contiguous too."""
    vi = VirtualInertia(m_v=MV_MIN)
    late = Scenario(GB, vi, Disturbance(step_pu=DP, step_time=2.0), replace(FROZEN, horizon=1.0))
    for scenario in (_scenario(vi, grid=GB_DB), _scenario(vi), _scenario(vi, step=0.0), late):
        traj = simulate(scenario)
        arrays = (traj.theta, traj.omega, traj.p_m, traj.e_b, traj.x_c, traj.p_b, traj.omega_dot)
        block = traj.theta.base
        assert block is not None and block.shape[0] == 7
        for arr, row in zip(arrays, block):
            assert arr.base is block and arr.flags.c_contiguous
            assert len(arr) == traj.n_samples and arr.ctypes.data == row.ctypes.data
        assert traj.t.base is not block and traj.t.flags.c_contiguous and len(traj.t) == traj.n_samples


def test_time_column_is_derived_on_first_read():
    """t is no sampled row: built on the first read as k dt, the bytes of the row the
    sampler used to write, on the bundled scenarios and off-grid steps, and cached."""
    runs = [load_scenario(path) for path in sorted(SCENARIO_DIR.glob("*.scn"))]
    runs += [_scenario(Droop(alpha_b=2.0), sim=replace(FROZEN, dt=dt, horizon=10.0)) for dt in (7e-4, 1.0 / 3.0)]
    for sc in runs:
        traj = simulate(sc)
        assert "t" not in vars(traj)
        t = traj.t
        assert t.dtype == np.float64 and t.tobytes() == np.multiply(np.arange(traj.n_samples), sc.sim.dt).tobytes()
        assert traj.t is t and traj.n_samples == len(traj.omega) == int(round(sc.sim.horizon / sc.sim.dt)) + 1


ROW_NAMES = ("theta", "omega", "p_m", "e_b", "x_c", "p_b", "omega_dot")


def _all_rows(sc):
    """The seven rows of ``sc`` sampled all at once, one batched product of each chunk
    the pass records with its whole table, into a zeroed block of their own."""
    a, n, k_on = _plan(sc)
    block = np.zeros((7, n + 256))
    chunks = []
    if sc.disturbance.step_pu and k_on <= n:
        for _ in _sample_runs(sc, a, k_on, n, block[:, k_on:], chunks):
            pass
    for heads, table, chunk in chunks:
        np.matmul(heads, table, out=chunk)
    return block[:, : n + 1]


def test_deferred_rows_equal_the_all_rows_sampler(monkeypatch):
    """A run without a dead-band is stepped once and records its chunks; every row,
    omega included, is sampled on its first read from them: every row equals, byte for
    byte, all seven sampled at once from the same record, for each law on RK4 and on the exact
    path, with the secondary active, a step off the sample grid and a zero step, read in
    field order and in reverse, with the sampler and the step tables patched to fail
    after the run.  No row is read by simulate itself.  A dead-band run and a zero step
    have every row final, and a diverging run raises from simulate itself, before any
    row is read."""
    module = sys.modules["gridfreq.simulate"]
    sim = replace(FROZEN, horizon=10.0)
    laws = (NoStorage(), Droop(alpha_b=5.0), VirtualInertia(m_v=MV_MIN, alpha_b=2.0), IDroop.nadir_tuned(GB, 2.0))
    runs = [_scenario(law, sim=path) for law in laws for path in _both_paths(sim)]
    runs += [_scenario(law, sim=replace(sim, freeze_secondary=False)) for law in laws[1:]]
    runs.append(Scenario(GB, laws[3], Disturbance(step_pu=-DP, step_time=1.2345), replace(sim, dt=7e-4)))
    runs.append(_scenario(laws[2], step=0.0, sim=sim))
    for sc in runs:
        want = _all_rows(sc)
        for order in (ROW_NAMES, ROW_NAMES[::-1]):
            traj = simulate(sc)
            assert bool(traj.chunks) == (sc.disturbance.step_pu != 0.0)
            assert not set(ROW_NAMES) & set(vars(traj))
            with monkeypatch.context() as patch:
                patch.setattr(module, "_powers", lambda *args: pytest.fail("built a step table"))
                patch.setattr(module, "_sample_runs", lambda *args: pytest.fail("stepped the run again"))
                for name in order:
                    assert getattr(traj, name).tobytes() == want[ROW_NAMES.index(name)].tobytes(), (name, sc)
    assert simulate(_scenario(laws[2], grid=GB_DB, sim=sim)).chunks == ()
    with pytest.raises(IntegrationError):
        simulate(_scenario(laws[3], sim=SimOptions(dt=2.0, horizon=400.0, freeze_secondary=True)))


def _with_second_theta(assemble):
    """``_assemble`` with a seventh state y, y' = omega (a second theta), between x_c and
    the held p_L, read by no other state."""

    def seven(scenario, k_i):
        a = np.zeros((7, 7))
        keep = [0, 1, 2, 3, 4, 6]
        a[np.ix_(keep, keep)] = assemble(scenario, k_i)
        a[5, 1] = 1.0
        return a

    return seven


@pytest.mark.parametrize("grid", [GB, GB_DB], ids=["linear", "deadband"])
@pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "secondary"])
@pytest.mark.parametrize("exact", [False, True], ids=["rk4", "exact"])
def test_sampler_takes_its_state_count_from_a(monkeypatch, exact, freeze, grid):
    """The sampler reads its state count from A alone.  With a seventh state y' = omega
    the trajectory has eight rows; y, sampled from the record, matches theta, and every named row matches the
    six-state run, both to 1e-13 of each row's maximum: on RK4 and on the exact path,
    frozen and with k_i, with and without the +-36 mHz dead-band (crossed here).  The
    storage maxima equal the seven-state trajectory's by ``hex``."""
    module = sys.modules["gridfreq.simulate"]
    sim = SimOptions(dt=1e-2, horizon=60.0, freeze_secondary=freeze, exact=exact)
    sc = _scenario(IDroop(nu=10.0, tau_i=1.0, alpha_b=3.0), grid=grid, sim=sim)
    want = simulate(sc)
    if grid is GB_DB:
        assert np.any(np.abs(want.omega) >= grid.deadband_omega_db)
    monkeypatch.setattr(module, "_assemble", _with_second_theta(module._assemble))
    traj = simulate(sc)
    assert traj.samples.shape == (8, want.n_samples)
    _sample_rows(traj.chunks, 5)  # a row no attribute names is sampled from the record too
    pairs = [(traj.samples[5], want.theta)] + [(getattr(traj, name), getattr(want, name)) for name in ROW_NAMES]
    for (got, ref), name in zip(pairs, ("y", *ROW_NAMES)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name
    metrics = extract_metrics(traj)
    for quantity in ("p_b", "e_b"):
        assert _storage_maxima(sc, quantity).hex() == getattr(metrics, f"{quantity}_max_norm").hex(), quantity


def test_state_accessors():
    sc = _scenario(IDroop.nadir_tuned(GB, 0.0), sim=SimOptions(dt=1e-3, horizon=1.0, freeze_secondary=True))
    traj = simulate(sc)
    # a trajectory is equal only to itself, and hashes as itself
    assert traj == traj and traj != simulate(sc) and len({traj, simulate(sc)}) == 2
    assert (traj.theta[0], traj.omega[0], traj.p_m[0], traj.e_b[0], traj.x_c[0]) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert traj.n_samples == 1001
    # non-lag laws carry no internal state
    plain = simulate(_scenario(Droop(alpha_b=1.0), sim=SimOptions(dt=1e-2, horizon=1.0, freeze_secondary=True)))
    assert np.all(plain.x_c == 0.0)
