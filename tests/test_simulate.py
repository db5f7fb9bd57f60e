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
   every law), settling time
 - the exact (matrix-exponential) path: the oracle to 1e-9 pu, RK4 on the
   1200 s capacity runs, independence of the step, RK4 unchanged with a
   dead-band, zero disturbance, step snapping and divergence as in RK4
 - linear RK4 through powers of its step matrix: the scalar RK4 loop to
   rounding, fourth order against the exact path, the scalar loop's
   divergence times, and a nadir time that does not depend on the method
"""

import io
import math
from dataclasses import replace

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
    VirtualInertia,
    closed_loop_tf,
    deadband_response,
    extract_metrics,
    gb_reference_params,
    simulate,
    step_response,
    steady_state_deviation,
    write_trajectory_csv,
)
from gridfreq.simulate import TRAJECTORY_CSV_HEADER, _make_deriv
from gridfreq.tuning import mv_min_exact

GB = gb_reference_params()
DP = 0.05625
MV_MIN = 57.603866769659334
FROZEN = SimOptions(dt=1e-3, horizon=30.0, freeze_secondary=True)
EXACT = replace(FROZEN, exact=True)


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
    """The scalar RK4 loop over the derivative closure: the reference for the
    step-matrix path.  Returns the seven sampled arrays."""
    dt, n = sc.sim.dt, int(round(sc.sim.horizon / sc.sim.dt))
    deriv = _make_deriv(sc, 0.0 if sc.sim.freeze_secondary else sc.grid.secondary_gain_k_i)
    d_p, t_on = sc.disturbance.step_pu, sc.disturbance.step_time
    out = np.empty((n + 1, 7))
    x = np.zeros(5)  # theta, omega, p_m, e_b, x_c

    def f(p_l, x):
        om_dot, pm_dot, p_b, xc_dot = deriv(p_l, x[0], x[1], x[2], x[4])
        return np.array([x[1], om_dot, pm_dot, p_b, xc_dot])

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


LINEAR_LAWS = [NoStorage(), Droop(alpha_b=5.0), VirtualInertia(m_v=20.0, alpha_b=2.0), IDroop(nu=10.0, tau_i=1.0, alpha_b=3.0)]
LINEAR_IDS = ["nostorage", "droop", "vi", "idroop_off_tuned"]


@pytest.mark.parametrize("dt", [0.05, 0.01])
@pytest.mark.parametrize("controller", LINEAR_LAWS, ids=LINEAR_IDS)
def test_linear_rk4_matches_scalar_loop(controller, dt):
    """Without a dead-band RK4 runs as powers of its step matrix; the samples equal
    the scalar loop's to rounding, secondary loop active."""
    sc = _scenario(controller, sim=SimOptions(dt=dt, horizon=200.0))
    traj = simulate(sc)
    ref = _scalar_rk4(sc)
    for name, col in zip(("theta", "omega", "p_m", "e_b", "x_c", "p_b", "omega_dot"), ref):
        scale = np.max(np.abs(col))  # 0 for x_c of the laws without a lag
        assert np.max(np.abs(getattr(traj, name) - col)) <= 1e-12 * scale, name


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


def test_state_accessors():
    traj = simulate(_scenario(IDroop.nadir_tuned(GB, 0.0), sim=SimOptions(dt=1e-3, horizon=1.0, freeze_secondary=True)))
    s0 = traj.state_at(0)
    assert (s0.theta, s0.omega, s0.p_m, s0.e_b, s0.x_c) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert traj.n_samples == 1001
    # non-lag laws carry no internal state
    plain = simulate(_scenario(Droop(alpha_b=1.0), sim=SimOptions(dt=1e-2, horizon=1.0, freeze_secondary=True)))
    assert np.all(plain.x_c == 0.0)
