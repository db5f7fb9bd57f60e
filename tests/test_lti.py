"""Analytic oracle: closed-loop polynomials, step responses, nadir verdicts.

Covers:
 - polynomial forms per control law, including the first-order collapse of
   the turbine-cancelling lag droop and the order-3 off-tuned case
 - the one closed-loop formula against the three per-law polynomial forms it
   replaced, on random grids with tau_T != 1 and lags matched to within
   rounding (deflated) or just beyond it (third order)
 - the oracle's independence from the simulator's model
 - pole residuals <= 1e-10
 - step-response exactness: zero initial value, final-value consistency
 - nadir location against a frozen golden value (cross-checked offline by a
   fine-step integration), against the step response's argmin for each kind
   of mode (complex pair, two real modes, one confluent mode with a nadir at
   -tau_T / (tau_T p + 1)), and verdicts at/around the critically damped
   boundary; matched-lag iDroop with two real modes, monotone where their
   residues share a sign, agrees with the exact-path simulator
 - the central equivalence: the algebraic nadir-elimination condition
   agrees with the oracle's monotone/nadir verdict on randomized parameters
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from gridfreq import (
    ClosedLoopLti,
    Disturbance,
    Droop,
    GridParams,
    IDroop,
    NoStorage,
    Scenario,
    SimOptions,
    UnsupportedOrderError,
    VirtualInertia,
    closed_loop_tf,
    extract_metrics,
    gb_reference_params,
    mv_min_exact,
    nadir_of_response,
    simulate,
    step_response,
    steady_state_deviation,
    vi_nadir_condition,
)

GB = gb_reference_params()
DP = 0.05625
MV_MIN = 57.603866769659334

# Frozen golden: deepest point of the no-storage response to the reference
# 1.8 GW step, computed from the modal decomposition and confirmed by an
# independent RK4 run at dt = 2e-4 (nadir -7.0708879e-3 at t = 0.984).
NOSTORAGE_NADIR = -7.0708878953586254e-3
NOSTORAGE_NADIR_TIME = 0.9839353236548114


def _laws():
    return [
        NoStorage(),
        Droop(alpha_b=1.875),
        VirtualInertia(m_v=MV_MIN, alpha_b=0.0),
        VirtualInertia(m_v=100.0, alpha_b=5.0),
        IDroop.nadir_tuned(GB, 0.0),
        IDroop.nadir_tuned(GB, 15.0),
        IDroop(nu=10.0, tau_i=1.0, alpha_b=0.0),
    ]


# ------------------------------------------------------------- structure


def test_no_storage_polynomials():
    lti = closed_loop_tf(GB, NoStorage())
    assert lti.label == "no_storage"
    np.testing.assert_allclose(lti.den, [4.38, 5.38, 16.0], rtol=1e-14)
    np.testing.assert_allclose(lti.num, [-1.0, -1.0], rtol=1e-14)
    assert lti.stable


def test_boundary_vi_has_repeated_pole():
    lti = closed_loop_tf(GB, VirtualInertia(m_v=MV_MIN, alpha_b=0.0))
    p1, p2 = lti.poles
    assert abs(p1 - p2) <= 1e-6 * abs(p1)
    assert abs(p1.imag) <= 1e-6 * abs(p1)


def test_tuned_idroop_is_first_order():
    lti = closed_loop_tf(GB, IDroop.nadir_tuned(GB, 0.0))
    assert lti.order == 1
    assert lti.label == "idroop_nadir_tuned"
    assert lti.poles[0] == pytest.approx(-16.0 / 4.38, rel=1e-12)
    assert lti.poles[0] == pytest.approx(-3.65296803653, rel=1e-9)


def test_matched_lag_idroop_is_second_order():
    lti = closed_loop_tf(GB, IDroop(nu=10.0, tau_i=1.0, alpha_b=0.0))
    assert lti.order == 2
    assert lti.label == "idroop_matched_lag"
    np.testing.assert_allclose(lti.den, [4.38, 4.38 + 11.0, 16.0], rtol=1e-14)


def test_off_tuned_idroop_is_third_order():
    grid = gb_reference_params(turbine_tau=2.0)
    lti = closed_loop_tf(grid, IDroop(nu=15.0, tau_i=1.0, alpha_b=0.0))
    assert lti.order == 3
    assert lti.stable
    with pytest.raises(UnsupportedOrderError):
        step_response(lti, DP, 1.0)
    with pytest.raises(UnsupportedOrderError):
        nadir_of_response(lti, DP)


def pole_residual(lti: ClosedLoopLti) -> float:
    """Worst relative residual |den(p)| / sum_i |den_i p^i| over the poles."""
    worst = 0.0
    for p in lti.poles:
        scale = sum(
            abs(c) * abs(p) ** (len(lti.den) - 1 - i) for i, c in enumerate(lti.den)
        )
        worst = max(worst, abs(np.polyval(lti.den, p)) / max(scale, 1e-300))
    return worst


def _per_law_reference(params, cfg):
    """``(label, num, den)`` of the closed loop, one polynomial form per law family."""
    two_h, tau_t = 2.0 * params.inertia_h, params.turbine_tau
    a_l, a_g = params.load_damping_alpha_l, params.gen_inv_droop_alpha_g
    if isinstance(cfg, (NoStorage, Droop, VirtualInertia)):
        m = two_h + (cfg.m_v if isinstance(cfg, VirtualInertia) else 0.0)
        label = {NoStorage: "no_storage", Droop: "droop", VirtualInertia: "virtual_inertia"}[type(cfg)]
        return label, [-tau_t, -1.0], [m * tau_t, tau_t * (a_l + cfg.alpha_b) + m, a_l + cfg.alpha_b + a_g]
    nu, tau_i, a_b = cfg.nu, cfg.tau_i, cfg.alpha_b
    sigma = a_l + a_b + a_g
    if math.isclose(tau_i, tau_t, rel_tol=1e-12, abs_tol=0.0):
        if math.isclose(nu, a_b + a_g, rel_tol=1e-12, abs_tol=0.0):
            return "idroop_nadir_tuned", [-1.0], [two_h, sigma]
        return "idroop_matched_lag", [-tau_t, -1.0], [two_h * tau_t, two_h + tau_t * (a_l + nu), sigma]
    lags = np.polymul([tau_i, 1.0], [tau_t, 1.0])
    den = np.polymul([two_h, a_l + nu], lags)
    den = np.polyadd(den, -(nu - a_b) * np.array([tau_t, 1.0]))
    den = np.polyadd(den, a_g * np.array([tau_i, 1.0]))
    return "idroop", -lags, den


def test_closed_loop_matches_per_law_polynomials():
    """One formula for every law equals the per-law forms on random grids with
    tau_T != 1, where -1/tau_T is inexact: a lag within 1e-13 of the turbine's
    deflates, one 1e-9 away stays third order."""
    rng = np.random.RandomState(2027)
    orders = {}
    for _ in range(150):
        params = GridParams(
            base_power=32.0,
            nominal_freq=60.0,
            inertia_h=rng.uniform(0.5, 10.0),
            turbine_tau=rng.uniform(0.25, 3.0),
            load_damping_alpha_l=rng.uniform(0.0, 2.0),
            gen_inv_droop_alpha_g=rng.uniform(5.0, 30.0),
            secondary_gain_k_i=0.0,
        )
        tau_t, alpha_b = params.turbine_tau, rng.uniform(0.0, 15.0)
        tuned_nu = alpha_b + params.gen_inv_droop_alpha_g
        laws = [
            NoStorage(),
            Droop(alpha_b=alpha_b),
            VirtualInertia(m_v=rng.uniform(0.0, 150.0), alpha_b=alpha_b),
            IDroop.nadir_tuned(params, alpha_b),
            IDroop(nu=rng.uniform(1.0, 60.0), tau_i=tau_t, alpha_b=alpha_b),
        ]
        for factor in (1 + 1e-13, 1 - 1e-13, 1 + 1e-9, 1 - 1e-9):
            for nu in (tuned_nu, rng.uniform(1.0, 60.0)):
                laws.append(IDroop(nu=nu, tau_i=tau_t * factor, alpha_b=alpha_b))
        for law in laws:
            label, num, den = _per_law_reference(params, law)
            lti = closed_loop_tf(params, law)
            assert (lti.label, lti.order) == (label, len(den) - 1), law
            assert lti.stable == bool(np.all(np.roots(den).real < 0.0)), law
            np.testing.assert_allclose(lti.num, num, rtol=1e-12, atol=0.0, err_msg=repr(law))
            np.testing.assert_allclose(lti.den, den, rtol=1e-12, atol=0.0, err_msg=repr(law))
            orders[label, lti.order] = orders.get((label, lti.order), 0) + 1
    # the near-matched lags take both sides of the deflation
    assert orders["idroop_nadir_tuned", 1] == 450 and orders["idroop_matched_lag", 2] == 450
    assert orders["idroop", 3] == 600


def test_oracle_is_independent_of_the_simulator():
    """lti.py writes its own polynomials: it never reads the realization or the
    simulator's assembled matrix, and never imports the simulator."""
    source = Path(closed_loop_tf.__code__.co_filename).read_text()
    for name in ("realization", "_assemble"):
        assert name not in source, name
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert not [m for m in imported if "simulate" in m.split(".")], imported


def test_pole_residuals():
    """Denominator evaluated at each reported pole: relative residual <= 1e-10."""
    for law in _laws():
        lti = closed_loop_tf(GB, law)
        assert pole_residual(lti) <= 1e-10, lti.label


def test_deadband_rejected():
    grid = gb_reference_params(deadband_omega_db=0.0006)
    with pytest.raises(ValueError):
        closed_loop_tf(grid, NoStorage())


# ----------------------------------------------------------- step response


def test_step_starts_at_zero():
    """States cannot jump: omega(0) = 0 for every law."""
    for law in _laws():
        lti = closed_loop_tf(GB, law)
        if lti.order > 2:
            continue
        assert abs(step_response(lti, DP, 0.0)) <= 1e-15


def test_step_final_value():
    """At 10x the slowest time constant the response sits on the droop value."""
    for law in _laws():
        lti = closed_loop_tf(GB, law)
        if lti.order > 2:
            continue
        slowest = 1.0 / min(abs(p.real) for p in lti.poles)
        expected = steady_state_deviation(
            DP, GB.load_damping_alpha_l, GB.gen_inv_droop_alpha_g, law.alpha_b
        )
        got = step_response(lti, DP, 10.0 * slowest)
        assert got == pytest.approx(expected, abs=1e-6), lti.label


def test_step_rejects_negative_time():
    lti = closed_loop_tf(GB, NoStorage())
    with pytest.raises(ValueError):
        step_response(lti, DP, -0.1)
    with pytest.raises(ValueError):
        step_response(lti, DP, np.array([0.0, -1.0]))


def test_step_vectorized_matches_scalar():
    lti = closed_loop_tf(GB, NoStorage())
    ts = np.linspace(0.0, 5.0, 11)
    vec = step_response(lti, DP, ts)
    for t, v in zip(ts, vec):
        assert step_response(lti, DP, float(t)) == pytest.approx(v, rel=1e-14, abs=1e-300)


# ------------------------------------------------------------ nadir verdict


def test_tuned_idroop_monotone():
    lti = closed_loop_tf(GB, IDroop.nadir_tuned(GB, 0.0))
    assert nadir_of_response(lti, DP) is None


def test_no_storage_nadir_golden():
    lti = closed_loop_tf(GB, NoStorage())
    point = nadir_of_response(lti, DP)
    assert point is not None
    print(f"\n  no-storage nadir: {point.omega:.10e} pu at {point.time:.6f} s")
    assert point.omega == pytest.approx(NOSTORAGE_NADIR, rel=1e-9)
    assert point.time == pytest.approx(NOSTORAGE_NADIR_TIME, rel=1e-9)
    # strictly deeper than the steady-state deviation
    assert point.omega < steady_state_deviation(DP, 1.0, 15.0, 0.0)


@pytest.mark.parametrize(
    "grid, law, kind",
    [
        (GB, NoStorage(), "complex"),
        (GB, IDroop(nu=10.0, tau_i=1.0, alpha_b=0.0), "complex"),
        (GB, IDroop(nu=14.0, tau_i=1.0, alpha_b=0.0), "real"),
        (gb_reference_params(inertia_h=0.5), Droop(alpha_b=math.sqrt(60.0)), "confluent"),
    ],
    ids=["complex-no-storage", "complex-matched-lag-nu10", "real-matched-lag-nu14", "confluent-droop"],
)
def test_nadir_point_is_first_minimum_of_step_response(grid, law, kind):
    """Each kind of mode pair returns the argmin of the step response on a grid of
    step 1e-5 t* over [0, 2 t*].  Droop at alpha_b = sqrt(60) with H = 0.5 puts a double
    pole at p = -(1 + sqrt(15)), where the nadir is t* = -tau_T / (tau_T p + 1)."""
    lti = closed_loop_tf(grid, law)
    p1, p2 = lti.poles
    kinds = {"confluent": abs(p1 - p2) <= 1e-7 * abs(p1), "complex": p1.imag != 0.0}
    assert kinds == {"confluent": kind == "confluent", "complex": kind == "complex"}, lti.poles
    point = nadir_of_response(lti, DP)
    assert point is not None
    ts = np.arange(200_001) * (1e-5 * point.time)
    ys = step_response(lti, DP, ts)
    k = int(np.argmin(ys))
    assert abs(ts[k] - point.time) <= 1e-5 * point.time
    assert ys[k] == pytest.approx(point.omega, rel=1e-9)
    assert point.omega <= ys[k] + 1e-15 * abs(ys[k])
    if kind == "confluent":
        tau, p = grid.turbine_tau, -(1.0 + math.sqrt(15.0))
        assert point.time == pytest.approx(-tau / (tau * p + 1.0), rel=1e-12)
        assert point.time == pytest.approx(0.258199, abs=1e-6)


def test_boundary_verdicts():
    """Monotone exactly at the boundary, a nadir just below, none just above."""
    at = closed_loop_tf(GB, VirtualInertia(m_v=MV_MIN, alpha_b=0.0))
    assert nadir_of_response(at, DP) is None
    below = closed_loop_tf(GB, VirtualInertia(m_v=0.98 * MV_MIN, alpha_b=0.0))
    assert nadir_of_response(below, DP) is not None
    above = closed_loop_tf(GB, VirtualInertia(m_v=1.02 * MV_MIN, alpha_b=0.0))
    assert nadir_of_response(above, DP) is None


@pytest.mark.parametrize("nu, monotone", [(10.0, False), (14.0, False), (16.0, True), (20.0, True), (30.0, True), (60.0, True)])
def test_matched_lag_verdict_agrees_with_exact_simulation(nu, monotone):
    """Matched-lag iDroop (tau_i = tau_T, alpha_b = 0) past nu = alpha_b + alpha_g = 15
    has two real modes whose residues share a sign, so no nadir; below it, a nadir.  The
    exact-path simulator (30 s at 1 ms, frozen) reads the same verdict to 1e-12 pu."""
    controller = IDroop(nu=nu, tau_i=GB.turbine_tau, alpha_b=0.0)
    assert (nadir_of_response(closed_loop_tf(GB, controller), DP) is None) == monotone
    sim = SimOptions(dt=1e-3, horizon=30.0, freeze_secondary=True, exact=True)
    traj = simulate(Scenario(GB, controller, Disturbance(step_pu=DP), sim))
    assert extract_metrics(traj, monotone_tol=1e-12).monotone == monotone


def test_zero_disturbance_is_flat():
    lti = closed_loop_tf(GB, NoStorage())
    assert nadir_of_response(lti, 0.0) is None


def test_unstable_loop_rejected():
    fake = ClosedLoopLti(
        num=np.array([-1.0]),
        den=np.array([1.0, -2.0]),
        poles=np.array([2.0 + 0j]),
        label="synthetic",
        stable=False,
    )
    with pytest.raises(ValueError):
        nadir_of_response(fake, DP)


def test_condition_oracle_equivalence():
    """Algebraic nadir condition <=> oracle verdict on 100 random tuples.

    Tuples within 1e-6 relative margin of the boundary are skipped, per the
    stated boundary slack.
    """
    rng = np.random.RandomState(123)
    checked = 0
    while checked < 100:
        params = GridParams(
            base_power=32.0,
            nominal_freq=60.0,
            inertia_h=rng.uniform(0.5, 10.0),
            turbine_tau=rng.uniform(0.25, 3.0),
            load_damping_alpha_l=rng.uniform(0.0, 2.0),
            gen_inv_droop_alpha_g=rng.uniform(5.0, 30.0),
            secondary_gain_k_i=0.0,
        )
        alpha_b = rng.uniform(0.0, 15.0)
        m_v = rng.uniform(0.0, 150.0)
        check = vi_nadir_condition(params, alpha_b, m_v)
        scale = params.load_damping_alpha_l + params.gen_inv_droop_alpha_g + alpha_b
        if abs(check.margin) <= 1e-6 * scale:
            continue
        lti = closed_loop_tf(params, VirtualInertia(m_v=m_v, alpha_b=alpha_b))
        monotone = nadir_of_response(lti, DP) is None
        assert monotone == check.eliminated, (params, alpha_b, m_v, check.margin)
        checked += 1
    print(f"\n  equivalence verified on {checked} random tuples")
