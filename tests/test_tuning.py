"""Tuning rules: steady state, nadir-elimination boundary, droop sizing.

Covers:
 - steady-state deviation spot values and monotonicity in alpha_b
 - the exact and linearized minimum-virtual-inertia rules and their gap
 - boundary identities: zero margin and zero closed-loop discriminant at
   m_v = m_v_min (randomized over valid parameters)
 - droop sizing from a deviation target, including the clamp at zero
 - the disturbance-normalized energy capacity estimate alpha_b / k_i
"""

import math

import numpy as np
import pytest

from gridfreq import (
    GridParams,
    design_droop_from_target,
    energy_capacity_estimate,
    gb_reference_params,
    mv_min_exact,
    mv_min_from_target,
    mv_min_linear,
    steady_state_deviation,
    vi_nadir_condition,
)

GB = gb_reference_params()
DP = 0.05625  # 1.8 GW on the 32 GW base
# Equality checks against the nadir-elimination boundary use this absolute
# tolerance, in pu units.
BOUNDARY_TOL = 1e-9

# Frozen from direct evaluation of the closed-form rules with the reference
# parameters (beta = sqrt(15) + sqrt(16) = 7.872983346207417).
MV_MIN_EXACT_AB0 = 57.603866769659334
MV_MIN_EXACT_AB15 = 84.74771730569564


def _random_params(rng):
    return GridParams(
        base_power=32.0,
        nominal_freq=60.0,
        inertia_h=rng.uniform(0.5, 10.0),
        turbine_tau=rng.uniform(0.25, 3.0),
        load_damping_alpha_l=rng.uniform(0.0, 2.0),
        gen_inv_droop_alpha_g=rng.uniform(5.0, 30.0),
        secondary_gain_k_i=0.0,
    )


# ------------------------------------------------------------ steady state


def test_steady_state_values():
    assert steady_state_deviation(DP, 1.0, 15.0, 0.0) == pytest.approx(-3.515625e-3, rel=1e-12)
    assert steady_state_deviation(DP, 1.0, 15.0, 0.0) * 60 == pytest.approx(-0.2109375, rel=1e-12)
    assert steady_state_deviation(0.0, 1.0, 15.0, 7.3) == 0.0
    # doubling the aggregate droop halves the deviation
    assert steady_state_deviation(DP, 1.0, 15.0, 16.0) == pytest.approx(-1.7578125e-3, rel=1e-12)


def test_steady_state_requires_droop():
    with pytest.raises(ValueError):
        steady_state_deviation(DP, 0.0, 0.0, 0.0)


def test_steady_state_monotone_in_alpha_b():
    devs = [steady_state_deviation(DP, 1.0, 15.0, ab) for ab in np.linspace(0, 20, 41)]
    diffs = np.diff(devs)
    assert np.all(diffs > 0), "more droop must shrink the (negative) deviation toward 0"


# ------------------------------------------------- minimum virtual inertia


def test_mv_min_exact_values():
    assert mv_min_exact(GB, 0.0) == pytest.approx(MV_MIN_EXACT_AB0, rel=1e-13)
    # matches the 4-significant-figure value 57.6039
    assert mv_min_exact(GB, 0.0) == pytest.approx(57.6039, rel=1e-4)
    assert mv_min_exact(GB, 15.0) == pytest.approx(MV_MIN_EXACT_AB15, rel=1e-13)
    # in a stiff high-inertia system no extra inertia is needed
    assert mv_min_exact(gb_reference_params(inertia_h=50.0), 0.0) < 0


def test_mv_min_linear_values():
    assert mv_min_linear(GB, 0.0) == pytest.approx(55.62, rel=1e-12)
    assert mv_min_linear(GB, 15.0) == pytest.approx(85.62, rel=1e-12)


def test_mv_min_gap():
    """Linear vs exact: ~3.44% at alpha_b = 0 and <= 5% across [0, 15]."""
    gap0 = abs(mv_min_linear(GB, 0.0) - mv_min_exact(GB, 0.0)) / mv_min_exact(GB, 0.0)
    assert gap0 == pytest.approx(0.03444, abs=2e-4)
    worst = max(
        abs(mv_min_linear(GB, ab) - mv_min_exact(GB, ab)) / mv_min_exact(GB, ab)
        for ab in np.linspace(0.0, 15.0, 301)
    )
    print(f"\n  worst linear-vs-exact gap over [0, 15]: {worst:.4%}")
    assert worst <= 0.05


def test_nadir_condition_spot_cases():
    no_inertia = vi_nadir_condition(GB, 0.0, 0.0)
    assert not no_inertia.eliminated  # droop alone cannot remove the dip here
    boundary = vi_nadir_condition(GB, 0.0, MV_MIN_EXACT_AB0)
    assert boundary.eliminated
    assert abs(boundary.margin) <= BOUNDARY_TOL
    ample = vi_nadir_condition(GB, 0.0, 100.0)
    assert ample.eliminated and ample.margin > 0


def test_nadir_condition_validation():
    with pytest.raises(ValueError):
        vi_nadir_condition(GB, -1.0, 0.0)
    with pytest.raises(ValueError):
        vi_nadir_condition(GB, 0.0, -1.0)


def test_boundary_margin_randomized():
    """margin(m_v_min) == 0 to 1e-9 for random valid parameters."""
    rng = np.random.RandomState(20240817)
    for _ in range(100):
        p = _random_params(rng)
        ab = rng.uniform(0.0, 15.0)
        mv = mv_min_exact(p, ab)
        if mv < 0:
            continue  # boundary below zero inertia: nothing to pin
        check = vi_nadir_condition(p, ab, mv)
        assert abs(check.margin) <= BOUNDARY_TOL, (p, ab, mv, check.margin)


def test_discriminant_vanishes_at_boundary():
    """The closed-loop quadratic is critically damped at m_v = m_v_min.

    disc = (tau (a_l + a_b) + M)^2 - 4 M tau (a_l + a_b + a_g) with
    M = 2H + m_v_min must vanish, within 1e-9 of the squared term's scale.
    """
    rng = np.random.RandomState(7)
    for _ in range(100):
        p = _random_params(rng)
        ab = rng.uniform(0.0, 15.0)
        mv = mv_min_exact(p, ab)
        if mv < 0:
            continue
        m = 2 * p.inertia_h + mv
        tau = p.turbine_tau
        a_tilde = p.load_damping_alpha_l + ab
        b = tau * a_tilde + m
        four_ac = 4 * m * tau * (a_tilde + p.gen_inv_droop_alpha_g)
        disc = b * b - four_ac
        assert abs(disc) <= 1e-9 * max(b * b, four_ac), (p, ab, disc)


def test_vi_design_bundle():
    """Both minimum-inertia rules at alpha_b = 0, and the exact rule as tau_T beta^2 - 2H."""
    alpha_b = 0.0
    beta = math.sqrt(GB.gen_inv_droop_alpha_g) + math.sqrt(GB.load_damping_alpha_l + GB.gen_inv_droop_alpha_g + alpha_b)
    assert beta == pytest.approx(7.872983346207417, rel=1e-14)
    assert mv_min_exact(GB, alpha_b) == pytest.approx(MV_MIN_EXACT_AB0, rel=1e-13)
    assert mv_min_exact(GB, alpha_b) == pytest.approx(GB.turbine_tau * beta**2 - 2 * GB.inertia_h, rel=1e-14)
    assert mv_min_linear(GB, alpha_b) == pytest.approx(55.62, rel=1e-12)


# ------------------------------------------------------------ droop sizing


def test_design_droop_from_target():
    # 0.2 Hz target on 60 Hz
    target = 0.2 / 60.0
    assert design_droop_from_target(DP, target, 15.0) == pytest.approx(1.875, rel=1e-9)
    # 0.5 Hz: generators alone overshoot the requirement, clamp at zero
    assert design_droop_from_target(DP, 0.5 / 60.0, 15.0) == 0.0
    # target exactly the generators-only deviation
    assert design_droop_from_target(DP, DP / 15.0, 15.0) == pytest.approx(0.0, abs=1e-12)
    # fig8's loosest target: 0.05625 / 3.75e-3 rounds to one ulp above 15,
    # which is rounding, not a droop gain; a slightly tighter target is one
    assert abs(DP / 3.75e-3) - 15.0 > 0.0
    assert design_droop_from_target(DP, 3.75e-3, 15.0) == 0.0
    assert design_droop_from_target(DP, 3.75e-3 * (1.0 - 1e-12), 15.0) > 0.0
    with pytest.raises(ValueError):
        design_droop_from_target(DP, 0.0, 15.0)
    # a non-finite target is rejected, not clamped to alpha_b = 0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            design_droop_from_target(DP, bad, 15.0)
    # a finite target whose droop gain overflows is rejected by name
    for tiny in (1e-320, -1e-320):
        with pytest.raises(ValueError, match=r"\|delta_p/delta_omega_target\| must be finite"):
            design_droop_from_target(DP, tiny, 15.0)


def test_mv_min_from_target():
    target = 0.2 / 60.0
    assert mv_min_from_target(DP, target, GB) == pytest.approx(59.37, rel=1e-9)
    # clamped branch falls back to the alpha_b = 0 linear rule
    assert mv_min_from_target(DP, 0.5 / 60.0, GB) == pytest.approx(55.62, rel=1e-12)
    # substitution identity: the target rule is the linear rule at the
    # designed alpha_b when unclamped
    ab = design_droop_from_target(DP, target, 15.0)
    assert mv_min_from_target(DP, target, GB) == pytest.approx(mv_min_linear(GB, ab), rel=1e-9)


# -------------------------------------------------------- energy estimate


def test_energy_capacity_estimate():
    assert energy_capacity_estimate(1.875, 0.05) == pytest.approx(37.5, rel=1e-12)
    assert energy_capacity_estimate(0.0, 0.05) == 0.0
    assert energy_capacity_estimate(15.0, 0.05) == pytest.approx(300.0, rel=1e-12)
    with pytest.raises(ValueError):
        energy_capacity_estimate(1.875, 0.0)
    with pytest.raises(ValueError):
        energy_capacity_estimate(-1.0, 0.05)
