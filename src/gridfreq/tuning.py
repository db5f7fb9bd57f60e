"""Algebraic design rules for storage-based frequency control.

All rules operate on the linearized single-area loop with the secondary
gain at zero.  Writing M = 2H + m_v for the effective inertia and
sigma = alpha_l + alpha_g + alpha_b for the aggregate inverse droop, the
closed loop from the power imbalance to omega is

    omega_hat / p_L_hat = -(tau_T s + 1) / (M tau_T s^2 + (tau_T (alpha_l + alpha_b) + M) s + sigma)

and every rule here is a statement about that polynomial:

* the nadir is eliminated exactly when
  M (1/tau_T - 2 sqrt(alpha_g / (M tau_T))) >= alpha_l + alpha_b;
* equivalently m_v >= m_v_min = tau_T beta^2 - 2H with
  beta = sqrt(alpha_g) + sqrt(alpha_l + alpha_g + alpha_b), the choice that
  makes the denominator critically damped (zero discriminant);
* a linear approximation m_v_min ~ 2 tau_T alpha_b + 4 tau_T alpha_g - 2H
  holds when alpha_b and alpha_l are small against alpha_g.

The droop sizing rule inverts the steady-state relation
omega(inf) = -delta_p / sigma for a demanded deviation target.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import GridParams, require_bound

__all__ = [
    "ViNadirCheck",
    "steady_state_deviation",
    "vi_nadir_condition",
    "mv_min_exact",
    "mv_min_linear",
    "design_droop_from_target",
    "mv_min_from_target",
    "energy_capacity_estimate",
]

# A droop excess |delta_p/delta_omega| - alpha_g this many ulps of alpha_g or
# less is rounding: the inputs and the division each round once.
_ROUNDING_ULPS = 4


class ViNadirCheck(NamedTuple):
    """Outcome of the algebraic nadir-elimination test."""

    eliminated: bool
    margin: float


def steady_state_deviation(
    delta_p: float, alpha_l: float, alpha_g: float, alpha_b: float
) -> float:
    """Post-transient frequency deviation -delta_p / (alpha_l + alpha_g + alpha_b).

    Valid with the secondary gain at zero; the aggregate inverse droop alone
    fixes where the frequency lands.
    """
    total = alpha_l + alpha_g + alpha_b
    require_bound("aggregate inverse droop", total, positive=True)
    return -delta_p / total


def vi_nadir_condition(params: GridParams, alpha_b: float, m_v: float) -> ViNadirCheck:
    """Test whether (alpha_b, m_v) eliminates the nadir; margin >= 0 means yes.

    margin = (2H + m_v) (1/tau_T - 2 sqrt(alpha_g / ((2H + m_v) tau_T)))
             - alpha_l - alpha_b
    """
    require_bound("m_v", m_v)
    require_bound("alpha_b", alpha_b)
    m = 2.0 * params.inertia_h + m_v
    tau = params.turbine_tau
    margin = (
        m * (1.0 / tau - 2.0 * math.sqrt(params.gen_inv_droop_alpha_g / (tau * m)))
        - params.load_damping_alpha_l
        - alpha_b
    )
    return ViNadirCheck(eliminated=margin >= 0.0, margin=margin)


def mv_min_exact(params: GridParams, alpha_b: float) -> float:
    """Smallest virtual inertia that removes the nadir: tau_T beta^2 - 2H.

    beta = sqrt(alpha_g) + sqrt(alpha_l + alpha_g + alpha_b).  A negative
    result means the physical inertia already suffices; callers clamp to 0
    when configuring a controller (the raw value carries the design margin).
    """
    require_bound("alpha_b", alpha_b)
    beta = math.sqrt(params.gen_inv_droop_alpha_g) + math.sqrt(
        params.load_damping_alpha_l + params.gen_inv_droop_alpha_g + alpha_b
    )
    return params.turbine_tau * beta * beta - 2.0 * params.inertia_h


def mv_min_linear(params: GridParams, alpha_b: float) -> float:
    """Linearized minimum virtual inertia 2 tau_T alpha_b + 4 tau_T alpha_g - 2H."""
    require_bound("alpha_b", alpha_b)
    tau = params.turbine_tau
    return 2.0 * tau * alpha_b + 4.0 * tau * params.gen_inv_droop_alpha_g - 2.0 * params.inertia_h


def design_droop_from_target(
    delta_p: float, delta_omega_target: float, alpha_g: float
) -> float:
    """Inverse storage droop needed to cap the deviation: |delta_p/delta_omega| - alpha_g.

    Clamped at zero when the generators alone meet the target, including a
    positive excess within rounding of alpha_g (a few ulps), so a target that
    alpha_g meets exactly gives exactly 0.
    """
    if delta_omega_target == 0:
        raise ValueError("delta_omega_target must be nonzero")
    if not math.isfinite(delta_omega_target):
        raise ValueError(f"delta_omega_target must be finite, got {delta_omega_target}")
    ratio = abs(delta_p / delta_omega_target)
    if not math.isfinite(ratio):
        raise ValueError(
            f"|delta_p/delta_omega_target| must be finite, got {ratio} for delta_p={delta_p}, "
            f"delta_omega_target={delta_omega_target}"
        )
    excess = ratio - alpha_g
    return excess if excess > _ROUNDING_ULPS * math.ulp(alpha_g) else 0.0


def mv_min_from_target(
    delta_p: float,
    delta_omega_target: float,
    params: GridParams,
) -> float:
    """Minimum virtual inertia for a deviation target: the linear rule at the
    droop :func:`design_droop_from_target` sizes for it.

    Unclamped, this is 2 tau_T |delta_p/delta_omega| + 2 tau_T alpha_g - 2H;
    when the target needs no storage droop it is the linear alpha_b = 0 rule.
    """
    return mv_min_linear(params, design_droop_from_target(delta_p, delta_omega_target, params.gen_inv_droop_alpha_g))


def energy_capacity_estimate(alpha_b: float, k_i: float) -> float:
    """Disturbance-normalized storage energy requirement, alpha_b / k_i [s].

    With the secondary loop active, the storage keeps injecting
    -alpha_b * omega until the frequency is restored, integrating to
    alpha_b * delta_p / k_i of energy; normalized by the disturbance this
    is alpha_b / k_i seconds.  Undefined without secondary control (the
    droop part then stores energy without bound).
    """
    require_bound("alpha_b", alpha_b)
    if k_i <= 0:
        raise ValueError("energy estimate needs k_i > 0; without secondary control the stored energy is unbounded for alpha_b > 0")
    return alpha_b / k_i
