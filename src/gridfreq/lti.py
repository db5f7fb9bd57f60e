"""Closed-form step responses of the linearized loop: the oracle path.

With the secondary gain at zero and no governor dead-band, the loop from
the power imbalance to the frequency deviation is a rational function.
Each control law's transfer function from omega to p_b, c(s) = n_c(s) /
d_c(s), is written here once, from the law's definition:

* no storage 0, droop -alpha_b, virtual inertia -(m_v s + alpha_b);
* lag droop -(nu tau_i s + alpha_b) / (tau_i s + 1).

This encoding is the oracle's own, independent of the state-space model
the simulator integrates, so that each cross-checks the other.  With
T(s) = tau_T s + 1 every loop is

      G(s) = -T d_c / ((2H s + alpha_l) T d_c - T n_c + alpha_g d_c).

A lag droop whose lag matches the turbine (tau_i = tau_T) cancels one
factor T and is second order; when additionally nu = alpha_b + alpha_g it
cancels a second one, leaving the first-order loop

      G(s) = -1 / (2H s + sigma),   sigma = alpha_l + alpha_b + alpha_g.

A factor T is divided out while -1/tau_T is a root of both polynomials to
within 1e-12 of their coefficient scale, so a tuning that misses by
rounding still collapses.  A lag droop with tau_i != tau_T is genuinely
third order; its polynomial form and poles are still built here, but
closed-form step responses are limited to order <= 2 (everything the
capacity and tuning analysis needs) and higher orders are delegated to the
time-domain simulator.

Step responses and nadir verdicts read one modal form, the partial
fractions of G(s)/s: y(t)/delta_p = a + sum Re((b + c t) e^{p t}).  Each
distinct pole is a mode with c = 0; a conjugate pair is two.  A (nearly)
repeated pole is one confluent mode: the critically damped boundary is the
case the tuning rules single out, so it is not approximated by pole
perturbation, and poles within 1e-7 relative collapse onto it, avoiding the
catastrophic residue cancellation of the two-mode form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .controllers import Droop, IDroop, NoStorage, StorageController, VirtualInertia
from .model import GridParams

__all__ = [
    "UnsupportedOrderError",
    "ClosedLoopLti",
    "NadirPoint",
    "closed_loop_tf",
    "step_response",
    "nadir_of_response",
]

# Pole pairs closer than this (relative to their magnitude) are treated as
# repeated; the two-exponential form loses precision long before this.
_REPEATED_POLE_RTOL = 1e-7

# A stationary point this close to t = 0 is integrator-of-the-mind fuzz,
# not an interior nadir.
_STATIONARY_TOL = 1e-9

# Relative tolerance for recognizing the exact-cancellation tunings.
_CANCEL_RTOL = 1e-12

# Label suffix by the number of turbine factors (tau_T s + 1) the law cancels.
_CANCELLED_LABELS = ("", "_matched_lag", "_nadir_tuned")


class UnsupportedOrderError(ValueError):
    """Closed-form response requested for a loop of order > 2."""


class NadirPoint(NamedTuple):
    """Location and depth of the first stationary point of the response."""

    omega: float
    time: float


@dataclass(frozen=True)
class ClosedLoopLti:
    """Rational closed loop omega_hat / p_L_hat.

    ``num``/``den`` are real polynomial coefficients, highest power first;
    ``poles`` are the denominator roots.  ``stable`` is False when any pole
    has a positive real part (flagged, not an error).
    """

    num: np.ndarray
    den: np.ndarray
    poles: np.ndarray
    label: str
    stable: bool

    @property
    def order(self) -> int:
        return len(self.den) - 1


def _law_polynomials(cfg: StorageController) -> tuple[list[float], list[float], str]:
    """The law's c(s) = n_c(s) / d_c(s) from omega to p_b, written from its
    definition, and the base of its label."""
    if isinstance(cfg, NoStorage):
        return [0.0], [1.0], "no_storage"
    if isinstance(cfg, Droop):
        return [-cfg.alpha_b], [1.0], "droop"
    if isinstance(cfg, VirtualInertia):
        return [-cfg.m_v, -cfg.alpha_b], [1.0], "virtual_inertia"
    if isinstance(cfg, IDroop):
        # (nu - alpha_b) / (tau_i s + 1) - nu over one denominator
        return [-cfg.nu * cfg.tau_i, -cfg.alpha_b], [cfg.tau_i, 1.0], "idroop"
    raise TypeError(f"unsupported controller type: {type(cfg).__name__}")


def _has_root(poly: np.ndarray, x: float) -> bool:
    """Whether x is a root of ``poly`` to within _CANCEL_RTOL of its absolute-coefficient scale."""
    scale = np.polyval(np.abs(poly), abs(x))
    return abs(np.polyval(poly, x)) <= _CANCEL_RTOL * scale


def closed_loop_tf(params: GridParams, cfg: StorageController) -> ClosedLoopLti:
    """Assemble the closed loop for one control law.

    The secondary gain is treated as zero (its ~minutes timescale is
    irrelevant to the transient the oracle certifies); a nonzero dead-band
    is rejected since the loop is then not linear.
    """
    if params.deadband_omega_db != 0.0:
        raise ValueError("closed_loop_tf covers the linear loop only; deadband_omega_db must be 0")
    n_c, d_c, label = _law_polynomials(cfg)
    lag_t = np.array([params.turbine_tau, 1.0])
    swing = [2.0 * params.inertia_h, params.load_damping_alpha_l]
    t_dc = np.polymul(lag_t, d_c)
    num = -t_dc
    den = np.polysub(np.polymul(swing, t_dc), np.polymul(lag_t, n_c))
    den = np.polyadd(den, params.gen_inv_droop_alpha_g * np.asarray(d_c))
    # Divide out each turbine factor the law cancels; the count names the tuning.
    cancelled, turbine_pole = 0, -1.0 / params.turbine_tau
    while _has_root(num, turbine_pole) and _has_root(den, turbine_pole):
        num, den = np.polydiv(num, lag_t)[0], np.polydiv(den, lag_t)[0]
        cancelled += 1
    poles = np.roots(den)
    poles = poles[np.argsort(poles.real)]
    return ClosedLoopLti(
        num=num,
        den=den,
        poles=poles,
        label=label + _CANCELLED_LABELS[cancelled],
        stable=bool(np.all(poles.real < 0.0)),
    )


def _modes(lti: ClosedLoopLti) -> tuple[float, list]:
    """``a`` and the modes ``(p, b, c)`` of G(s)/s at order <= 2: y/delta_p = a + sum Re((b + c t) e^{pt}).

    A distinct pole has c = 0 and b = N(p)/(p D'(p)).  A (nearly) repeated pole, with
    D = d2 (s - p)^2, is one mode: c = N(p)/(d2 p) and b = (N'(p) p - N(p)) / (d2 p^2).
    """
    if lti.order > 2:
        raise UnsupportedOrderError(f"loop order {lti.order} > 2; use the time-domain simulator")
    num, den = lti.num, lti.den
    a = float(np.polyval(num, 0.0)) / float(np.polyval(den, 0.0))
    p1, p2 = lti.poles[0], lti.poles[-1]
    if lti.order == 2 and abs(p1 - p2) <= _REPEATED_POLE_RTOL * max(1.0, abs(p1), abs(p2)):
        p = 0.5 * float(p1.real + p2.real)
        d2 = den[0]
        n_p = float(np.polyval(num, p))
        dn_p = float(np.polyval(np.polyder(num), p)) if len(num) > 1 else 0.0
        return a, [(p, (dn_p * p - n_p) / (d2 * p * p), n_p / (d2 * p))]
    dprime = np.polyder(den)
    return a, [(p, np.polyval(num, p) / (p * np.polyval(dprime, p)), 0.0) for p in lti.poles]


def step_response(
    lti: ClosedLoopLti, delta_p: float, t: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Exact omega(t) for a disturbance step of magnitude delta_p at t = 0.

    ``t`` may be a scalar or an array (seconds, all >= 0).  Limited to loop
    order <= 2; higher orders raise :class:`UnsupportedOrderError` and
    belong to the simulator.
    """
    a, modes = _modes(lti)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    y = np.full(t_arr.shape, a)
    for p, b, c in modes:  # (b + c t) e^{pt}, with no array for b + c t when c = 0
        y += ((b + c * t_arr if c else b) * np.exp(p * t_arr)).real
    y = delta_p * y
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(y)
    return y


def nadir_of_response(lti: ClosedLoopLti, delta_p: float) -> Optional[NadirPoint]:
    """First interior stationary point of the step response, or None if monotone.

    Solves d(omega)/dt = 0 in closed form (exponential or trigonometric
    root).  For delta_p > 0 the returned point is the frequency nadir; a
    None verdict certifies nadir elimination without simulation.
    """
    if not lti.stable:
        raise ValueError("nadir analysis requires a stable loop")
    _a, modes = _modes(lti)
    if delta_p == 0:
        return None
    if len(modes) == 1:
        # omega_dot ~ e^{pt} ((b p + c) + c p t), linear in t; one distinct pole (c = 0) has no root
        ((p, b, c),) = modes
        if c * p == 0.0:
            return None
        t_star = -(b * p + c) / (c * p)
    else:
        # omega_dot ~ rho_1 e^{p_1 t} + rho_2 e^{p_2 t} with rho = b p
        (p1, b1, _), (p2, b2, _) = modes
        rho1, rho2 = b1 * p1, b2 * p2
        scale = abs(rho1) + abs(rho2)
        if scale == 0.0 or min(abs(rho1), abs(rho2)) <= 1e-14 * scale:
            return None  # single excited mode: monotone
        if p1.imag == 0.0 and rho1 * rho2 > 0.0:
            return None  # same-sign real modes never cancel: monotone
        t_star = (cmath.log(-rho2 / rho1) / (p1 - p2)).real
        if p1.imag != 0.0:
            # a complex pair's roots repeat every half-period pi / w_d
            half_period = math.pi / abs(p1.imag)
            t_star %= half_period
            if t_star <= _STATIONARY_TOL:
                t_star += half_period
    if t_star <= _STATIONARY_TOL:
        return None
    return NadirPoint(omega=float(step_response(lti, delta_p, t_star)), time=float(t_star))
