"""Fixed-step integrator for the closed frequency-control loop.

Every storage law is integrated through one realization of the generic law
c(s) = -(m_v s + nu) + g / (tau_i s + 1), whose coefficients come from
:attr:`~gridfreq.controllers.StorageController.realization`.  Dynamics (all
per-unit, time in seconds):

    d theta / dt = omega
    (2H + m_v) d omega / dt = p_m - p_L(t) - alpha_l * omega + x_c - nu * omega
    tau_T d p_m / dt = -p_m + phi(omega) - k_i * theta
    d e_b / dt = p_b = x_c - nu * omega - m_v * d omega / dt
    tau_i d x_c / dt = -x_c + g * omega

where phi is the governor response with an optional dead-band
(:func:`deadband_response`), and p_L is a step of ``step_pu`` at
``step_time``.  The derivative term of the law is realized by inertia
augmentation: m_v moves into the swing equation, and the recorded storage
output is reconstructed from the algebraic omega_dot.  This is identical
to the ideal law and avoids numerical differentiation.

Two fixed-step methods sample the loop (default dt 1 ms): RK4, the
default, and ``SimOptions.exact``.  Without a dead-band the loop is linear,
dx/dt = A x over (theta, omega, p_m, e_b, x_c, p_L) with the held imbalance
as a state (Van Loan, 1978), and either method is one fixed step matrix:
x_{k+1} = Phi x_k with Phi = R(A dt), R(m) = I + m + m^2/2 + m^3/6 + m^4/24,
for RK4, and Phi = expm(A dt) (a scaled and squared Taylor series, Higham
2005) for ``exact``.  One sampler propagates both through powers of Phi, so
RK4 keeps its truncation error and stability region at the cost of the
exact path.  The smallest closed-loop time constant in the parameter ranges
of interest is ~0.27 s, far inside RK4's accuracy and stability region.  A
governor dead-band is the only nonlinearity; with one, RK4 steps the scalar
loop, evaluating the continuous dead-band (only its slope jumps) inside the
RK stages without event detection.  Every path holds the imbalance at its
step-start value within each step, exact for the piecewise-constant input;
a ``step_time`` that is not a multiple of dt effectively snaps to the next
sample instant.

Samples record, per step k: time, state, the storage output p_b, and the
algebraic omega_dot, both evaluated at the sample instant with the
disturbance already applied for t >= step_time.  The first sample is the
pre-disturbance equilibrium state (all zeros), and a zero-magnitude
disturbance reproduces the all-zero trajectory exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, TextIO

import numpy as np

from .model import Scenario, SystemState

__all__ = [
    "IntegrationError",
    "Trajectory",
    "Metrics",
    "METRIC_FIELDS",
    "deadband_response",
    "simulate",
    "extract_metrics",
    "write_trajectory_csv",
    "format_metrics",
]

# A |omega| beyond this is treated as divergence; the deviations of interest
# are O(1e-3) pu.
_DIVERGENCE_LIMIT = 1e6

# Default tolerance separating a true nadir from integrator jitter: a
# response is monotone while its recovery above the running minimum stays
# within this bound.
MONOTONE_TOL = 1e-6

# Relative depth within which a sample counts as the nadir when timing it.
_NADIR_RTOL = 1e-12

TRAJECTORY_CSV_HEADER = "t,omega_pu,omega_hz,p_m_pu,p_b_pu,e_b_pu_s,theta_pu_s"
_CSV_ROW = ",".join(["%.12g"] * 7) + "\n"
# Rows formatted per write: few Python-level calls, little text in memory.
_CSV_CHUNK = 1024

# Samples per matrix product on the linear path, from Phi^j - I for j <= _BLOCK.
_BLOCK = 256


class IntegrationError(RuntimeError):
    """The state left the finite range; carries the last valid time."""

    def __init__(self, last_valid_time: float):
        super().__init__(f"integration diverged; last valid time {last_valid_time:.6g} s")
        self.last_valid_time = last_valid_time


def deadband_response(omega: float, omega_db: float, alpha_g: float) -> float:
    """Governor droop response with a +-omega_db dead-band.

    Continuous piecewise-linear: -alpha_g (omega + omega_db) below the band,
    zero inside, -alpha_g (omega - omega_db) above.  omega_db = 0 reduces to
    the plain -alpha_g * omega.
    """
    if omega_db < 0:
        raise ValueError(f"omega_db must be >= 0, got {omega_db}")
    if omega_db == 0.0:
        return -alpha_g * omega
    if omega <= -omega_db:
        return -alpha_g * (omega + omega_db)
    if omega >= omega_db:
        return -alpha_g * (omega - omega_db)
    return 0.0


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled closed-loop response.

    Parallel arrays of length ``n_samples``; sample 0 is the pre-disturbance
    equilibrium.  ``p_b`` and ``omega_dot`` are evaluated at the sample
    instants (disturbance active for t >= step_time).
    """

    scenario: Scenario
    dt: float
    t: np.ndarray
    theta: np.ndarray
    omega: np.ndarray
    p_m: np.ndarray
    e_b: np.ndarray
    x_c: np.ndarray
    p_b: np.ndarray
    omega_dot: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.t)

    def state_at(self, k: int) -> SystemState:
        return SystemState(
            theta=float(self.theta[k]),
            omega=float(self.omega[k]),
            p_m=float(self.p_m[k]),
            e_b=float(self.e_b[k]),
            x_c=float(self.x_c[k]),
        )


@dataclass(frozen=True)
class Metrics:
    """Transient metrics and normalized storage capacity requirements.

    nadir_deviation         most negative omega [pu]
    nadir_time              first time omega is within 1e-12 (relative) of
                            the deepest deviation [s]
    rocof_initial           omega_dot at the first post-disturbance sample [pu/s]
    rocof_max_abs           max |omega_dot| [pu/s]
    steady_state_deviation  omega at the end of the horizon [pu]
    settling_time           first time after which omega stays within the
                            settling band of its final value [s]
    p_b_max_norm            max p_b / step_pu (signed, per the capacity definition)
    p_b_max_abs_norm        max |p_b| / |step_pu|
    e_b_max_norm            max e_b / step_pu [s]
    monotone                no nadir: omega never recovers above its running
                            minimum by more than the tolerance
    zero_disturbance        step_pu was 0; normalized capacities reported as 0
    """

    nadir_deviation: float
    nadir_time: float
    rocof_initial: float
    rocof_max_abs: float
    steady_state_deviation: float
    settling_time: float
    p_b_max_norm: float
    p_b_max_abs_norm: float
    e_b_max_norm: float
    monotone: bool
    zero_disturbance: bool


METRIC_FIELDS = tuple(f.name for f in fields(Metrics))


def _make_deriv(scenario: Scenario, k_i: float) -> Callable:
    """Build the stage-derivative closure of the generic law's realization.

    The closure maps (p_l, theta, omega, p_m, x_c) to (d omega/dt,
    d p_m/dt, p_b, d x_c/dt), where p_b = d(e_b)/dt; the main loop uses the
    stage omega as d(theta)/dt and never feeds e_b back.  The
    imbalance p_l is passed in per step: it is piecewise constant, so
    holding the step-start value across all stages integrates it exactly
    (the switch lands on a sample instant).
    """
    g = scenario.grid
    m_v, nu, gain, tau_i = scenario.controller.realization
    m = 2.0 * g.inertia_h + m_v
    tau_t = g.turbine_tau
    a_l = g.load_damping_alpha_l
    a_g = g.gen_inv_droop_alpha_g
    w_db = g.deadband_omega_db

    def deriv(p_l, th, om, pm, xc):
        s = xc - nu * om
        om_dot = (pm - p_l - a_l * om + s) / m
        phi = deadband_response(om, w_db, a_g)
        return om_dot, (phi - pm - k_i * th) / tau_t, s - m_v * om_dot, (gain * om - xc) / tau_i

    return deriv


def _linear_system(deriv: Callable) -> np.ndarray:
    """A of dx/dt = A x, x = (theta, omega, p_m, e_b, x_c, p_L): the closure at unit states."""
    a = np.zeros((6, 6))
    for j, (th, om, pm, _eb, xc, p_l) in enumerate(np.eye(6)):
        a[:5, j] = (om, *deriv(p_l, th, om, pm, xc))
    return a


def _expm1(m: np.ndarray) -> np.ndarray:
    """exp(m) - I, never adding I, so a near-identity step keeps its digits: Taylor
    series to order 18 of m / 2^s, ||m / 2^s|| < 1/2, squared s times as 2E + E^2."""
    s = max(0, int(np.frexp(np.linalg.norm(m, 1))[1]) + 1)
    eye = e = np.eye(len(m))
    m = m / 2.0**s
    for j in range(18, 1, -1):
        e = eye + m @ e / j
    e = m @ e
    for _ in range(s):
        e = 2.0 * e + e @ e
    return e


def _rk4_step1(m: np.ndarray) -> np.ndarray:
    """R(m) - I for RK4's step x <- R(A dt) x on a linear loop, R(m) = I + m + m^2/2 +
    m^3/6 + m^4/24, in Horner form without adding I (digits kept as in :func:`_expm1`)."""
    eye = np.eye(len(m))
    return m @ (eye + m @ (eye / 2.0 + m @ (eye / 6.0 + m / 24.0)))


def _simulate_linear(scenario: Scenario, deriv: Callable, t: np.ndarray, dt: float) -> Trajectory:
    """Sample the linear loop through powers of its one-step matrix Phi, _BLOCK samples per
    matrix product: Phi = expm(A dt) with ``exact``, else RK4's own step R(A dt)."""
    a = _linear_system(deriv)
    step1 = _expm1 if scenario.sim.exact else _rk4_step1
    x = np.zeros((len(t), 5))  # p_L is not stored: 0 before k_on, d_p from then on
    outputs = np.zeros((len(t), 2))  # p_b, omega_dot: rows 3 and 1 of A
    d_p = scenario.disturbance.step_pu
    k_on = int(np.searchsorted(t, scenario.disturbance.step_time))  # RK4's first sample with p_L on
    if d_p and k_on < len(t):
        # An unstable step overflows the high powers; the divergence check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            powers = step1(a * dt)[None]
            while len(powers) < _BLOCK:  # Phi^(i+j) - I = P_i + P_j + P_i P_j
                powers = np.concatenate([powers, powers + powers[-1] + powers @ powers[-1]])
            powers = powers[:, :5].reshape(-1, 6)  # state rows of Phi^1 - I, Phi^2 - I, ...
            x_k = np.array([0.0, 0.0, 0.0, 0.0, 0.0, d_p])  # the state rests at zero until k_on
            for k in range(k_on, len(t) - 1, _BLOCK):
                block = x[k + 1 : k + 1 + _BLOCK]
                x_k[:5] = x[k]
                np.dot(powers[: block.size], x_k, out=block.reshape(-1))
                block += x[k]
                diverged = ~(np.abs(block[:, 1]) < _DIVERGENCE_LIMIT)
                if diverged.any():
                    raise IntegrationError(last_valid_time=(k + int(diverged.argmax())) * dt)
        np.einsum("kj,ij->ki", x[k_on:], a[[3, 1], :5], out=outputs[k_on:])
        outputs[k_on:] += d_p * a[[3, 1], 5]
    return Trajectory(scenario, dt, t, *x.T, *outputs.T)


def simulate(scenario: Scenario) -> Trajectory:
    """Sample the closed loop over the scenario's horizon by RK4, or exactly when
    ``scenario.sim.exact`` is set.

    Without a dead-band the loop is linear, and either method is one fixed
    matrix per step, sampled through its powers; with one, RK4 steps the
    scalar loop (whatever ``exact`` says).  Raises :class:`IntegrationError`
    if omega leaves the finite range (with RK4, reachable with a step size
    outside its stability region).
    """
    opts = scenario.sim
    dt = opts.dt
    n = int(round(opts.horizon / dt))
    k_i = 0.0 if opts.freeze_secondary else scenario.grid.secondary_gain_k_i
    deriv = _make_deriv(scenario, k_i)

    t_arr = np.arange(n + 1) * dt
    if not scenario.grid.deadband_omega_db:
        return _simulate_linear(scenario, deriv, t_arr, dt)
    theta = np.empty(n + 1)
    omega = np.empty(n + 1)
    p_m = np.empty(n + 1)
    e_b = np.empty(n + 1)
    x_c = np.empty(n + 1)
    p_b = np.empty(n + 1)
    omega_dot = np.empty(n + 1)

    d_p = scenario.disturbance.step_pu
    t_on = scenario.disturbance.step_time
    th = om = pm = eb = xc = 0.0
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n):
        t = k * dt
        p_l = d_p if t >= t_on else 0.0
        dom1, dpm1, pb1, dxc1 = deriv(p_l, th, om, pm, xc)
        theta[k] = th
        omega[k] = om
        p_m[k] = pm
        e_b[k] = eb
        x_c[k] = xc
        p_b[k] = pb1
        omega_dot[k] = dom1

        om2 = om + half * dom1
        dom2, dpm2, pb2, dxc2 = deriv(p_l, th + half * om, om2, pm + half * dpm1, xc + half * dxc1)
        om3 = om + half * dom2
        dom3, dpm3, pb3, dxc3 = deriv(p_l, th + half * om2, om3, pm + half * dpm2, xc + half * dxc2)
        om4 = om + dt * dom3
        dom4, dpm4, pb4, dxc4 = deriv(p_l, th + dt * om3, om4, pm + dt * dpm3, xc + dt * dxc3)
        th += sixth * (om + 2.0 * (om2 + om3) + om4)
        om += sixth * (dom1 + 2.0 * (dom2 + dom3) + dom4)
        pm += sixth * (dpm1 + 2.0 * (dpm2 + dpm3) + dpm4)
        eb += sixth * (pb1 + 2.0 * (pb2 + pb3) + pb4)
        xc += sixth * (dxc1 + 2.0 * (dxc2 + dxc3) + dxc4)

        if not (-_DIVERGENCE_LIMIT < om < _DIVERGENCE_LIMIT):
            raise IntegrationError(last_valid_time=t)

    dom_f, _, pb_f, _ = deriv(d_p if n * dt >= t_on else 0.0, th, om, pm, xc)
    theta[n] = th
    omega[n] = om
    p_m[n] = pm
    e_b[n] = eb
    x_c[n] = xc
    p_b[n] = pb_f
    omega_dot[n] = dom_f

    return Trajectory(
        scenario=scenario,
        dt=dt,
        t=t_arr,
        theta=theta,
        omega=omega,
        p_m=p_m,
        e_b=e_b,
        x_c=x_c,
        p_b=p_b,
        omega_dot=omega_dot,
    )


def extract_metrics(traj: Trajectory, monotone_tol: float = MONOTONE_TOL) -> Metrics:
    """Reduce a trajectory to its transient and capacity metrics.

    ``monotone_tol`` separates a true nadir from integrator jitter: the
    response counts as monotone while its recovery above the running
    minimum stays within this bound.
    """
    if traj.n_samples == 0:
        raise ValueError("empty trajectory")
    omega = traj.omega
    d_p = traj.scenario.disturbance.step_pu
    t_on = traj.scenario.disturbance.step_time

    # The first sample within the printed 12 digits of the minimum: on a plateau
    # settled to rounding, argmin alone would pick a sample by last-bit noise.
    k_min = int(np.argmin(omega))
    nadir = float(omega[k_min])
    k_nadir = int(np.argmax(omega[: k_min + 1] <= nadir + _NADIR_RTOL * abs(nadir)))
    final = float(omega[-1])

    k_on = int(np.searchsorted(traj.t, t_on, side="left"))
    k_on = min(k_on, traj.n_samples - 1)
    rocof_initial = float(traj.omega_dot[k_on])
    rocof_max_abs = float(np.max(np.abs(traj.omega_dot)))

    band = traj.scenario.sim.settling_band * abs(final)
    outside = np.abs(omega - final) > band
    if not outside.any():
        settling_time = 0.0
    else:
        k_last = int(np.flatnonzero(outside)[-1])
        settling_time = float(traj.t[min(k_last + 1, traj.n_samples - 1)])

    # Monotone means no recovery from an interior extreme: the response never
    # rises above its running minimum (falls below its running maximum, for a
    # negative step) by more than the tolerance.  A per-step test would let a
    # slow dip-and-recovery pass as jitter at small dt.
    if d_p > 0:
        rise = omega - np.minimum.accumulate(omega)
        monotone = bool(np.max(rise) <= monotone_tol)
    elif d_p < 0:
        fall = np.maximum.accumulate(omega) - omega
        monotone = bool(np.max(fall) <= monotone_tol)
    else:
        monotone = True

    if d_p == 0:
        p_b_max_norm = p_b_max_abs_norm = e_b_max_norm = 0.0
        zero_disturbance = True
    else:
        p_b_max_norm = float(np.max(traj.p_b) / d_p)
        p_b_max_abs_norm = float(np.max(np.abs(traj.p_b)) / abs(d_p))
        e_b_max_norm = float(np.max(traj.e_b) / d_p)
        zero_disturbance = False

    return Metrics(
        nadir_deviation=nadir,
        nadir_time=float(traj.t[k_nadir]),
        rocof_initial=rocof_initial,
        rocof_max_abs=rocof_max_abs,
        steady_state_deviation=final,
        settling_time=settling_time,
        p_b_max_norm=p_b_max_norm,
        p_b_max_abs_norm=p_b_max_abs_norm,
        e_b_max_norm=e_b_max_norm,
        monotone=monotone,
        zero_disturbance=zero_disturbance,
    )


def write_trajectory_csv(traj: Trajectory, stream: TextIO) -> None:
    """Write the trajectory in the fixed CSV layout (one row per sample)."""
    f_nom = traj.scenario.grid.nominal_freq
    stream.write(TRAJECTORY_CSV_HEADER + "\n")
    for k in range(0, traj.n_samples, _CSV_CHUNK):
        rows = slice(k, k + _CSV_CHUNK)
        om = traj.omega[rows]
        cols = (traj.t[rows], om, om * f_nom, traj.p_m[rows], traj.p_b[rows], traj.e_b[rows], traj.theta[rows])
        stream.write("".join(_CSV_ROW % row for row in zip(*(c.tolist() for c in cols))))


def format_metrics(metrics: Metrics, nominal_freq: float) -> str:
    """Plain-text metrics summary (pu values plus Hz equivalents)."""
    lines = [
        f"nadir_deviation_pu = {metrics.nadir_deviation:.12g}",
        f"nadir_deviation_hz = {metrics.nadir_deviation * nominal_freq:.12g}",
        f"nadir_time_s = {metrics.nadir_time:.12g}",
        f"rocof_initial_pu_per_s = {metrics.rocof_initial:.12g}",
        f"rocof_initial_hz_per_s = {metrics.rocof_initial * nominal_freq:.12g}",
        f"rocof_max_abs_pu_per_s = {metrics.rocof_max_abs:.12g}",
        f"steady_state_deviation_pu = {metrics.steady_state_deviation:.12g}",
        f"steady_state_deviation_hz = {metrics.steady_state_deviation * nominal_freq:.12g}",
        f"settling_time_s = {metrics.settling_time:.12g}",
        f"p_b_max_norm = {metrics.p_b_max_norm:.12g}",
        f"p_b_max_abs_norm = {metrics.p_b_max_abs_norm:.12g}",
        f"e_b_max_norm_s = {metrics.e_b_max_norm:.12g}",
        f"monotone = {str(metrics.monotone).lower()}",
        f"zero_disturbance = {str(metrics.zero_disturbance).lower()}",
    ]
    return "\n".join(lines) + "\n"
