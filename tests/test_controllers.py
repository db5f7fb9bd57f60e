"""Storage control laws: realizations against the oracle's transfer functions.

Covers:
 - spot values of the oracle's c(s) = n_c(s)/d_c(s) per law (DC gains, the
   droop constant, the lag pole)
 - the nadir-elimination tuning of the lag droop
 - the coefficients (m_v, nu, g, tau_i) each law gives the generic realization,
   and the realization's equilibria
 - DC-gain consistency between the realization and the oracle's c(0)
 - frequency-response consistency at three frequencies per law (<= 1%)
 - the lag state's exponential decay toward (nu - alpha_b) * omega
"""

import math

import numpy as np
import pytest

from gridfreq import Droop, IDroop, NoStorage, VirtualInertia, gb_reference_params
from gridfreq.lti import _law_polynomials

GB = gb_reference_params()


def _c(ctrl, s):
    """The law's transfer function c(s) = n_c(s)/d_c(s) as the oracle writes it."""
    n_c, d_c, _ = _law_polynomials(ctrl)
    return np.polyval(n_c, s) / np.polyval(d_c, s)


def _realized(ctrl, x_c, omega, omega_dot):
    """``(x_c_dot, p_b)`` of the generic law realized from ``ctrl.realization``:
    tau_i dx_c/dt = g omega - x_c, p_b = x_c - nu omega - m_v domega/dt.
    """
    m_v, nu, g, tau_i = ctrl.realization
    return (g * omega - x_c) / tau_i, x_c - nu * omega - m_v * omega_dot


def _integrate_lag(ctrl, omega_of_t, omega_dot_of_t, t_end, dt):
    """RK4 on the realization's internal state driven by a given omega(t).

    Returns (times, x_c series, p_b series); independent of the plant
    simulator, so controller tests stand on their own.
    """
    n = int(round(t_end / dt))
    t = np.arange(n + 1) * dt
    x = 0.0
    xs = np.empty(n + 1)
    ps = np.empty(n + 1)
    for k in range(n):
        tk = t[k]
        xs[k] = x
        ps[k] = _realized(ctrl, x, omega_of_t(tk), omega_dot_of_t(tk))[1]
        k1 = _realized(ctrl, x, omega_of_t(tk), omega_dot_of_t(tk))[0]
        k2 = _realized(ctrl, x + dt / 2 * k1, omega_of_t(tk + dt / 2), omega_dot_of_t(tk + dt / 2))[0]
        k3 = _realized(ctrl, x + dt / 2 * k2, omega_of_t(tk + dt / 2), omega_dot_of_t(tk + dt / 2))[0]
        k4 = _realized(ctrl, x + dt * k3, omega_of_t(tk + dt), omega_dot_of_t(tk + dt))[0]
        x += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    xs[n] = x
    ps[n] = _realized(ctrl, x, omega_of_t(t[n]), omega_dot_of_t(t[n]))[1]
    return t, xs, ps


# ---------------------------------------------------------------- transfer


def test_transfer_dc_gains():
    """Every law's DC gain is -alpha_b (zero for a pure derivative)."""
    assert _c(NoStorage(), 0) == 0
    assert _c(Droop(alpha_b=1.875), 0) == -1.875
    assert _c(VirtualInertia(m_v=57.60, alpha_b=0.0), 0) == 0
    for nu, tau_i, alpha_b in [(15.0, 1.0, 0.0), (9.3, 0.4, 2.5), (30.0, 2.0, 15.0)]:
        c = IDroop(nu=nu, tau_i=tau_i, alpha_b=alpha_b)
        assert complex(_c(c, 0)) == pytest.approx(-alpha_b, rel=1e-14, abs=1e-14)


def test_droop_transfer_is_constant():
    c = Droop(alpha_b=1.875)
    for s in (0.0, 1.0, -3.7, 2j, -0.5 + 4j):
        assert _c(c, s) == -1.875


def test_idroop_pole_rejected():
    """The lag droop's only pole is the lag's, s = -1/tau_i."""
    c = IDroop(nu=15.0, tau_i=2.0, alpha_b=0.0)
    _, d_c, _ = _law_polynomials(c)
    assert np.roots(d_c).tolist() == [-0.5]
    # just off the pole c(s) is large but finite
    assert 1e8 < abs(_c(c, -0.5 + 1e-9)) < float("inf")


def test_nadir_tuned_factory():
    """nu = alpha_b + alpha_g, tau_i = turbine tau; DC gain still -alpha_b."""
    c0 = IDroop.nadir_tuned(GB, 0.0)
    assert (c0.nu, c0.tau_i, c0.alpha_b) == (15.0, 1.0, 0.0)
    c = IDroop.nadir_tuned(GB, 1.875)
    assert (c.nu, c.tau_i) == (16.875, 1.0)
    assert complex(_c(c, 0)) == pytest.approx(-1.875, rel=1e-14)
    with pytest.raises(ValueError):
        IDroop.nadir_tuned(GB, -1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Droop(alpha_b=-0.1)
    with pytest.raises(ValueError):
        VirtualInertia(m_v=-1.0)
    with pytest.raises(ValueError):
        VirtualInertia(m_v=1.0, alpha_b=-0.5)
    with pytest.raises(ValueError):
        IDroop(nu=0.0, tau_i=1.0)
    with pytest.raises(ValueError):
        IDroop(nu=15.0, tau_i=0.0)
    with pytest.raises(ValueError):
        IDroop(nu=15.0, tau_i=1.0, alpha_b=-2.0)


# ---------------------------------------------------------------- realization


def test_realization_spot_values():
    assert NoStorage().realization == (0.0, 0.0, 0.0, 1.0)
    assert Droop(alpha_b=2.0).realization == (0.0, 2.0, 0.0, 1.0)
    assert VirtualInertia(m_v=10.0, alpha_b=2.0).realization == (10.0, 2.0, 0.0, 1.0)
    assert IDroop(nu=16.875, tau_i=0.7, alpha_b=1.875).realization == (0.0, 16.875, 15.0, 0.7)
    assert _realized(NoStorage(), 0.0, -0.01, 0.5) == (0.0, 0.0)
    x_dot, p_b = _realized(Droop(alpha_b=2.0), 0.0, -0.003, 0.123)
    assert x_dot == 0.0
    assert p_b == pytest.approx(0.006, rel=1e-15)
    x_dot, p_b = _realized(VirtualInertia(m_v=10.0, alpha_b=2.0), 0.0, -0.003, -0.01)
    assert p_b == pytest.approx(10.0 * 0.01 + 2.0 * 0.003, rel=1e-15)
    assert _realized(IDroop(nu=15.0, tau_i=1.0), 0.0, 0.0, 0.0) == (0.0, 0.0)


def test_idroop_equilibrium_output():
    """With x_c at its fixed point the output reduces to the droop law."""
    c = IDroop(nu=16.875, tau_i=1.0, alpha_b=1.875)
    omega = -0.0021
    x_star = (c.nu - c.alpha_b) * omega
    x_dot, p_b = _realized(c, x_star, omega, 0.0)
    assert x_dot == pytest.approx(0.0, abs=1e-18)
    assert p_b == pytest.approx(-c.alpha_b * omega, rel=1e-12)


def test_dc_gain_consistency():
    """Held at constant omega, every realization settles to the oracle's c(0)*omega."""
    omega = -0.004
    laws = [
        NoStorage(),
        Droop(alpha_b=1.875),
        VirtualInertia(m_v=57.6, alpha_b=3.0),
        IDroop(nu=16.875, tau_i=1.0, alpha_b=1.875),
        IDroop(nu=7.0, tau_i=0.3, alpha_b=4.0),
    ]
    for ctrl in laws:
        # 25 lag time constants: the slowest law here has tau_i = 1 s
        _, _, ps = _integrate_lag(ctrl, lambda t: omega, lambda t: 0.0, t_end=25.0, dt=1e-3)
        expected = _c(ctrl, 0) * omega
        assert ps[-1] == pytest.approx(expected, rel=1e-6, abs=1e-12), type(ctrl).__name__


@pytest.mark.parametrize("w", [0.5, 2.0, 8.0])
def test_frequency_response_consistency(w):
    """Sinusoid-driven output matches the oracle's c(i w) within 1% per law."""
    amp = 1e-3
    omega_of_t = lambda t: amp * math.sin(w * t)
    omega_dot_of_t = lambda t: amp * w * math.cos(w * t)
    laws = [
        Droop(alpha_b=1.875),
        VirtualInertia(m_v=57.6, alpha_b=3.0),
        IDroop(nu=16.875, tau_i=1.0, alpha_b=1.875),
    ]
    periods = 12.0
    for ctrl in laws:
        t_end = periods * 2 * math.pi / w
        dt = (2 * math.pi / w) / 2000
        t, _, ps = _integrate_lag(ctrl, omega_of_t, omega_dot_of_t, t_end, dt)
        tail = t >= t_end / 2  # transients of the lag are long gone
        basis = np.column_stack([np.sin(w * t[tail]), np.cos(w * t[tail])])
        c_s, c_c = np.linalg.lstsq(basis, ps[tail], rcond=None)[0]
        measured = complex(c_s, c_c) / amp
        predicted = _c(ctrl, 1j * w)
        assert abs(measured - predicted) <= 0.01 * abs(predicted), (
            f"{type(ctrl).__name__} at w={w}: {measured} vs {predicted}"
        )
    # the no-storage law stays silent
    _, _, ps = _integrate_lag(NoStorage(), omega_of_t, omega_dot_of_t, 5.0, 1e-3)
    assert np.all(ps == 0.0)


def test_lag_state_decay():
    """x_c relaxes to (nu - alpha_b) * omega with time constant tau_i (<= 1%)."""
    ctrl = IDroop(nu=16.875, tau_i=0.7, alpha_b=1.875)
    omega = -0.003
    t, xs, _ = _integrate_lag(ctrl, lambda t: omega, lambda t: 0.0, t_end=8 * 0.7, dt=1e-3)
    x_inf = (ctrl.nu - ctrl.alpha_b) * omega
    assert xs[-1] == pytest.approx(x_inf, rel=1e-2)
    window = t <= 3 * 0.7
    gap = np.abs(xs[window] - x_inf)
    slope = np.polyfit(t[window], np.log(gap), 1)[0]
    tau_fit = -1.0 / slope
    rel_err = abs(tau_fit - ctrl.tau_i) / ctrl.tau_i
    print(f"\n  lag decay fit: tau = {tau_fit:.6f} (true {ctrl.tau_i}), rel err {rel_err:.2e}")
    assert rel_err <= 0.01
