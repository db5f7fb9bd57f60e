"""Grid model: reference parameters, unit conversions, validation.

Covers:
 - the Great Britain reference set and its documented variants
 - GW -> pu disturbance conversion
 - pu <-> Hz round trips to machine precision
 - invariant enforcement (positivity/sign constraints raise ValueError)
 - every numeric field of every value type rejects nan and +-inf
 - immutability of the value types
"""

import dataclasses
import math

import pytest

from gridfreq import (
    Disturbance,
    Droop,
    GridParams,
    IDroop,
    SimOptions,
    SystemState,
    gb_reference_params,
    VirtualInertia,
    pu_disturbance,
)
from gridfreq.model import MAX_SAMPLES


def test_reference_parameter_set():
    """The reference set carries the documented values."""
    g = gb_reference_params()
    assert g.base_power == 32.0
    assert g.nominal_freq == 60.0
    assert g.inertia_h == 2.19
    assert g.turbine_tau == 1.0
    assert g.load_damping_alpha_l == 1.0
    assert g.gen_inv_droop_alpha_g == 15.0
    assert g.secondary_gain_k_i == 0.05
    assert g.deadband_omega_db == 0.0


def test_reference_overrides():
    """Present-day inertia and dead-band variants are valid parameter sets."""
    high = gb_reference_params(inertia_h=4.06)
    assert high.inertia_h == 4.06
    assert high.base_power == 32.0

    db = gb_reference_params(deadband_omega_db=0.0006)
    assert db.deadband_omega_db == 0.0006


@pytest.mark.parametrize(
    "field, value",
    [
        ("base_power", 0.0),
        ("base_power", -1.0),
        ("nominal_freq", 0.0),
        ("inertia_h", 0.0),
        ("inertia_h", -2.0),
        ("turbine_tau", 0.0),
        ("gen_inv_droop_alpha_g", 0.0),
        ("load_damping_alpha_l", -0.1),
        ("secondary_gain_k_i", -0.05),
        ("deadband_omega_db", -1e-4),
    ],
)
def test_grid_params_validation(field, value):
    with pytest.raises(ValueError):
        gb_reference_params(**{field: value})


def test_pu_disturbance():
    g = gb_reference_params()
    assert pu_disturbance(1.8, g) == pytest.approx(0.05625, rel=1e-15)
    assert pu_disturbance(0.0, g) == 0.0
    assert pu_disturbance(32.0, g) == pytest.approx(1.0, rel=1e-15)


def test_pu_hz_round_trip():
    """pu -> Hz -> pu through the nominal frequency is the identity to machine precision."""
    g = gb_reference_params()
    for omega in (-0.003515625, -1e-6, 0.0, 0.0006, 0.031):
        back = omega * g.nominal_freq / g.nominal_freq
        assert math.isclose(back, omega, rel_tol=1e-15, abs_tol=1e-300)
    assert -0.003515625 * g.nominal_freq == pytest.approx(-0.2109375)


def test_disturbance_validation():
    assert Disturbance().step_pu == 0.0
    assert Disturbance(step_pu=0.05, step_time=3.0).step_time == 3.0
    with pytest.raises(ValueError):
        Disturbance(step_pu=0.05, step_time=-1.0)


def test_system_state():
    z = SystemState.zeros()
    assert (z.theta, z.omega, z.p_m, z.e_b, z.x_c) == (0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SystemState(omega=float("nan"))
    with pytest.raises(ValueError):
        SystemState(e_b=float("inf"))


def test_sim_options_validation():
    assert SimOptions().dt == 1e-3
    assert SimOptions().horizon == 30.0
    with pytest.raises(ValueError):
        SimOptions(dt=0.0)
    with pytest.raises(ValueError):
        SimOptions(dt=2.0, horizon=1.0)
    with pytest.raises(ValueError):
        SimOptions(settling_band=0.0)
    with pytest.raises(ValueError):
        SimOptions(settling_band=1.0)
    # sample-count ceiling: only the check runs, nothing is allocated
    assert SimOptions(dt=1e-3, horizon=MAX_SAMPLES * 1e-3).horizon == MAX_SAMPLES * 1e-3
    with pytest.raises(ValueError, match="samples"):
        SimOptions(dt=1e-3, horizon=MAX_SAMPLES * 1e-3 + 1e-3)
    with pytest.raises(ValueError, match="samples"):
        SimOptions(dt=1e-9, horizon=1e6)


_VALID = {
    GridParams: dataclasses.asdict(gb_reference_params()),
    Disturbance: {"step_pu": 0.05, "step_time": 1.0},
    SystemState: {},
    SimOptions: {},
    Droop: {"alpha_b": 1.0},
    VirtualInertia: {"m_v": 10.0, "alpha_b": 1.0},
    IDroop: {"nu": 16.0, "tau_i": 1.0, "alpha_b": 1.0},
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls in _VALID for f in dataclasses.fields(cls) if f.type in ("float", float)],
)
def test_non_finite_fields_rejected(cls, name, value):
    cls(**_VALID[cls])  # the valid set itself is accepted
    with pytest.raises(ValueError, match=name):
        cls(**{**_VALID[cls], name: value})


def test_value_types_frozen():
    g = gb_reference_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.inertia_h = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        SystemState.zeros().omega = 0.1
