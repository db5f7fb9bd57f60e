"""Grid model: reference parameters, unit conversions, validation.

Covers:
 - the Great Britain reference set and its documented variants
 - GW -> pu disturbance conversion
 - pu <-> Hz round trips to machine precision
 - invariant enforcement (positivity/sign constraints raise ValueError):
   each bounded field and bounded argument, written out below, rejects a
   value past its bound with ``<name> must be > 0 / >= 0, got <value>``,
   and the first bad one in check order is the one reported
 - every numeric field of every value type rejects nan and +-inf, and every
   bounded argument rejects nan with its bound's message
 - a disturbance step of at most one system base either way
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
    Scenario,
    SimOptions,
    SystemState,
    gb_reference_params,
    VirtualInertia,
    deadband_response,
    energy_capacity_estimate,
    extract_metrics,
    mv_min_exact,
    mv_min_linear,
    pu_disturbance,
    simulate,
    steady_state_deviation,
    vi_nadir_condition,
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


# Every bounded dataclass field, in the order its class checks them: the
# "> 0" fields first, then the ">= 0" ones.  Written out here, not read from
# the classes, so that a bound dropped or moved there fails this table.
BOUNDED_FIELDS = {
    GridParams: [
        ("base_power", ">"),
        ("nominal_freq", ">"),
        ("inertia_h", ">"),
        ("turbine_tau", ">"),
        ("gen_inv_droop_alpha_g", ">"),
        ("load_damping_alpha_l", ">="),
        ("secondary_gain_k_i", ">="),
        ("deadband_omega_db", ">="),
    ],
    Disturbance: [("step_time", ">=")],
    Droop: [("alpha_b", ">=")],
    VirtualInertia: [("m_v", ">="), ("alpha_b", ">=")],
    IDroop: [("nu", ">"), ("tau_i", ">"), ("alpha_b", ">=")],
}
# The smallest value past each bound, and a plain one.
_BAD = {">": (0.0, -0.0, -1.5), ">=": (-5e-324, -1.5)}


def _message(cls, kwargs):
    with pytest.raises(ValueError) as excinfo:
        cls(**kwargs)
    return str(excinfo.value)


@pytest.mark.parametrize(
    "cls, name, bound",
    [
        pytest.param(cls, name, bound, id=f"{cls.__name__}.{name}")
        for cls, table in BOUNDED_FIELDS.items()
        for name, bound in table
    ],
)
def test_bounded_field_message(cls, name, bound):
    """A value past the bound is rejected with the field, the bound and the value; the bound itself
    is accepted by ">= 0" fields."""
    for value in _BAD[bound]:
        assert _message(cls, {**_VALID[cls], name: value}) == f"{name} must be {bound} 0, got {value}"
    if bound == ">=":
        assert getattr(cls(**{**_VALID[cls], name: 0.0}), name) == 0.0


@pytest.mark.parametrize("cls", list(BOUNDED_FIELDS), ids=lambda cls: cls.__name__)
def test_first_bad_field_in_check_order_is_reported(cls):
    """With several fields past their bounds the first in check order is named, and a
    non-finite field anywhere is named before any bound."""
    table = BOUNDED_FIELDS[cls]
    for i, (first, _) in enumerate(table):
        bad = {name: -1.5 for name, _ in table[i:]}
        assert _message(cls, {**_VALID[cls], **bad}).startswith(f"{first} must be")
    last = [f.name for f in dataclasses.fields(cls)][-1]
    kwargs = {**_VALID[cls], **{name: -1.5 for name, _ in table}, last: math.nan}
    assert _message(cls, kwargs) == f"{last} must be finite, got nan"


def _metrics_at(monotone_tol):
    sc = Scenario(gb_reference_params(), Droop(alpha_b=1.0), Disturbance(step_pu=0.05), SimOptions(horizon=1.0))
    return extract_metrics(simulate(sc), monotone_tol)


# Every bounded bare argument: (call with the value, name, bound).
BOUNDED_ARGUMENTS = {
    "vi_nadir_condition.m_v": (lambda v: vi_nadir_condition(gb_reference_params(), 0.0, v), "m_v", ">="),
    "vi_nadir_condition.alpha_b": (lambda v: vi_nadir_condition(gb_reference_params(), v, 0.0), "alpha_b", ">="),
    "mv_min_exact.alpha_b": (lambda v: mv_min_exact(gb_reference_params(), v), "alpha_b", ">="),
    "mv_min_linear.alpha_b": (lambda v: mv_min_linear(gb_reference_params(), v), "alpha_b", ">="),
    "energy_capacity_estimate.alpha_b": (lambda v: energy_capacity_estimate(v, 0.05), "alpha_b", ">="),
    "IDroop.nadir_tuned.alpha_b": (lambda v: IDroop.nadir_tuned(gb_reference_params(), v), "alpha_b", ">="),
    "deadband_response.omega_db": (lambda v: deadband_response(0.0, v, 15.0), "omega_db", ">="),
    "extract_metrics.monotone_tol": (_metrics_at, "monotone_tol", ">="),
    "steady_state_deviation.sum": (  # -0.0 terms keep the sum's sign of zero
        lambda v: steady_state_deviation(0.05, v, -0.0, -0.0),
        "aggregate inverse droop",
        ">",
    ),
}


@pytest.mark.parametrize("case", list(BOUNDED_ARGUMENTS))
def test_bounded_argument_message(case):
    call, name, bound = BOUNDED_ARGUMENTS[case]
    for value in _BAD[bound]:
        with pytest.raises(ValueError) as excinfo:
            call(value)
        assert str(excinfo.value) == f"{name} must be {bound} 0, got {value}"
    if bound == ">=":
        call(0.0)


@pytest.mark.parametrize("case", list(BOUNDED_ARGUMENTS))
def test_bounded_argument_rejects_nan(case):
    """NaN is past every bound.  It used to pass them: vi_nadir_condition(GB, nan, 0.0)
    returned margin nan, mv_min_exact(GB, nan) returned nan, and nadir_tuned(GB, nan)
    named nu, the controller field built from alpha_b."""
    call, name, bound = BOUNDED_ARGUMENTS[case]
    with pytest.raises(ValueError) as excinfo:
        call(math.nan)
    assert str(excinfo.value) == f"{name} must be {bound} 0, got nan"


def test_bounded_arguments_report_in_check_order():
    """vi_nadir_condition checks m_v before alpha_b; nadir_tuned checks alpha_b before
    building the controller, whose nu = alpha_b + alpha_g would fail first."""
    grid = gb_reference_params()
    with pytest.raises(ValueError, match="^m_v must be >= 0, got -1.0$"):
        vi_nadir_condition(grid, -2.0, -1.0)
    with pytest.raises(ValueError, match="^alpha_b must be >= 0, got -20.0$"):
        IDroop.nadir_tuned(grid, -20.0)


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
    # |step_pu| <= 1, one system base either way; a huge finite step is past it
    for step in (-1.0, 1.0):
        assert Disturbance(step_pu=step).step_pu == step
    for step in (math.nextafter(1.0, 2.0), -1.5, 3.125e304):
        with pytest.raises(ValueError, match=r"^step_pu must be within one system base, \[-1, 1\] pu, got "):
            Disturbance(step_pu=step)


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
