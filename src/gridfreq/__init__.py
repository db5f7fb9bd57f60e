"""Storage-based frequency control for low-inertia grids.

A numpy toolkit around the aggregate swing/turbine model of a single-area
power system with an inverter-interfaced storage unit: a fixed-step
simulator with transient and capacity metrics, the algebraic tuning rules
that remove the frequency nadir (minimum virtual inertia, droop sizing,
turbine-cancelling lag droop), closed-form LTI step responses that
cross-check the simulator, and sweep/capacity-curve engines that produce
plot-ready tables.
"""

from .controllers import Droop, IDroop, NoStorage, StorageController, VirtualInertia
from .lti import (
    ClosedLoopLti,
    NadirPoint,
    UnsupportedOrderError,
    closed_loop_tf,
    nadir_of_response,
    step_response,
)
from .model import (
    Disturbance,
    GridParams,
    Scenario,
    SimOptions,
    SystemState,
    gb_reference_params,
    pu_disturbance,
)
from .scenariofile import ScenarioParseError, load_scenario, parse_scenario, serialize_scenario
from .simulate import (
    IntegrationError,
    Metrics,
    Trajectory,
    deadband_response,
    extract_metrics,
    format_metrics,
    simulate,
    write_trajectory_csv,
)
from .sweeps import (
    CapacityPoint,
    SweepPoint,
    SweepSpec,
    capacity_curve,
    sweep,
    vi_min_retune,
    write_sweep_csv,
)
from .tuning import (
    ViNadirCheck,
    design_droop_from_target,
    energy_capacity_estimate,
    mv_min_exact,
    mv_min_from_target,
    mv_min_linear,
    steady_state_deviation,
    vi_nadir_condition,
)

__version__ = "0.1.0"

__all__ = [
    "Droop",
    "IDroop",
    "NoStorage",
    "StorageController",
    "VirtualInertia",
    "ClosedLoopLti",
    "NadirPoint",
    "UnsupportedOrderError",
    "closed_loop_tf",
    "nadir_of_response",
    "step_response",
    "Disturbance",
    "GridParams",
    "Scenario",
    "SimOptions",
    "SystemState",
    "gb_reference_params",
    "pu_disturbance",
    "ScenarioParseError",
    "load_scenario",
    "parse_scenario",
    "serialize_scenario",
    "IntegrationError",
    "Metrics",
    "Trajectory",
    "deadband_response",
    "extract_metrics",
    "format_metrics",
    "simulate",
    "write_trajectory_csv",
    "CapacityPoint",
    "SweepPoint",
    "SweepSpec",
    "capacity_curve",
    "sweep",
    "vi_min_retune",
    "write_sweep_csv",
    "ViNadirCheck",
    "design_droop_from_target",
    "energy_capacity_estimate",
    "mv_min_exact",
    "mv_min_from_target",
    "mv_min_linear",
    "steady_state_deviation",
    "vi_nadir_condition",
]
