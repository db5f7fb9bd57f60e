"""Single-area grid model: physical parameters, states, and scenarios.

The system is the aggregate (center-of-inertia) model of one synchronous
area: an equivalent machine with first-order turbine dynamics, primary
droop and secondary integral control from generators, a linear
frequency-sensitive load term, and an inverter-interfaced storage unit
whose control law is supplied separately.

Unit conventions, used everywhere below this module:

* all powers are per-unit on ``base_power``;
* the frequency deviation ``omega`` is per-unit on ``nominal_freq``;
* time is in seconds, so the frequency integral ``theta`` is pu*s and the
  supplied storage energy ``e_b`` is pu*s.

Hz and GW appear only at I/O boundaries (CLI flags, CSV headers).  Sign
convention: a positive disturbance step (net load increase, or loss of
generation) drives ``omega`` negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoids a runtime import cycle with controllers
    from .controllers import StorageController

__all__ = [
    "GridParams",
    "Disturbance",
    "SystemState",
    "SimOptions",
    "Scenario",
    "gb_reference_params",
    "pu_disturbance",
    "omega_pu_to_hz",
    "hz_to_omega_pu",
]


def require_finite(obj: object) -> None:
    """Reject a dataclass whose numeric fields are not all finite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class GridParams:
    """Constants of the aggregated one-bus system.

    base_power            system power base [GW]
    nominal_freq          nominal frequency [Hz]
    inertia_h             inertia time constant H [s]
    turbine_tau           turbine time constant [s]
    load_damping_alpha_l  load frequency sensitivity [pu]
    gen_inv_droop_alpha_g aggregate inverse droop of generators [pu]
    secondary_gain_k_i    secondary (integral) control gain [1/s]
    deadband_omega_db     governor dead-band half-width [pu]; 0 disables it
    """

    base_power: float
    nominal_freq: float
    inertia_h: float
    turbine_tau: float
    load_damping_alpha_l: float
    gen_inv_droop_alpha_g: float
    secondary_gain_k_i: float
    deadband_omega_db: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.base_power <= 0:
            raise ValueError(f"base_power must be > 0, got {self.base_power}")
        if self.nominal_freq <= 0:
            raise ValueError(f"nominal_freq must be > 0, got {self.nominal_freq}")
        if self.inertia_h <= 0:
            raise ValueError(f"inertia_h must be > 0, got {self.inertia_h}")
        if self.turbine_tau <= 0:
            raise ValueError(f"turbine_tau must be > 0, got {self.turbine_tau}")
        if self.gen_inv_droop_alpha_g <= 0:
            raise ValueError(
                f"gen_inv_droop_alpha_g must be > 0, got {self.gen_inv_droop_alpha_g}"
            )
        if self.load_damping_alpha_l < 0:
            raise ValueError(
                f"load_damping_alpha_l must be >= 0, got {self.load_damping_alpha_l}"
            )
        if self.secondary_gain_k_i < 0:
            raise ValueError(
                f"secondary_gain_k_i must be >= 0, got {self.secondary_gain_k_i}"
            )
        if self.deadband_omega_db < 0:
            raise ValueError(
                f"deadband_omega_db must be >= 0, got {self.deadband_omega_db}"
            )


def gb_reference_params(**overrides: float) -> GridParams:
    """Great Britain reference parameter set.

    32 GW base, H = 2.19 s (projected 2025 low-inertia level on that base),
    1 s turbine, generator inverse droop 15 pu, load sensitivity 1 pu,
    secondary gain 0.05 1/s, no governor dead-band.  Keyword overrides
    replace individual fields, e.g. ``gb_reference_params(inertia_h=4.06)``
    for the present-day inertia level.
    """
    params = GridParams(
        base_power=32.0,
        nominal_freq=60.0,
        inertia_h=2.19,
        turbine_tau=1.0,
        load_damping_alpha_l=1.0,
        gen_inv_droop_alpha_g=15.0,
        secondary_gain_k_i=0.05,
        deadband_omega_db=0.0,
    )
    return replace(params, **overrides) if overrides else params


def pu_disturbance(delta_p_gw: float, params: GridParams) -> float:
    """Convert a physical power imbalance [GW] to per-unit on the system base."""
    if params.base_power <= 0:
        raise ValueError(f"base_power must be > 0, got {params.base_power}")
    return delta_p_gw / params.base_power


def omega_pu_to_hz(omega_pu: float, params: GridParams) -> float:
    """Frequency deviation pu -> Hz."""
    return omega_pu * params.nominal_freq


def hz_to_omega_pu(delta_hz: float, params: GridParams) -> float:
    """Frequency deviation Hz -> pu."""
    return delta_hz / params.nominal_freq


@dataclass(frozen=True)
class Disturbance:
    """Step power imbalance.

    step_pu    magnitude, per-unit on the system base; positive means a net
               load increase / generation loss
    step_time  onset time [s]
    """

    step_pu: float = 0.0
    step_time: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.step_time < 0:
            raise ValueError(f"step_time must be >= 0, got {self.step_time}")


@dataclass(frozen=True)
class SystemState:
    """Closed-loop state vector.

    theta  integral of omega [pu*s]
    omega  frequency deviation [pu]
    p_m    turbine power deviation [pu]
    e_b    energy supplied by storage [pu*s]
    x_c    internal controller state (lag-droop only; 0 otherwise)
    """

    theta: float = 0.0
    omega: float = 0.0
    p_m: float = 0.0
    e_b: float = 0.0
    x_c: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)

    @classmethod
    def zeros(cls) -> "SystemState":
        """Pre-disturbance equilibrium."""
        return cls()


# Most samples one run may ask for: each of the eight per-sample float64
# arrays of a trajectory then takes 80 MB, about 640 MB in all.
MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class SimOptions:
    """Integration and metric-extraction options.

    dt                fixed integration step [s]
    horizon           simulated duration [s]; 30 s resolves the transient.
                      Energy-capacity studies with active secondary control
                      use 1200 s, which covers only about 2-4 time constants
                      of the secondary slow mode (alpha_l + alpha_g +
                      alpha_b)/k_i, 320-620 s on the GB grid; the stored
                      energy reaches its alpha_b/k_i limit to 1% after
                      about 5 of them
    settling_band     settling criterion, fraction of the final deviation
    freeze_secondary  run with the secondary gain forced to zero
    exact             step the linear loop by expm(A dt), exact for the held
                      imbalance, instead of RK4's step matrix; with a
                      dead-band RK4 runs
    """

    dt: float = 1e-3
    horizon: float = 30.0
    settling_band: float = 0.05
    freeze_secondary: bool = False
    exact: bool = False

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0 < self.dt <= self.horizon:
            raise ValueError(f"need 0 < dt <= horizon, got dt={self.dt}, horizon={self.horizon}")
        if self.horizon / self.dt > MAX_SAMPLES:
            raise ValueError(
                f"need horizon/dt <= {MAX_SAMPLES} samples, got dt={self.dt}, horizon={self.horizon}"
            )
        if not 0 < self.settling_band < 1:
            raise ValueError(f"settling_band must be in (0, 1), got {self.settling_band}")


@dataclass(frozen=True)
class Scenario:
    """A complete simulation case: grid + storage control + disturbance + options."""

    grid: GridParams
    controller: "StorageController"
    disturbance: Disturbance = field(default_factory=Disturbance)
    sim: SimOptions = field(default_factory=SimOptions)
