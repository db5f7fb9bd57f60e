"""Storage control laws: droop, virtual inertia, and lag-compensated droop.

Each law maps the measured frequency deviation to a storage power command,
``p_b = c(omega)``.  Every law is a case of one transfer function,

    c(s) = -(m_v s + nu) + g / (tau_i s + 1),

and :attr:`StorageController.realization` gives the coefficients
``(m_v, nu, g, tau_i)`` of the generic law, which the simulator integrates
through one realization for every law.  The closed-form oracle in
:mod:`gridfreq.lti` writes each law's transfer function again, on its own,
so that it can cross-check the simulator.

Droop is ``nu = alpha_b``; virtual inertia adds ``m_v``; the lag droop sets
``g = nu - alpha_b``, so every DC gain is ``-alpha_b``.

The dynamic droop law ("iDroop") pairs a first-order lag with direct
proportional feedthrough,

    c(s) = (nu - alpha_b) / (tau_i s + 1) - nu,

which boosts the response while the turbine is still ramping and then
withdraws it.  With ``nu = alpha_b + alpha_g`` and ``tau_i`` equal to the
turbine time constant the lag term exactly cancels the turbine dynamics and
the closed loop becomes first order, so the frequency moves monotonically
to its steady state: no nadir.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import GridParams, require_bound, require_fields

__all__ = [
    "StorageController",
    "NoStorage",
    "Droop",
    "VirtualInertia",
    "IDroop",
]


class StorageController:
    """Common interface of all storage control laws."""

    alpha_b: float

    @property
    def realization(self) -> tuple[float, float, float, float]:
        """Coefficients ``(m_v, nu, g, tau_i)`` of the generic law.

        Realized with one lag state x_c and direct feedthrough as
        ``tau_i dx_c/dt = g omega - x_c`` and
        ``p_b = x_c - nu omega - m_v domega/dt``.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class NoStorage(StorageController):
    """No storage response at all; the baseline case."""

    @property
    def alpha_b(self) -> float:
        return 0.0

    @property
    def realization(self) -> tuple[float, float, float, float]:
        return 0.0, 0.0, 0.0, 1.0


@dataclass(frozen=True)
class Droop(StorageController):
    """Proportional law p_b = -alpha_b * omega (alpha_b is the inverse droop)."""

    alpha_b: float

    def __post_init__(self) -> None:
        require_fields(self, non_negative=("alpha_b",))

    @property
    def realization(self) -> tuple[float, float, float, float]:
        return 0.0, self.alpha_b, 0.0, 1.0


@dataclass(frozen=True)
class VirtualInertia(StorageController):
    """Derivative-plus-droop law p_b = -(m_v * domega/dt + alpha_b * omega).

    The derivative term imitates inertial response with virtual inertia
    constant ``m_v`` [pu*s].  The simulator realizes it exactly by inertia
    augmentation (m_v moves into the swing equation), so no numerical
    differentiation of omega is ever performed.
    """

    m_v: float
    alpha_b: float = 0.0

    def __post_init__(self) -> None:
        require_fields(self, non_negative=("m_v", "alpha_b"))

    @property
    def realization(self) -> tuple[float, float, float, float]:
        return self.m_v, self.alpha_b, 0.0, 1.0


@dataclass(frozen=True)
class IDroop(StorageController):
    """Dynamic droop: first-order lag in parallel with proportional feedback.

        c(s) = (nu - alpha_b) / (tau_i s + 1) - nu

    Minimal realization (one lag state x_c plus direct feedthrough):

        tau_i * dx_c/dt = -x_c + (nu - alpha_b) * omega
        p_b             =  x_c - nu * omega

    DC gain is -alpha_b for any nu, tau_i, so the steady-state frequency
    deviation only sees the droop part.
    """

    nu: float
    tau_i: float
    alpha_b: float = 0.0

    def __post_init__(self) -> None:
        require_fields(self, positive=("nu", "tau_i"), non_negative=("alpha_b",))

    @classmethod
    def nadir_tuned(cls, params: GridParams, alpha_b: float = 0.0) -> "IDroop":
        """Tuning that removes the frequency nadir altogether.

        Sets ``nu = alpha_b + alpha_g`` and ``tau_i`` equal to the turbine
        time constant; the lag then cancels the turbine pole and the closed
        loop collapses to first order.
        """
        require_bound("alpha_b", alpha_b)
        return cls(
            nu=alpha_b + params.gen_inv_droop_alpha_g,
            tau_i=params.turbine_tau,
            alpha_b=alpha_b,
        )

    @property
    def realization(self) -> tuple[float, float, float, float]:
        return 0.0, self.nu, self.nu - self.alpha_b, self.tau_i
