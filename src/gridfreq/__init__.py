"""Storage-based frequency control for low-inertia grids.

A numpy toolkit around the aggregate swing/turbine model of a single-area
power system with an inverter-interfaced storage unit: a fixed-step
simulator with transient and capacity metrics, the algebraic tuning rules
that remove the frequency nadir (minimum virtual inertia, droop sizing,
turbine-cancelling lag droop), closed-form LTI step responses that
cross-check the simulator, and sweep/capacity-curve engines that produce
plot-ready tables.

The package exports the union of its modules' ``__all__`` lists.  So
``gridfreq.simulate`` is the function :func:`~gridfreq.simulate.simulate`,
bound over the submodule of the same name, and ``import gridfreq.simulate
as m`` gives the function too; the module's other names are reached with
``from gridfreq.simulate import ...``.
"""

from . import controllers, lti, model, scenariofile, simulate, sweeps, tuning

# Taken before the star imports, which rebind ``simulate`` to the function.
_MODULES = (controllers, lti, model, scenariofile, simulate, sweeps, tuning)

from .controllers import *  # noqa: E402, F403
from .lti import *  # noqa: E402, F403
from .model import *  # noqa: E402, F403
from .scenariofile import *  # noqa: E402, F403
from .simulate import *  # noqa: E402, F403
from .sweeps import *  # noqa: E402, F403
from .tuning import *  # noqa: E402, F403

__version__ = "0.1.0"

__all__ = [name for module in _MODULES for name in module.__all__]
