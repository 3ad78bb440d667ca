"""Weighted l1 sparse recovery: solvers, exact certificates, benchmarks.

The package has four layers: ``linops`` (dense linear algebra helpers, the
input rules and the matrix/vector text format), ``solver`` (proximal-gradient
continuation with pluggable reweighting schemes), ``certificates`` (exact
null-space and isometry certificates plus a simplex LP oracle), and ``bench``
(seeded random experiments).  ``cli`` binds them into the ``wl1min`` command.
The package re-exports the public names of the four layers.
"""

from . import bench, certificates, linops, solver
from .bench import *  # noqa: F401,F403
from .certificates import *  # noqa: F401,F403
from .linops import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *linops.__all__, *solver.__all__, *certificates.__all__, *bench.__all__]
