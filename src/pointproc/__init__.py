"""pointproc: simulate point processes, analyze spatial point patterns.

Temporal side: homogeneous and non-homogeneous Poisson processes and
self-exciting Hawkes processes, all on a finite horizon.  Spatial side:
complete spatial randomness, density surfaces, distance statistics with
Monte Carlo envelopes, and hotspot/cluster detection on grids.

Each module's ``__all__`` is the one list of its public names; the
package re-exports their sorted union.
"""

__version__ = "0.1.0"

from . import core, detect, spatial, temporal
from .core import *  # noqa: F401,F403
from .detect import *  # noqa: F401,F403
from .spatial import *  # noqa: F401,F403
from .temporal import *  # noqa: F401,F403

__all__ = sorted({*core.__all__, *detect.__all__, *spatial.__all__, *temporal.__all__})
__all__.append("__version__")
