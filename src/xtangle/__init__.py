"""Two-qubit entanglement measures, X-state classification, and
spectrum-preserving X-counterpart construction.

Each module declares its public names in its own __all__; the package's
__all__ is their union.
"""

from . import ensemble, matrix_core, measures, minimal_set, universality, xstate
from .ensemble import *
from .matrix_core import *
from .measures import *
from .minimal_set import *
from .universality import *
from .xstate import *

__version__ = "0.1.0"

__all__ = sorted([*ensemble.__all__, *matrix_core.__all__, *measures.__all__,
                  *minimal_set.__all__, *universality.__all__, *xstate.__all__])
