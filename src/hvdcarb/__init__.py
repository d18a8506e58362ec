"""Profit-optimal dispatch of lossy HVDC interconnectors.

Computes how an operator should flow power across HVDC links joining
electricity market areas to monetize price spreads net of transmission
losses: per-timestep flow decisions, time-coupled schedules under dynamic
capacity limits, and 3-area wheeling analysis.
"""

from . import arbitrage, dataio, errors, model, scheduler, wheeling
from .arbitrage import *
from .dataio import *
from .errors import *
from .model import *
from .scheduler import *
from .wheeling import *

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package republishes them.
__all__ = []
__all__ += arbitrage.__all__
__all__ += dataio.__all__
__all__ += errors.__all__
__all__ += model.__all__
__all__ += scheduler.__all__
__all__ += wheeling.__all__
