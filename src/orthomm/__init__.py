"""Majorizing-measure functionals and chaining checks on quad-adic partitions.

The library builds the set of partial-sum points of a square-summable
coefficient sequence, partitions it into nested quarter-scale cells,
evaluates entropy-type functionals of probability measures on it exactly,
optimizes those functionals over the simplex, and cross-validates upper
and lower chaining bounds for orthogonal-increment processes by Monte
Carlo.  The package exports every name its four modules list in
``__all__``.
"""

from . import functionals, optimize, processes, series
from .series import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .optimize import *  # noqa: F401,F403
from .processes import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*series.__all__, *functionals.__all__, *optimize.__all__, *processes.__all__]
