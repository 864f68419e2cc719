"""wignerlab: phase-space quantum mechanics on FFT-conjugate grids.

Wigner distributions of pure states, three independent propagation
routes (split-step Schrodinger, exact phase-space Moyal splitting, and
the two-coordinate characteristic kernel), truncated-series evolution
with a classical-limit knob, dual-route expectation values, and
quadrature tomography with filtered back-projection.
"""

from . import (dynamics, errors, grid, observables, potentials, states,
               tomography, wigner)
from .errors import *
from .grid import *
from .potentials import *
from .states import *
from .wigner import *
from .observables import *
from .dynamics import *
from .tomography import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *grid.__all__,
           *potentials.__all__, *states.__all__, *wigner.__all__,
           *observables.__all__, *dynamics.__all__, *tomography.__all__]
