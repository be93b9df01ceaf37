"""Bayesian lattice filter for time-varying autoregression and
time-frequency analysis."""

__version__ = "0.1.0"

from . import dlm, lattice, selection, simulate, spectrum, tvar
from .dlm import *
from .lattice import *
from .selection import *
from .simulate import *
from .spectrum import *
from .tvar import *

__all__ = sorted(name for mod in (dlm, lattice, selection, simulate, spectrum, tvar)
                 for name in mod.__all__)
