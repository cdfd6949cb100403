"""Stability toolkit for finite-difference advection-diffusion on periodic grids.

The package splits along the analysis pipeline: exact stencil construction
(stencil), semidiscrete symbol curves (spectrum), Runge-Kutta stability
polynomials (timeint), fully discrete spectra and step-size
thresholds (fulldisc), the first-order wave system (wavesys), and direct
method-of-lines simulation (molsim).  The ``fdmlab`` console script in
:mod:`fdmlab.cli` exposes the same pipeline as subcommands.
"""

__version__ = "0.1.0"

from . import fulldisc, molsim, spectrum, stencil, timeint, wavesys
from .stencil import *
from .spectrum import *
from .timeint import *
from .fulldisc import *
from .wavesys import *
from .molsim import *

__all__ = ["__version__"] + [
    name
    for mod in (stencil, spectrum, timeint, fulldisc, wavesys, molsim)
    for name in mod.__all__
]
