"""Above-barrier quantum reflection as momentum-space tunneling.

Reflection probabilities for symmetric barriers computed three ways
(forbidden-zone quadrature, closed forms, coordinate-space contour),
cross-validated against exact scattering oracles, with the same
machinery applied to Landau-Zener adiabatic transitions.

The package re-exports the public names of its library modules, each
listed once in that module's ``__all__``.
"""

from .errors import *
from .potentials import *
from .specfun import *
from .wkb_reflection import *
from .scattering_oracle import *
from .landau_zener import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__
    + potentials.__all__
    + specfun.__all__
    + wkb_reflection.__all__
    + scattering_oracle.__all__
    + landau_zener.__all__
    + ["__version__"]
)
