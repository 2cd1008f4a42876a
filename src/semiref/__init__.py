"""Above-barrier quantum reflection as momentum-space tunneling.

Reflection probabilities for symmetric barriers computed three ways
(forbidden-zone quadrature, closed forms, coordinate-space contour),
cross-validated against exact scattering oracles, with the same
machinery applied to Landau-Zener adiabatic transitions.
"""

from .errors import ConvergenceError, DomainError, SemirefError
from .landau_zener import (
    CouplingSpec,
    CrossingProfile,
    ProfileKind,
    adiabatic_reflection,
    default_t_span,
    evolve_tdse,
    instantaneous_eigensystem,
    lz_closed_form,
    mixing_angle,
)
from .potentials import (
    PhysicalConstants,
    PotentialKind,
    PotentialModel,
    im_v_inverse,
    v,
    v_on_imaginary_axis,
)
from .scattering_oracle import (
    ScatteringGrid,
    default_grid,
    exact_ho_reflection,
    numerov_reflection,
)
from .specfun import elliptic_b, elliptic_e, elliptic_k
from .wkb_reflection import (
    DEFAULT_QUADRATURE,
    Method,
    QuadratureSpec,
    ReflectionResult,
    Rows,
    forbidden_zone_integral,
    gauss_refined,
    low_energy_effective_omega,
    reflection_closed_form,
    reflection_contour_ll,
    reflection_momentum_space,
)

__version__ = "0.1.0"

__all__ = [
    "SemirefError",
    "DomainError",
    "ConvergenceError",
    "PotentialKind",
    "PotentialModel",
    "PhysicalConstants",
    "v",
    "im_v_inverse",
    "v_on_imaginary_axis",
    "elliptic_k",
    "elliptic_e",
    "elliptic_b",
    "Method",
    "ReflectionResult",
    "Rows",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "forbidden_zone_integral",
    "gauss_refined",
    "reflection_momentum_space",
    "reflection_closed_form",
    "reflection_contour_ll",
    "low_energy_effective_omega",
    "ScatteringGrid",
    "default_grid",
    "exact_ho_reflection",
    "numerov_reflection",
    "ProfileKind",
    "CrossingProfile",
    "CouplingSpec",
    "mixing_angle",
    "instantaneous_eigensystem",
    "adiabatic_reflection",
    "lz_closed_form",
    "evolve_tdse",
    "default_t_span",
    "__version__",
]
