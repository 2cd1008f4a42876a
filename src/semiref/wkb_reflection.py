"""Above-barrier reflection probabilities by three independent routes.

The primary route evaluates the reflection exponent as a tunneling
integral across the classically forbidden zone of momentum space,

    ln |R(E)|^2 = -(2/hbar) * integral_{-p0}^{p0} dp Im V^{-1}(E - p^2/2m),

with p0 = sqrt(2mE).  The second route is the per-family closed form of
that integral; the third converts the coordinate-space contour integral
-(4/hbar) * integral_0^{y0} dy sqrt(2m(E - V(iy))) up to the imaginary
turning point y0.  Integration by parts makes the first and third exactly
equal, which the tests exploit as a cross check.

All quadratures substitute away the square-root vanishing of the
integrand at the interval ends (p = p0 sin(theta), y = y0 sin^2(phi)),
leaving analytic integrands on which fixed-node Gauss-Legendre converges
geometrically.  Levels double the node count until two successive levels
agree to the requested relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError
from .potentials import (
    PhysicalConstants,
    PotentialKind,
    PotentialModel,
    im_v_inverse,
    v_on_imaginary_axis,
)
from .specfun import elliptic_e, elliptic_k

__all__ = [
    "Method",
    "ReflectionResult",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "forbidden_zone_integral",
    "gauss_refined",
    "reflection_momentum_space",
    "reflection_closed_form",
    "reflection_contour_ll",
    "low_energy_effective_omega",
]

# Floor for relative-convergence denominators, far below any physical scale.
_TINY = 1e-300


class Method(str, Enum):
    """Tags identifying how a reflection probability was obtained."""

    MOMENTUM_QUADRATURE = "momentum"
    CLOSED_FORM = "closed"
    CONTOUR_LL = "contour"
    EXACT_HO = "exact_ho"
    NUMEROV_ORACLE = "numerov"
    ADIABATIC = "adiabatic"
    TDSE = "tdse"


@dataclass(frozen=True)
class ReflectionResult:
    """A reflection probability with its natural log and an error estimate.

    ``prob`` always equals exp(log_prob); construct through ``from_log`` to
    keep the pair consistent.  ``err_estimate`` is an absolute estimate on
    ``log_prob`` (zero for closed forms).
    """

    energy: float
    log_prob: float
    prob: float
    method: Method
    err_estimate: float

    def __post_init__(self):
        if not self.log_prob <= 0.0:
            raise DomainError(f"log_prob must be <= 0, got {self.log_prob!r}")
        if not 0.0 < self.prob <= 1.0:
            raise DomainError(f"prob must lie in (0, 1], got {self.prob!r}")
        if not self.err_estimate >= 0.0:
            raise DomainError("err_estimate must be non-negative")

    @classmethod
    def from_log(
        cls,
        energy: float,
        log_prob: float,
        method: Method,
        err_estimate: float = 0.0,
    ) -> "ReflectionResult":
        prob = math.exp(log_prob)
        if prob == 0.0:
            raise DomainError(
                f"probability underflows double precision (log_prob={log_prob:.6g})"
            )
        return cls(
            energy=float(energy),
            log_prob=float(log_prob),
            prob=prob,
            method=Method(method),
            err_estimate=float(err_estimate),
        )


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre refinement schedule.

    ``nodes`` is the base node count; each refinement level doubles it.
    A single level cannot certify convergence and always fails, which the
    validation suite uses as a designed failure mode.
    """

    nodes: int = 32
    refinement_levels: int = 3
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.nodes >= 8:
            raise DomainError("nodes must be >= 8")
        if not self.refinement_levels >= 1:
            raise DomainError("refinement_levels must be >= 1")
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")

    def node_counts(self) -> tuple[int, ...]:
        return tuple(self.nodes << k for k in range(self.refinement_levels))


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_refined(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """Integrate f over [lo, hi], refining until two levels agree.

    Returns (value, err) where err is the last inter-level difference.
    Raises ConvergenceError carrying the best value if the schedule is
    exhausted before reaching ``spec.rel_tol``.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    prev = None
    err = math.inf
    for n in spec.node_counts():
        x, w = _gauss_legendre(n)
        value = half * float(np.dot(w, f(mid + half * x)))
        if prev is not None:
            err = abs(value - prev)
            if err <= spec.rel_tol * max(abs(value), _TINY):
                return value, err
        prev = value
    raise ConvergenceError(
        f"quadrature did not reach rel_tol={spec.rel_tol:g} "
        f"with node counts {spec.node_counts()}",
        best=prev,
        err_estimate=err,
    )


def forbidden_zone_integral(
    p0: float,
    xi_scale: float,
    im_of_xi: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """integral_{-p0}^{p0} Im x(p) dp via the substitution p = p0 sin(theta).

    ``im_of_xi`` maps the positive forbidden-zone argument
    xi(p) = xi_scale * (p0^2 - p^2) to Im of the inverse profile there, so
    Im x(p) is even in p and vanishes at |p| = p0.  The substitution turns
    the square-root rim behaviour into an analytic function of theta; xi is
    formed from cos(theta) directly so the rim never suffers cancellation.
    """

    def f(theta: np.ndarray) -> np.ndarray:
        c = np.cos(theta)
        xi = xi_scale * (p0 * c) ** 2
        return p0 * c * im_of_xi(xi)

    return gauss_refined(f, -0.5 * math.pi, 0.5 * math.pi, spec)


def _scaled_log_integral(run: Callable[[], tuple[float, float]], scale: float):
    """Run a quadrature and convert (value, err) to (-scale*value, scale*err)."""
    try:
        value, err = run()
    except ConvergenceError as exc:
        best = None if exc.best is None else -scale * exc.best
        raise ConvergenceError(
            str(exc), best=best, err_estimate=scale * exc.err_estimate
        ) from exc
    return -scale * value, scale * err


def _require_positive_energy(E: float) -> None:
    if not E > 0.0:
        raise DomainError("E must be positive for above-barrier reflection")


def reflection_momentum_space(
    model: PotentialModel,
    E: float,
    consts: PhysicalConstants,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> ReflectionResult:
    """Reflection probability from the momentum-space tunneling integral.

    On ConvergenceError the exception's ``best`` attribute carries the
    non-converged log-probability estimate.
    """
    _require_positive_energy(E)
    p0 = math.sqrt(2.0 * consts.mass * E)
    log_prob, err = _scaled_log_integral(
        lambda: forbidden_zone_integral(
            p0, 0.5 / consts.mass, lambda xi: im_v_inverse(model, xi), quad
        ),
        2.0 / consts.hbar,
    )
    return ReflectionResult.from_log(E, log_prob, Method.MOMENTUM_QUADRATURE, err)


def reflection_closed_form(
    model: PotentialModel, E: float, consts: PhysicalConstants
) -> ReflectionResult:
    """Closed-form reflection exponent for each barrier family.

    inverse_ho : ln|R|^2 = -2 pi E / (hbar omega),  omega = sqrt(alpha/m)
    sech2      : ln|R|^2 = -(2 pi a/hbar) sqrt(2m) (sqrt(E+V0) - sqrt(V0))
    lorentzian : ln|R|^2 = -(4a/hbar) sqrt(2mE/(1+g)) *
                           ((1+g) E(1/(1+g)) - g K(1/(1+g))),  g = V0/E

    The elliptic integrals take the parameter (modulus squared); this
    convention is pinned by agreement with the momentum-space quadrature.
    """
    _require_positive_energy(E)
    hbar, mass = consts.hbar, consts.mass
    if model.kind is PotentialKind.INVERSE_HO:
        omega = math.sqrt(model.alpha / mass)
        log_prob = -2.0 * math.pi * E / (hbar * omega)
    elif model.kind is PotentialKind.SECH2:
        # sqrt(E+V0) - sqrt(V0) written without cancellation at small E.
        diff = E / (math.sqrt(E + model.v0) + math.sqrt(model.v0))
        log_prob = -(2.0 * math.pi * model.a / hbar) * math.sqrt(2.0 * mass) * diff
    else:
        gamma = model.v0 / E
        m_ell = E / (E + model.v0)
        if m_ell == 1.0:
            # E/V0 past ~2^53 rounds m to 1, where K diverges; there
            # g < 2^-53, so g K(m) < 3e-15 and the bracket is 1 to rounding.
            bracket = 1.0
        else:
            bracket = (1.0 + gamma) * elliptic_e(m_ell) - gamma * elliptic_k(m_ell)
        log_prob = -(4.0 * model.a / hbar) * math.sqrt(2.0 * mass * E * m_ell) * bracket
    return ReflectionResult.from_log(E, log_prob, Method.CLOSED_FORM)


def reflection_contour_ll(
    model: PotentialModel,
    E: float,
    consts: PhysicalConstants,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> ReflectionResult:
    """Reflection probability from the coordinate-space contour integral.

    Takes the imaginary turning point y0 with V(i y0) = E in closed form,
    y0 = Im V^{-1}(E) (``im_v_inverse`` at xi = E), then evaluates
    -(4/hbar) * integral_0^{y0} dy sqrt(2m(E - V(iy))) with y = y0 sin^2(phi)
    absorbing the square-root endpoint behaviour.
    """
    _require_positive_energy(E)
    y0 = im_v_inverse(model, E)
    two_m = 2.0 * consts.mass

    def f(phi: np.ndarray) -> np.ndarray:
        s = np.sin(phi)
        c = np.cos(phi)
        y = y0 * s * s
        # Near y0, rounding can put V(iy) a few ulps above E; clip to zero.
        ksq = np.maximum(two_m * (E - v_on_imaginary_axis(model, y)), 0.0)
        return 2.0 * y0 * s * c * np.sqrt(ksq)

    log_prob, err = _scaled_log_integral(
        lambda: gauss_refined(f, 0.0, 0.5 * math.pi, quad), 4.0 / consts.hbar
    )
    return ReflectionResult.from_log(E, log_prob, Method.CONTOUR_LL, err)


def low_energy_effective_omega(
    model: PotentialModel, consts: PhysicalConstants
) -> float:
    """Oscillator frequency set by the barrier-top curvature.

    omega_eff = sqrt(-V''(0)/m); both flat-tailed families give
    sqrt(2 V0 / (m a^2)), so their low-energy reflection is universal.
    """
    return math.sqrt(model.curvature_top / consts.mass)
