"""Adiabatic transitions of a driven two-level system.

The Hamiltonian H(t) = [[f(t), eps], [eps, -f(t)]] sweeps through an
avoided crossing of gap 2*eps.  The probability of leaking out of the
instantaneous eigenstate maps onto above-barrier reflection with the
substitutions V -> -f^2, E -> eps^2, 2m -> 1, giving

    ln |R|^2 = -(2/hbar) * integral_{-eps}^{eps} dp Im f^{-1}(i sqrt(eps^2 - p^2)),

evaluated with the same forbidden-zone quadrature kernel as the barrier
problem.  For the linear sweep f(t) = t/T this collapses to the
Landau-Zener exponent -pi T eps^2 / hbar.  An adaptive Runge-Kutta
integration of the exact two-level Schroedinger equation serves as the
oracle; it automatically includes the O(hbar) term that the semiclassical
exponent drops, which sets the expected size of any residual discrepancy.

Both built-in profiles are odd and increasing; every observable here
depends on f only through f^2 and |f^{-1}|, so the overall sign of the
sweep is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError, NormDriftError
from .potentials import PhysicalConstants, _positive_finite
from .wkb_reflection import (
    DEFAULT_QUADRATURE,
    Method,
    QuadratureSpec,
    ReflectionResult,
    forbidden_zone_integral,
    _scaled_log_integral,
)

__all__ = [
    "ProfileKind",
    "CrossingProfile",
    "CouplingSpec",
    "TwoLevelState",
    "mixing_angle",
    "instantaneous_eigensystem",
    "adiabatic_reflection",
    "lz_closed_form",
    "evolve_tdse",
    "default_t_span",
]


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use.

    Only the TDSE oracle integrates ODEs; loading scipy.integrate at import
    time would make every command pay for it.
    """
    from scipy.integrate import solve_ivp as _solve_ivp

    return _solve_ivp(*args, **kwargs)


class ProfileKind(str, Enum):
    LINEAR = "linear"
    TANH = "tanh"


@dataclass(frozen=True)
class CrossingProfile:
    """Time dependence f(t) of the diagonal splitting.

    linear : f(t) = t / T
    tanh   : f(t) = e_sat * tanh(t / tau), saturating at +-e_sat
    """

    kind: ProfileKind
    T: float | None = None
    tau: float | None = None
    e_sat: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ProfileKind(self.kind))
        if self.kind is ProfileKind.LINEAR:
            _positive_finite("T", self.T)
            if self.tau is not None or self.e_sat is not None:
                raise DomainError("linear profile takes only T")
        else:
            _positive_finite("tau", self.tau)
            _positive_finite("e_sat", self.e_sat)
            if self.T is not None:
                raise DomainError("tanh profile takes tau and e_sat, not T")

    @classmethod
    def linear(cls, T: float) -> "CrossingProfile":
        return cls(ProfileKind.LINEAR, T=T)

    @classmethod
    def tanh(cls, tau: float, e_sat: float) -> "CrossingProfile":
        return cls(ProfileKind.TANH, tau=tau, e_sat=e_sat)

    @property
    def scale(self) -> float:
        """The sweep time scale (T or tau)."""
        return self.T if self.kind is ProfileKind.LINEAR else self.tau

    def value(self, t: float) -> float:
        """f(t) for scalar t."""
        if self.kind is ProfileKind.LINEAR:
            return t / self.T
        return self.e_sat * math.tanh(t / self.tau)

    def im_inverse(self, u):
        """Im f^{-1}(iu) for u >= 0, the per-family closed continuation.

        linear : T * u
        tanh   : tau * arctan(u / e_sat)
        """
        if self.kind is ProfileKind.LINEAR:
            return self.T * np.asarray(u, dtype=float)
        return self.tau * np.arctan(np.asarray(u, dtype=float) / self.e_sat)


@dataclass(frozen=True)
class CouplingSpec:
    """Off-diagonal coupling eps > 0 (half the minimum level splitting)."""

    epsilon: float

    def __post_init__(self):
        _positive_finite("epsilon", self.epsilon)


@dataclass(frozen=True)
class TwoLevelState:
    """Complex amplitude pair (a, b) at time t."""

    a: complex
    b: complex
    t: float

    def norm_sq(self) -> float:
        return abs(self.a) ** 2 + abs(self.b) ** 2


def mixing_angle(profile: CrossingProfile, eps: CouplingSpec, t: float) -> float:
    """Angle theta(t) in (0, pi) with tan(theta) = eps / f(t).

    Continuous across the crossing: theta -> 0 as f -> +inf, theta = pi/2
    at f = 0, theta -> pi as f -> -inf.
    """
    return math.atan2(eps.epsilon, profile.value(t))


def instantaneous_eigensystem(
    profile: CrossingProfile, eps: CouplingSpec, t: float
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Eigenvalues +-sqrt(f^2 + eps^2) and unit eigenvectors of H(t).

    phi_plus = (cos theta/2, sin theta/2), phi_minus = (-sin theta/2,
    cos theta/2); they stay orthonormal and satisfy H phi = E phi to
    rounding.
    """
    f = profile.value(t)
    e_plus = math.hypot(f, eps.epsilon)
    half = 0.5 * mixing_angle(profile, eps, t)
    c, s = math.cos(half), math.sin(half)
    return e_plus, -e_plus, np.array([c, s]), np.array([-s, c])


def _check_tanh_coupling(profile: CrossingProfile, eps: CouplingSpec) -> None:
    if profile.kind is ProfileKind.TANH and not eps.epsilon < profile.e_sat:
        raise DomainError(
            "tanh profile requires eps < e_sat for a genuine avoided crossing"
        )


def adiabatic_reflection(
    profile: CrossingProfile,
    eps: CouplingSpec,
    consts: PhysicalConstants,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> ReflectionResult:
    """Semiclassical transition probability out of the adiabatic state.

    Shares the forbidden-zone quadrature kernel with the barrier problem:
    the integrand is Im f^{-1} evaluated on sqrt(eps^2 - p^2), the rim
    p0 = eps, and the analog energy eps^2 is reported in the result.
    """
    _check_tanh_coupling(profile, eps)
    epsilon = eps.epsilon
    log_prob, err = _scaled_log_integral(
        lambda: forbidden_zone_integral(
            epsilon, 1.0, lambda xi: profile.im_inverse(np.sqrt(xi)), quad
        ),
        2.0 / consts.hbar,
    )
    return ReflectionResult.from_log(
        epsilon * epsilon, log_prob, Method.ADIABATIC, err
    )


def lz_closed_form(
    T: float, eps: CouplingSpec, consts: PhysicalConstants
) -> ReflectionResult:
    """Landau-Zener probability exp(-pi T eps^2 / hbar) for a linear sweep."""
    _positive_finite("T", T)
    epsilon = eps.epsilon
    log_prob = -math.pi * T * epsilon * epsilon / consts.hbar
    return ReflectionResult.from_log(epsilon * epsilon, log_prob, Method.CLOSED_FORM)


def default_t_span(
    profile: CrossingProfile, eps: CouplingSpec, consts: PhysicalConstants
) -> tuple[float, float]:
    """Symmetric span +-20 * max(sweep scale, hbar/eps, eps * T).

    The last term applies to the linear sweep only: its ends must reach
    |f| = |t|/T >= 20 eps, which the first two miss once eps > 1 and
    T eps^2 > hbar.
    """
    s = max(profile.scale, consts.hbar / eps.epsilon)
    if profile.kind is ProfileKind.LINEAR:
        s = max(s, eps.epsilon * profile.T)
    return (-20.0 * s, 20.0 * s)


def _check_t_span(
    profile: CrossingProfile, eps: CouplingSpec, t_span: tuple[float, float]
) -> None:
    t0, t1 = t_span
    if not t0 < 0.0 < t1:
        raise DomainError("t_span must straddle the crossing at t = 0")
    if profile.kind is ProfileKind.LINEAR:
        if min(abs(profile.value(t0)), abs(profile.value(t1))) < 20.0 * eps.epsilon:
            raise DomainError("t_span too narrow: need |f| >= 20 eps at the ends")
    else:
        for t, f_lim in ((t0, -profile.e_sat), (t1, profile.e_sat)):
            drift = abs(
                mixing_angle(profile, eps, t) - math.atan2(eps.epsilon, f_lim)
            )
            if drift > 1e-6:
                raise DomainError(
                    "t_span too narrow: mixing angle is "
                    f"{drift:.2e} rad from its asymptote"
                )


def _integrate(
    profile: CrossingProfile,
    eps: CouplingSpec,
    consts: PhysicalConstants,
    t_span: tuple[float, float],
    rel_tol: float,
    t_eval=None,
):
    """Integrate the exact amplitude equations, state as (Re a, Im a, Re b, Im b)."""
    epsilon = eps.epsilon
    inv_hbar = 1.0 / consts.hbar
    fval = profile.value

    def rhs(t, y):
        f = fval(t)
        ar, ai, br, bi = y
        return [
            inv_hbar * (f * ai + epsilon * bi),
            -inv_hbar * (f * ar + epsilon * br),
            inv_hbar * (epsilon * ai - f * bi),
            -inv_hbar * (epsilon * ar - f * br),
        ]

    half = 0.5 * mixing_angle(profile, eps, t_span[0])
    y0 = [math.cos(half), 0.0, math.sin(half), 0.0]
    # Drive the solver a decade below the requested tolerance so the
    # accumulated norm drift stays within the advertised 10 * rel_tol.
    sol = solve_ivp(
        rhs,
        t_span,
        y0,
        method="DOP853",
        rtol=0.1 * rel_tol,
        atol=1e-3 * rel_tol,
        t_eval=t_eval,
    )
    if not sol.success:
        raise ConvergenceError(f"TDSE integration failed: {sol.message}")
    return sol


def evolve_tdse(
    profile: CrossingProfile,
    eps: CouplingSpec,
    consts: PhysicalConstants,
    t_span: tuple[float, float] | None = None,
    rel_tol: float = 1e-10,
) -> tuple[float, float]:
    """Exact two-level evolution across the sweep.

    Prepares the instantaneous upper eigenstate at t_span[0], integrates
    the coupled amplitude equations with an adaptive Runge-Kutta scheme,
    and projects the final state onto the instantaneous eigenbasis at
    t_span[1].  Returns (trans_prob, refl_prob): the probabilities of
    staying adiabatic and of the non-adiabatic flip; they sum to one
    within the integration tolerance.
    """
    _positive_finite("rel_tol", rel_tol)
    _check_tanh_coupling(profile, eps)
    if t_span is None:
        t_span = default_t_span(profile, eps, consts)
    _check_t_span(profile, eps, t_span)

    sol = _integrate(profile, eps, consts, t_span, rel_tol)
    ar, ai, br, bi = sol.y[:, -1]
    final = TwoLevelState(a=complex(ar, ai), b=complex(br, bi), t=t_span[1])
    drift = abs(final.norm_sq() - 1.0)
    if drift > 100.0 * rel_tol:
        raise NormDriftError(f"norm drifted by {drift:.3e} (> 100 * rel_tol)")

    half = 0.5 * mixing_angle(profile, eps, t_span[1])
    c, s = math.cos(half), math.sin(half)
    trans_amp = c * final.a + s * final.b
    refl_amp = -s * final.a + c * final.b
    return abs(trans_amp) ** 2, abs(refl_amp) ** 2
