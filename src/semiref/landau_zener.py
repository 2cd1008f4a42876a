"""Adiabatic transitions of a driven two-level system.

The Hamiltonian H(t) = [[f(t), eps], [eps, -f(t)]] sweeps through an
avoided crossing of gap 2*eps.  The probability of leaking out of the
instantaneous eigenstate maps onto above-barrier reflection with the
substitutions V -> -f^2, E -> eps^2, 2m -> 1, giving

    ln |R|^2 = -(2/hbar) * integral_{-eps}^{eps} dp Im f^{-1}(i sqrt(eps^2 - p^2)),

evaluated with the same forbidden-zone quadrature kernel as the barrier
problem.  For the linear sweep f(t) = t/T this collapses to the
Landau-Zener exponent -pi T eps^2 / hbar.

The oracle integrates the exact two-level Schroedinger equation with the
fourth-order commutator-free Magnus scheme CF4 (Blanes & Moan, Appl.
Numer. Math. 56, 1519 (2006)), each exponential a closed-form 2x2 matrix.
It starts and ends in third-order superadiabatic states (Berry, Proc. R.
Soc. A 429, 61 (1990)), so the finite span does not add the O(hbar)
admixture of the plain eigenstates to the exponentially small result, and
it takes its error estimate from step halving and span doubling.  It
automatically includes the O(hbar) term that the semiclassical exponent
drops, which sets the expected size of any residual discrepancy.

Both built-in profiles are odd and increasing; every observable here
depends on f only through f^2 and |f^{-1}|, so the overall sign of the
sweep is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError
from .potentials import PhysicalConstants, _positive_finite
from .scattering_oracle import _IDENTITY, _mul2, _ordered_product
from .wkb_reflection import (
    DEFAULT_QUADRATURE,
    Method,
    QuadratureSpec,
    ReflectionResult,
    forbidden_zone_integral,
    _scaled_log,
)

__all__ = [
    "ProfileKind",
    "CrossingProfile",
    "CouplingSpec",
    "mixing_angle",
    "instantaneous_eigensystem",
    "adiabatic_reflection",
    "lz_closed_form",
    "evolve_tdse",
    "default_t_span",
]


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use.

    Only ``_integrate``, the DOP853 reference the tests hold the CF4 oracle
    to, solves ODEs; loading scipy.integrate at import time would make every
    command pay for it.
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

    def value(self, t):
        """f(t), elementwise for an array t."""
        if self.kind is ProfileKind.LINEAR:
            return t / self.T
        return self.e_sat * np.tanh(t / self.tau)

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
    (row,) = forbidden_zone_integral(
        np.array([epsilon]), 1.0, lambda xi: profile.im_inverse(np.sqrt(xi)), quad
    )
    row = _scaled_log(row, 2.0 / consts.hbar)
    if isinstance(row, ConvergenceError):
        raise row
    log_prob, err = row
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
    """Symmetric span +-20 s.

    tanh: s = max(tau, hbar/eps).  linear: s = max(T, sqrt(hbar T), eps T);
    the ends must reach |f| = |t|/T >= 20 eps (the last term), and
    sqrt(hbar T) is the time the crossing takes when eps is too small to
    matter, where hbar/eps would grow without bound as eps -> 0.
    """
    if profile.kind is ProfileKind.TANH:
        s = max(profile.tau, consts.hbar / eps.epsilon)
    else:
        T = profile.T
        s = max(T, math.sqrt(consts.hbar * T), eps.epsilon * T)
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
    psi0=None,
):
    """Integrate the exact amplitude equations with DOP853, state as
    (Re a, Im a, Re b, Im b).

    Starts in ``psi0`` (complex pair), by default the upper eigenstate at
    t_span[0].  An independent reference for the CF4 oracle.
    """
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

    if psi0 is None:
        half = 0.5 * mixing_angle(profile, eps, t_span[0])
        psi0 = (math.cos(half), math.sin(half))
    a, b = complex(psi0[0]), complex(psi0[1])
    # Drive the solver a decade below the requested tolerance so the
    # accumulated norm drift stays within the advertised 10 * rel_tol.
    sol = solve_ivp(
        rhs,
        t_span,
        [a.real, a.imag, b.real, b.imag],
        method="DOP853",
        rtol=0.1 * rel_tol,
        atol=1e-3 * rel_tol,
        t_eval=t_eval,
    )
    if not sol.success:
        raise ConvergenceError(f"TDSE integration failed: {sol.message}")
    return sol


# CF4: Gauss nodes t + c_{1,2} h and exponent weights alpha_{1,2}.
_C1, _C2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
_A1, _A2 = 0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0
# Steps per radian of swept phase at rel_tol = 1; the work grows as
# rel_tol**-1/4, the inverse of the scheme's order.
_PER_RADIAN = 0.06
_MIN_STEPS = 64
_MAX_STEPS = 2**21  # in the finest run; ~1 s of work
_CHUNK = 2**16  # steps multiplied per array pass, to bound memory
_TABLE = 1025  # samples of the phase table that places the steps


def _phase_table(
    profile: CrossingProfile, epsilon: float, hbar: float, a: float, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """Times over [a, b] and the phase swept from a to each of them.

    The phase is the integral of 2 sqrt(E eps)/hbar plus the mixing angle
    turned.  Steps equally spaced in it sit densest at the crossing, where
    the step error of ln P arises: far out, where the interlevel phase
    2E/hbar runs fastest, the error it leaves is self-averaging.  On the
    linear sweep, the same number of steps spaced evenly in the interlevel
    phase leaves a 30-100 times larger error.
    """
    t = np.linspace(a, b, _TABLE)
    f = profile.value(t)
    rate = 2.0 * np.sqrt(np.hypot(f, epsilon) * epsilon) / hbar
    phase = np.abs(np.arctan2(epsilon, f) - math.atan2(epsilon, f[0]))
    phase[1:] += np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t))
    return t, phase


def _steps(table: tuple[np.ndarray, np.ndarray], rel_tol: float) -> int:
    """Steps of the first, coarser run over ``table``'s span."""
    steps = math.ceil(table[1][-1] * _PER_RADIAN * rel_tol**-0.25)
    return min(max(steps, _MIN_STEPS), _MAX_STEPS // 2)


def _propagator(
    profile: CrossingProfile,
    epsilon: float,
    hbar: float,
    table: tuple[np.ndarray, np.ndarray],
    steps: int,
):
    """Entries (u00, u01, u10, u11) of the CF4 propagator over ``table``'s
    span, in ``steps`` steps equally spaced in its phase.

    A step from t to t + h is exp(-ih/hbar (alpha_1 H_1 + alpha_2 H_2))
    exp(-ih/hbar (alpha_2 H_1 + alpha_1 H_2)) with H_k = H(t + c_k h).
    Each factor is exp(-i (v_z sigma_z + v_x sigma_x)) = cos w - i sin(w)/w
    (v_z sigma_z + v_x sigma_x), w = |v|, formed for all factors at once and
    multiplied in time order, later factors to the left.
    """
    t_tab, phase = table
    nodes = np.interp(np.linspace(0.0, phase[-1], steps + 1), phase, t_tab)
    total = _IDENTITY
    for start in range(0, steps, _CHUNK):
        t = nodes[start : start + _CHUNK + 1]
        h = np.diff(t)
        f1 = profile.value(t[:-1] + _C1 * h)
        f2 = profile.value(t[:-1] + _C2 * h)
        dt = h / hbar
        # Factors in order of application, reversed so the latest is first.
        vz = np.empty((dt.size, 2))
        vz[:, 0] = (_A2 * f1 + _A1 * f2) * dt
        vz[:, 1] = (_A1 * f1 + _A2 * f2) * dt
        vz = vz.ravel()[::-1]
        vx = np.repeat(0.5 * epsilon * dt, 2)[::-1]
        w = np.hypot(vz, vx)  # > 0, as vx is
        sinc = np.sin(w) / w
        diag = np.cos(w) - 1j * (sinc * vz)
        off = -1j * (sinc * vx)
        chunk = _ordered_product(diag, off, off, diag.conj())
        total = _mul2(chunk, total)
    return total


def _derivatives(profile: CrossingProfile, t: np.ndarray):
    """f, f' and f'' at t."""
    if profile.kind is ProfileKind.LINEAR:
        return t / profile.T, np.full_like(t, 1.0 / profile.T), np.zeros_like(t)
    x, tau, e_sat = t / profile.tau, profile.tau, profile.e_sat
    q = np.exp(-2.0 * np.abs(x))
    sech2 = 4.0 * q / (1.0 + q) ** 2  # no overflow far out on the plateau
    u = np.tanh(x)
    return e_sat * u, e_sat * sech2 / tau, -2.0 * e_sat * u * sech2 / tau**2


def _kappa2(profile: CrossingProfile, epsilon: float, hbar: float, t: np.ndarray):
    """First two iterates of the superadiabatic recursion at t, with the
    theta' and E that the next iterate needs.

    The upper state phi_+ + kappa phi_- solves the Schroedinger equation
    when 2E kappa = -i hbar theta'/2 - i hbar kappa' - i hbar theta' kappa^2/2.
    Iterating from kappa = 0 gives kappa_1 = -i hbar theta'/(4E) and, with
    kappa_1' in closed form, kappa_2.
    """
    f, f1, f2 = _derivatives(profile, t)
    e2 = f * f + epsilon * epsilon
    energy = np.sqrt(e2)
    th1 = -epsilon * f1 / e2
    th2 = -epsilon * f2 / e2 + 2.0 * epsilon * f * f1 * f1 / (e2 * e2)
    de = f * f1 / energy
    k1 = -0.25j * hbar * th1 / energy
    dk1 = -0.25j * hbar * (th2 * energy - th1 * de) / e2
    k2 = k1 - 0.5j * hbar * (dk1 + 0.5 * th1 * k1 * k1) / energy
    return k1, k2, th1, energy


def _edge_states(
    profile: CrossingProfile, epsilon: float, hbar: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Unit upper and lower superadiabatic states at t.

    kappa is the third iterate, its kappa_2' a central difference.  Its
    terms form an asymptotic series in hbar / (E * the time over which the
    mixing angle changes); it is summed up to, not including, its smallest
    term (the last term is taken if it still shrinks).  Where the terms
    grow at once, as on a nearly diabatic crossing seen over a span much
    shorter than hbar / E, the plain eigenstates are kept.  The lower state
    phi_- - conj(kappa) phi_+ solves the mirrored recursion and is
    orthogonal to the upper one.
    """
    delta = 1e-3 * min(abs(t), profile.scale)
    k1, k2, th1, energy = _kappa2(profile, epsilon, hbar, np.array([t, t - delta, t + delta]))
    dk2 = (k2[2] - k2[1]) / (2.0 * delta)
    k3 = k1[0] - 0.5j * hbar * (dk2 + 0.5 * th1[0] * k2[0] * k2[0]) / energy[0]
    terms = (k1[0], k2[0] - k1[0], k3 - k2[0])
    sizes = [1.0, *map(abs, terms), 0.0]
    kappa = 0.0
    for n, term in enumerate(terms, start=1):
        if not sizes[n - 1] > sizes[n] > sizes[n + 1]:
            break
        kappa += term
    _, _, phi_p, phi_m = instantaneous_eigensystem(profile, CouplingSpec(epsilon), t)
    norm = math.sqrt(1.0 + abs(kappa) ** 2)
    return (phi_p + kappa * phi_m) / norm, (phi_m - np.conj(kappa) * phi_p) / norm


def _log_flip(
    profile: CrossingProfile,
    epsilon: float,
    hbar: float,
    t_span: tuple[float, float],
    u,
) -> float:
    """ln of the probability that propagator ``u`` over ``t_span`` takes the
    upper edge state at t_span[0] to the lower one at t_span[1]."""
    upper, _ = _edge_states(profile, epsilon, hbar, t_span[0])
    _, lower = _edge_states(profile, epsilon, hbar, t_span[1])
    u00, u01, u10, u11 = u
    amp = (np.conj(lower[0]) * (u00 * upper[0] + u01 * upper[1])
           + np.conj(lower[1]) * (u10 * upper[0] + u11 * upper[1]))
    return min(math.log(max(abs(amp) ** 2, np.finfo(float).tiny)), 0.0)


def _span_move(
    profile: CrossingProfile,
    epsilon: float,
    hbar: float,
    t_span: tuple[float, float],
    table: tuple[np.ndarray, np.ndarray],
    steps: int,
    inner_u,
    inner: float,
) -> float:
    """|Delta ln P| when the span doubles, at the steps per radian of the run
    ``inner_u`` (``steps`` steps over ``table``, giving ``inner``), whose
    product it reuses between the old ends."""
    t0, t1 = t_span
    density = steps / table[1][-1]
    outer = []
    for a, b in ((2.0 * t0, t0), (t1, 2.0 * t1)):
        side = _phase_table(profile, epsilon, hbar, a, b)
        n = max(_MIN_STEPS, math.ceil(side[1][-1] * density))
        outer.append(_propagator(profile, epsilon, hbar, side, n))
    wide_u = _mul2(outer[1], _mul2(inner_u, outer[0]))
    return abs(_log_flip(profile, epsilon, hbar, (2.0 * t0, 2.0 * t1), wide_u) - inner)


def evolve_tdse(
    profile: CrossingProfile,
    eps: CouplingSpec,
    consts: PhysicalConstants,
    t_span: tuple[float, float] | None = None,
    rel_tol: float = 1e-10,
) -> ReflectionResult:
    """Exact two-level transition probability across the sweep.

    Prepares the upper superadiabatic state at t_span[0], propagates it
    with the CF4 Magnus scheme, and projects onto the lower superadiabatic
    state at t_span[1]; the result is the probability of the non-adiabatic
    flip, from the finer of two runs a step halving apart.
    ``err_estimate`` is |Delta ln P| between those runs plus |Delta ln P|
    when the coarser run's span doubles, an absolute error on ``log_prob``.
    The steps per radian of swept phase start at a multiple of
    rel_tol**-1/4 and double until the estimate fits 100 * rel_tol.  If a
    doubling no longer halves the estimate (rounding, as on a sweep slow
    enough that ln P is below what double precision resolves), a
    ConvergenceError carries the finer value and its estimate.
    """
    _positive_finite("rel_tol", rel_tol)
    _check_tanh_coupling(profile, eps)
    if t_span is None:
        t_span = default_t_span(profile, eps, consts)
    _check_t_span(profile, eps, t_span)
    epsilon, hbar = eps.epsilon, consts.hbar
    bound = 100.0 * rel_tol

    table = _phase_table(profile, epsilon, hbar, *t_span)
    steps = _steps(table, rel_tol)
    coarse_u = _propagator(profile, epsilon, hbar, table, steps)
    coarse = _log_flip(profile, epsilon, hbar, t_span, coarse_u)
    last = math.inf
    while True:
        fine_u = _propagator(profile, epsilon, hbar, table, 2 * steps)
        fine = _log_flip(profile, epsilon, hbar, t_span, fine_u)
        d_step = abs(fine - coarse)
        err = d_step
        if d_step <= bound:
            err += _span_move(profile, epsilon, hbar, t_span, table, steps, coarse_u, coarse)
            if err <= bound:
                return ReflectionResult.from_log(epsilon * epsilon, fine, Method.TDSE, err)
        # Refine while each level at least halves the estimate: a stall
        # means rounding (or the span) now sets the error.
        if err > 0.5 * last or 4 * steps > _MAX_STEPS:
            raise ConvergenceError(
                f"TDSE error estimate {err:.3e} exceeds 100 * rel_tol "
                f"(step halving moves ln P by {d_step:.1e})",
                best=fine, err_estimate=err,
            )
        last, steps, coarse_u, coarse = err, 2 * steps, fine_u, fine
