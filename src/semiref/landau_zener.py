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
admixture of the plain eigenstates to the exponentially small result.  Its
value is Richardson-extrapolated from two runs a step halving apart, and
its error estimate is that extrapolation's step term plus the move of the
extrapolated value when the span doubles.  It automatically includes the
O(hbar) term that the semiclassical exponent drops, which sets the
expected size of any residual discrepancy.

Both built-in profiles are odd and increasing; every observable here
depends on f only through f^2 and |f^{-1}|, so the overall sign of the
sweep is irrelevant.  The oracle relies on the oddness: on its symmetric
span it steps only t >= 0 and takes the rest as that half's mirror image.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError
from .potentials import PhysicalConstants, _positive_finite
from .scattering_oracle import _PAIR, _ordered_product, _richardson, _work_array
from .wkb_reflection import (
    DEFAULT_QUADRATURE,
    Method,
    QuadratureSpec,
    ReflectionResult,
    Rows,
    _scaled,
    _single,
    forbidden_zone_integral,
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
    the integrand is Im f^{-1} evaluated on sqrt(eps^2 - p^2), and the
    analog energy eps^2 is reported in the result.  The integral runs in
    units of eps, p = eps q over the rim q0 = 1, so eps^2 is never formed
    where it could underflow.  ``Rows.from_outcomes`` judges the row: a
    quadrature that does not converge raises its ConvergenceError, and
    one whose exponent overflows the DomainError of an underflow.
    """
    _check_tanh_coupling(profile, eps)
    epsilon = eps.epsilon
    rows = forbidden_zone_integral(
        np.array([1.0]), 1.0, lambda xi: profile.im_inverse(epsilon * np.sqrt(xi)), quad
    )
    return _single(Rows.from_outcomes(
        [epsilon * epsilon], Method.ADIABATIC, _scaled(rows, 2.0 * epsilon / consts.hbar)))


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
    """Symmetric span +-20 s, s a time of the sweep's own.

    tanh: s = max(tau, hbar/eps).  linear: s = max(sqrt(hbar T), eps T);
    the ends must reach |f| = |t|/T >= 20 eps (the last term), and
    sqrt(hbar T) is the time the crossing takes when eps is too small to
    matter, where hbar/eps would grow without bound as eps -> 0.
    """
    if profile.kind is ProfileKind.TANH:
        s = max(profile.tau, consts.hbar / eps.epsilon)
    else:
        T = profile.T
        s = max(_sqrt_product(consts.hbar, T), eps.epsilon * T)
    return (-20.0 * s, 20.0 * s)


def _sqrt_product(x: float, y: float) -> float:
    """sqrt(x y) with x first scaled near 1 by an even power of two, which
    the root halves exactly: sqrt(x * y) wherever x y is a normal float."""
    n = math.frexp(x)[1] // 2
    return math.ldexp(math.sqrt(math.ldexp(x, -2 * n) * y), n)


def _in_sweep_units(
    profile: CrossingProfile, epsilon: float, hbar: float, t1: float
) -> tuple[CrossingProfile, float, float, float]:
    """(profile, epsilon, hbar, t1) in a time unit 2^k near t1 and an energy
    unit 2^j near hbar / 2^k.  Powers of two rescale exactly, so ln P comes
    out bit for bit the same wherever the inputs are normal floats, and the
    stepping meets only numbers near 1."""
    k = math.frexp(t1)[1]
    j = math.frexp(hbar)[1] - k
    if profile.kind is ProfileKind.LINEAR:
        profile = CrossingProfile.linear(math.ldexp(profile.T, j - k))
    else:
        profile = CrossingProfile.tanh(math.ldexp(profile.tau, -k),
                                       math.ldexp(profile.e_sat, -j))
    return (profile, math.ldexp(epsilon, -j), math.ldexp(hbar, -j - k),
            math.ldexp(t1, -k))


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
_PER_RADIAN = 0.03
_MIN_STEPS = 64
_MAX_STEPS = 2**21  # in the finest run; ~1 s of work
# Steps multiplied per array pass.  It sizes the per-thread rows of
# _step_pairs (4 real and 7 complex, 1,152 KiB) and the arrays a chunk
# still allocates, its phases, times and profile values (64 KiB each, small
# enough that the heap keeps reusing them where 2^16-step arrays were
# trimmed off and faulted in again on every chunk).  2^12 pays numpy's
# per-call overhead twice as often.
_CHUNK = 2**13
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


def _needed_steps(table: tuple[np.ndarray, np.ndarray], rel_tol: float) -> float:
    """Steps the first, coarser run over ``table``'s span needs, before
    ``_steps`` rounds it up and bounds it."""
    return table[1][-1] * _PER_RADIAN * rel_tol**-0.25


def _steps(table: tuple[np.ndarray, np.ndarray], rel_tol: float) -> int:
    """Steps of the first, coarser run over ``table``'s span."""
    return min(max(math.ceil(_needed_steps(table, rel_tol)), _MIN_STEPS), _MAX_STEPS // 2)


def _propagator(
    profile: CrossingProfile,
    epsilon: float,
    hbar: float,
    table: tuple[np.ndarray, np.ndarray],
    steps: int,
    first: int = 0,
):
    """Pair (a, b) of the CF4 propagator [[a, b], [-conj(b), conj(a)]] over
    ``table``'s span, in ``steps`` steps equally spaced in its phase, or
    over the steps from ``first`` on, the first of them from t = 0 exactly
    (the right half of a symmetric span, ``_mirrored_propagator``).

    Every factor is an SU(2) matrix, so the steps are multiplied as pairs
    by ``_ordered_product`` with the pair rule, ``_CHUNK`` steps at a time
    (``_step_pairs``), later steps to the left.
    """
    t_tab, phase = table
    per_step = phase[-1] / steps
    total = _PAIR.identity
    for start in range(first, steps, _CHUNK):
        stop = min(start + _CHUNK, steps)
        # The phases of np.linspace(0, phase[-1], steps + 1), bit for bit.
        x = np.arange(start, stop + 1, dtype=float)
        x *= per_step
        if stop == steps:
            x[-1] = phase[-1]
        t = np.interp(x, phase, t_tab)
        if start == first > 0:
            t[0] = 0.0
        a, b = _step_pairs(profile, epsilon, hbar, t)
        total = _ordered_product(a[::-1], b[::-1], tail=total, rule=_PAIR)
    return total


def _mirror(u):
    """The pair of sigma_x u^T sigma_x: for an odd profile, the propagator
    over the mirror image t -> -t of the stretch that u spans.

    H(-t) = sigma_x H(t) sigma_x when f is odd.  A CF4 step over the
    mirrored stretch sees its Gauss nodes swapped (c_1 = 1 - c_2), so it is
    sigma_x S^T sigma_x with S the step it mirrors, its two factors in the
    other order; each is exp(-i (real symmetric)), a symmetric matrix.  The
    mirrored steps come in the reverse time order, so their product is
    sigma_x U^T sigma_x, which for [[a, b], [-conj(b), conj(a)]] is the
    pair (conj(a), b).
    """
    a, b = u
    return np.conj(a), b


def _mirrored_propagator(
    profile: CrossingProfile,
    epsilon: float,
    hbar: float,
    table: tuple[np.ndarray, np.ndarray],
    steps: int,
):
    """``_propagator`` over a symmetric span in an even number of steps,
    from the right half's steps only: the left half is its ``_mirror``."""
    right = _propagator(profile, epsilon, hbar, table, steps, steps // 2)
    return _PAIR.mul(right, _mirror(right))


def _step_pairs(profile: CrossingProfile, epsilon: float, hbar: float, t: np.ndarray):
    """Pairs (a, b) of the CF4 steps between the times ``t``, in time
    order, in this thread's work arrays.

    A step from t to t + h is exp(-ih/hbar (alpha_1 H_1 + alpha_2 H_2))
    exp(-ih/hbar (alpha_2 H_1 + alpha_1 H_2)) with H_k = H(t + c_k h).
    Each factor is exp(-i (v_z sigma_z + v_x sigma_x)) = cos w - i sin(w)/w
    (v_z sigma_z + v_x sigma_x), w = |v|: the pair (cos w - i s v_z,
    -i s v_x) with s = sin(w)/w, formed from -v so that no pass negates it.
    The two pairs are fused by the pair rule, the second factor times the
    first.  Every array here is a row of a work array kept between calls,
    so that the only step-sized arrays a chunk allocates are its phases,
    ``t`` and the profile's values.
    """
    n = t.size - 1
    dt, vx, f1, f2 = _work_array(float, 4 * n, "cf4")[: 4 * n].reshape(4, n)
    pairs = _work_array(complex, 7 * n, "cf4")[: 7 * n].reshape(7, n)
    np.subtract(t[1:], t[:-1], out=dt)
    for f, node in ((f1, _C1), (f2, _C2)):
        np.multiply(node, dt, out=vx)  # the node times t + c_k h
        vx += t[:-1]
        f[...] = profile.value(vx)
    dt /= hbar
    np.multiply(-0.5 * epsilon, dt, out=vx)  # -v_x
    # Factor 1 weighs f1 by alpha_2 and f2 by alpha_1, factor 2 the reverse.
    for (a, b), (k1, k2) in (((pairs[0], pairs[1]), (_A2, _A1)),
                             ((pairs[2], pairs[3]), (_A1, _A2))):
        z, w, s = a.imag, a.real, b.real
        np.multiply(-k1, f1, out=z)
        np.multiply(-k2, f2, out=s)
        z += s
        z *= dt  # -v_z
        np.hypot(z, vx, out=w)  # w > 0, as vx is not 0
        np.sin(w, out=s)
        s /= w
        np.cos(w, out=w)
        z *= s
        np.multiply(s, vx, out=b.imag)
        s[...] = 0.0
    _PAIR.into(pairs[2:4], pairs[0:2], pairs[4:])
    return pairs[4], pairs[5]


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

    kappa is the third iterate, its kappa_2' a central difference of step
    1e-3 |t|, as t is a span's end, where the mixing angle changes over
    times of order |t| or shorter.  Its terms form an asymptotic series in
    hbar / (E * that time); it is summed up to, not including, its
    smallest term (the last term is taken if it still shrinks).  Where the
    terms grow at once, the plain eigenstates are kept.  The lower state
    phi_- - conj(kappa) phi_+ solves the mirrored recursion and is
    orthogonal to the upper one.
    """
    delta = 1e-3 * abs(t)
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


def _log_flip(edges, u) -> float:
    """ln of the probability that propagator ``u`` takes the upper state of
    ``edges``, the edge states at the start and the end of its span, to
    the lower one at the end."""
    (upper, _), (_, lower) = edges
    a, b = u
    amp = (np.conj(lower[0]) * (a * upper[0] + b * upper[1])
           + np.conj(lower[1]) * (-np.conj(b) * upper[0] + np.conj(a) * upper[1]))
    return min(math.log(max(abs(amp) ** 2, np.finfo(float).tiny)), 0.0)


def _wide_flip(
    profile: CrossingProfile,
    epsilon: float,
    hbar: float,
    side,
    edges,
    density: float,
    inner_u,
) -> float:
    """ln P over the doubled span, at ``density`` steps per radian, the
    density of the run ``inner_u``, whose product it reuses between the old
    ends.  ``side`` is the phase table of the added stretch (t1, 2 t1), and
    the one before -t1 is its ``_mirror``; ``edges`` are the edge states at
    the doubled span's ends."""
    outer = _propagator(profile, epsilon, hbar, side,
                        max(_MIN_STEPS, math.ceil(side[1][-1] * density)))
    return _log_flip(edges, _PAIR.mul(outer, _PAIR.mul(inner_u, _mirror(outer))))


@contextmanager
def _in_double_precision():
    """Raise DomainError where the block overflows, divides by zero, turns
    invalid or finds a scale underflowed to 0 (a DomainError of its own):
    the sweep's scales exceed double precision."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (ArithmeticError, DomainError) as exc:
        raise DomainError(f"the sweep's scales exceed double precision ({exc})") from None


def evolve_tdse(
    profile: CrossingProfile,
    eps: CouplingSpec,
    consts: PhysicalConstants,
    rel_tol: float = 1e-10,
) -> ReflectionResult:
    """Exact two-level transition probability across the sweep.

    Prepares the upper superadiabatic state at default_t_span's start,
    propagates it with the CF4 Magnus scheme, and projects onto the lower
    superadiabatic state at its end; the result is the probability of the
    non-adiabatic flip, Richardson-extrapolated from two runs a step
    halving apart (``_richardson``).
    Both profiles are odd and the span is symmetric, so each run steps
    only [0, t1] and takes the left half as that half's ``_mirror``; its
    step count is rounded up to even for that.
    The run takes time in units near the span and energy in units near
    hbar over it, both powers of two, so the answer does not depend on the
    units of the inputs.
    ``err_estimate`` is an absolute error on ``log_prob``: the step term
    |fine - coarse|/15 plus the span term, |Delta ln P| when the span
    doubles.  The doubled span's value is extrapolated the same way, from
    the two runs each carried out over the added stretches at its own
    density.
    The steps per radian of swept phase start at a multiple of
    rel_tol**-1/4 and double until the estimate fits 100 * rel_tol.  If a
    doubling no longer halves the estimate (rounding, as on a sweep slow
    enough that ln P is below what double precision resolves), a
    ConvergenceError carries the finer run's value, not extrapolated, and
    the larger of the estimate and |fine - coarse|: off the asymptotic
    regime, the extrapolation is no value.  Scales that double precision
    cannot hold, where the span overflows, a rescaled input underflows, or
    placing the steps or forming the edge states overflows, divides by zero
    or turns invalid, raise DomainError before any stepping.
    """
    _positive_finite("rel_tol", rel_tol)
    _check_tanh_coupling(profile, eps)
    bound = 100.0 * rel_tol
    # All but the stepping comes first, so a scale that double precision
    # cannot hold ends the row before any propagation.
    with _in_double_precision():
        profile, epsilon, hbar, t1 = _in_sweep_units(
            profile, eps.epsilon, consts.hbar, default_t_span(profile, eps, consts)[1])
        t0 = -t1
        table, side = (_phase_table(profile, epsilon, hbar, a, b)
                       for a, b in ((t0, t1), (t1, 2.0 * t1)))
        states = [_edge_states(profile, epsilon, hbar, t)
                  for t in (t0, t1, 2.0 * t0, 2.0 * t1)]
        steps = _steps(table, rel_tol)
    steps += steps % 2  # the runs multiply only their right halves
    edges, wide_edges = states[:2], states[2:]

    coarse_u = _mirrored_propagator(profile, epsilon, hbar, table, steps)
    coarse = _log_flip(edges, coarse_u)
    wide_coarse = None  # the doubled span at the coarse run's density
    last = math.inf
    while True:
        fine_u = _mirrored_propagator(profile, epsilon, hbar, table, 2 * steps)
        fine = _log_flip(edges, fine_u)
        value, err = _richardson(fine, coarse)
        wide_fine = None
        if err <= bound:
            if wide_coarse is None:
                wide_coarse = _wide_flip(profile, epsilon, hbar, side, wide_edges,
                                         steps / table[1][-1], coarse_u)
            wide_fine = _wide_flip(profile, epsilon, hbar, side, wide_edges,
                                   2 * steps / table[1][-1], fine_u)
            err += abs(_richardson(wide_fine, wide_coarse)[0] - value)
            if err <= bound:
                return ReflectionResult.from_log(
                    eps.epsilon * eps.epsilon, value, Method.TDSE, err)
        # Refine while each level at least halves the estimate: a stall
        # means rounding (or the span) now sets the error.
        if err > 0.5 * last or 4 * steps > _MAX_STEPS:
            d_step = abs(fine - coarse)
            err = max(err, d_step)
            raise ConvergenceError(
                f"TDSE error estimate {err:.3e} exceeds 100 * rel_tol "
                f"(step halving moves ln P by {d_step:.1e})",
                best=fine, err_estimate=err,
            )
        last, steps, coarse_u, coarse, wide_coarse = err, 2 * steps, fine_u, fine, wide_fine
