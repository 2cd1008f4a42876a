"""Exact reflection references for validating the semiclassical routes.

Two oracles:  the known closed form for the inverse oscillator, and a
direct integration of the stationary Schroedinger equation for the
flat-tailed families with a fixed-step Numerov recurrence (fourth-order
accurate).  The wave is launched as a pure outgoing plane wave at the
right edge and decomposed into incident and reflected plane waves at the
left edge; regimes are chosen so |R|^2 stays well above the double
precision floor, and comparisons are made on ln of the probability.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .potentials import PhysicalConstants, PotentialKind, PotentialModel, v
from .wkb_reflection import Method, ReflectionResult

__all__ = [
    "ScatteringGrid",
    "default_grid",
    "exact_ho_reflection",
    "numerov_reflection",
]

_MAX_POINTS = 50_000_000


@dataclass(frozen=True)
class ScatteringGrid:
    """Uniform integration window [-x_max, x_max] with step dx.

    ``tail_tol`` is the relative flatness |V(x_max) + V0| / V0 required
    before plane-wave asymptotics are trusted at the window edges.
    """

    x_max: float
    dx: float
    tail_tol: float = 1e-6

    def __post_init__(self):
        if not (self.x_max > 0.0 and math.isfinite(self.x_max)):
            raise DomainError("x_max must be positive and finite")
        if not (0.0 < self.dx < self.x_max):
            raise DomainError("dx must satisfy 0 < dx < x_max")
        if not (0.0 < self.tail_tol < 1.0):
            raise DomainError("tail_tol must lie in (0, 1)")
        if self.n_points > _MAX_POINTS:
            raise DomainError(f"grid of {self.n_points} points is too large")

    @property
    def n_points(self) -> int:
        return int(math.ceil(2.0 * self.x_max / self.dx)) + 1


def default_grid(
    model: PotentialModel,
    E: float,
    consts: PhysicalConstants,
    tail_tol: float = 1e-6,
    k_dx: float = 0.05,
) -> ScatteringGrid:
    """Grid sized for the model: window doubled from 12a until the tail is
    flat to ``tail_tol``, step set so k * dx <= ``k_dx``."""
    if model.kind is PotentialKind.INVERSE_HO:
        raise DomainError("inverse_ho has no flat tail; use exact_ho_reflection")
    if not E > 0.0:
        raise DomainError("E must be positive")
    v0 = model.v0
    x_max = 12.0 * model.a
    while abs(v(model, x_max) + v0) > tail_tol * v0:
        x_max *= 2.0
        if x_max > 1e9 * model.a:
            raise ConvergenceError("potential tail never flattens to tail_tol")
    k = math.sqrt(2.0 * consts.mass * (E + v0)) / consts.hbar
    n = int(math.ceil(2.0 * x_max * k / k_dx)) + 1
    dx = 2.0 * x_max / (n - 1)
    return ScatteringGrid(x_max=x_max, dx=dx, tail_tol=tail_tol)


def exact_ho_reflection(
    E: float, consts: PhysicalConstants, alpha: float
) -> ReflectionResult:
    """Exact inverse-oscillator reflection probability.

    |R|^2 = e^{-s} / (1 + e^{-s}) with s = 2 pi E / (hbar omega) and
    omega = sqrt(alpha/m).  Valid for any real E; for E > 0 it is strictly
    below the semiclassical estimate e^{-s} and agrees with it to leading
    exponential order.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError("alpha must be positive and finite")
    omega = math.sqrt(alpha / consts.mass)
    s = 2.0 * math.pi * E / (consts.hbar * omega)
    if s >= 0.0:
        log_prob = -(s + math.log1p(math.exp(-s)))
    else:
        log_prob = -math.log1p(math.exp(s))
    return ReflectionResult.from_log(E, log_prob, Method.EXACT_HO)


def numerov_reflection(
    model: PotentialModel,
    E: float,
    consts: PhysicalConstants,
    grid: ScatteringGrid | None = None,
) -> ReflectionResult:
    """Reflection probability from direct solution of the scattering problem.

    Integrates psi'' = (2m/hbar^2)(V - E) psi from +x_max (outgoing wave
    e^{ikx}, k the asymptotic wavenumber) down to -x_max with the Numerov
    three-term recurrence, run as one ordered product of its 2x2 transfer
    matrices, then solves the two leftmost grid values for the plane-wave
    amplitudes A e^{ikx} + B e^{-ikx}.  Returns |B/A|^2; the
    ``err_estimate`` records the unitarity defect |R + T - 1| of the run.
    """
    if model.kind is PotentialKind.INVERSE_HO:
        raise DomainError("inverse_ho has no flat tail; use exact_ho_reflection")
    if not E > 0.0:
        raise DomainError("E must be positive")
    if grid is None:
        grid = default_grid(model, E, consts)
    v0 = model.v0
    if abs(v(model, grid.x_max) + v0) > grid.tail_tol * v0:
        raise DomainError("potential is not flat to tail_tol at x_max")
    k = math.sqrt(2.0 * consts.mass * (E + v0)) / consts.hbar
    if k * grid.dx > 0.1:
        raise DomainError(f"k*dx = {k * grid.dx:.3f} > 0.1 under-resolves the wave")

    n = grid.n_points
    x = np.linspace(-grid.x_max, grid.x_max, n)
    dx = x[1] - x[0]
    x_launch, x_edge = x[-2], x[-1]
    # f = 1 + (dx^2/12) (2m/hbar^2) (E - V), built in place: at 1M+ points
    # the grid-sized temporaries are most of the memory this oracle needs.
    f = v(model, x)
    del x
    np.subtract(E, f, out=f)
    f *= 2.0 * consts.mass / consts.hbar**2
    f *= dx * dx / 12.0
    f += 1.0

    # Numerov step psi_{i-1} = ((12 - 10 f_i) psi_i - f_{i+1} psi_{i+1}) / f_{i-1}
    # as M_i = [[a_i, b_i], [1, 0]] acting on (psi_i, psi_{i+1}); the ordered
    # product M_1 ... M_{n-2} carries the launch pair at the right edge to
    # (psi_0, psi_1).
    b = 1.0 / f[:-2]
    a = f[1:-1] * -10.0
    a += 12.0
    a *= b
    b *= f[2:]
    np.negative(b, out=b)
    del f
    p00, p01, p10, p11 = map(float, _companion_product(a, b))
    psi_mid = cmath.exp(1j * k * x_launch)
    psi_hi = cmath.exp(1j * k * x_edge)
    psi0 = p00 * psi_mid + p01 * psi_hi
    psi1 = p10 * psi_mid + p11 * psi_hi

    r = cmath.exp(1j * k * dx)
    denom = r - 1.0 / r
    a_inc = (psi1 - psi0 / r) / denom
    b_ref = (psi0 * r - psi1) / denom
    inc_flux = abs(a_inc) ** 2
    refl = abs(b_ref) ** 2 / inc_flux
    trans = 1.0 / inc_flux
    unitarity_defect = abs(refl + trans - 1.0)

    refl = min(max(refl, _tiny_prob()), 1.0)
    return ReflectionResult.from_log(
        E, math.log(refl), Method.NUMEROV_ORACLE, unitarity_defect
    )


_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _companion_product(a: np.ndarray, b: np.ndarray):
    """Ordered product of the matrices [[a_i, b_i], [1, 0]], leftmost first.

    The first pairing level exploits the [1, 0] bottom rows; the rest is
    ``_ordered_product``.  Returns the four entries (p00, p01, p10, p11).
    """
    tail = _IDENTITY
    if a.size % 2:
        tail = (a[-1], b[-1], 1.0, 0.0)
        a, b = a[:-1], b[:-1]
    if a.size == 0:
        return tail
    a1, b1, a2, b2 = a[0::2], b[0::2], a[1::2], b[1::2]
    return _ordered_product(a1 * a2 + b1, a1 * b2, a2, b2, tail)


def _ordered_product(a, b, c, d, tail=_IDENTITY):
    """Ordered product M_0 M_1 ... M_{m-1} of 2x2 matrices [[a, b], [c, d]].

    The stack is held as four component arrays (real or complex) and
    halved level by level, pairing [0::2] with [1::2] so the order of the
    factors is kept.  An odd leftover is always the rightmost factor of its
    level; it is folded into ``tail``, the product of everything right of
    the current stack.  Returns the four entries of the product times
    ``tail``.
    """
    while a.size > 1:
        if a.size % 2:
            tail = _mul2((a[-1], b[-1], c[-1], d[-1]), tail)
            a, b, c, d = a[:-1], b[:-1], c[:-1], d[:-1]
        a, b, c, d = _mul2(
            (a[0::2], b[0::2], c[0::2], d[0::2]), (a[1::2], b[1::2], c[1::2], d[1::2])
        )
    return _mul2((a[0], b[0], c[0], d[0]), tail)


def _mul2(left, right):
    """2x2 product left @ right on entry tuples (a, b, c, d), entrywise over
    arrays."""
    a1, b1, c1, d1 = left
    a2, b2, c2, d2 = right
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def _tiny_prob() -> float:
    return np.finfo(float).tiny
