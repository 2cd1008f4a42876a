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
geometrically.  Levels double the node count, up to ``MAX_NODES``, until
two successive levels agree to the requested relative tolerance.  A
sequence of energies runs as one ladder with one row per energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, SemirefError
from .potentials import (
    PhysicalConstants,
    PotentialKind,
    PotentialModel,
    im_v_inverse,
    v_on_imaginary_axis,
)
from .specfun import elliptic_b

__all__ = [
    "Method",
    "ReflectionResult",
    "Rows",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "MAX_NODES",
    "forbidden_zone_integral",
    "gauss_refined",
    "reflection_momentum_space",
    "reflection_closed_form",
    "reflection_contour_ll",
    "low_energy_effective_omega",
]

# Floor for relative-convergence denominators, far below any physical scale.
_TINY = 1e-300
_SQRT_MAX = math.sqrt(np.finfo(float).max)
# -ln of the smallest subnormal: a log_prob below -_LOG_FLOOR underflows.
_LOG_FLOOR = -math.log(np.finfo(float).smallest_subnormal)


class Method(str, Enum):
    """Tags identifying how a reflection probability was obtained."""

    MOMENTUM_QUADRATURE = "momentum"
    CLOSED_FORM = "closed"
    CONTOUR_LL = "contour"
    EXACT = "exact"
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
        """The row (log_prob, err_estimate) at ``energy``, judged by
        ``Rows.from_outcomes``; raises the DomainError that flags it."""
        return _single(Rows.from_outcomes([energy], Method(method),
                                          [(log_prob, err_estimate)]))


@dataclass(eq=False, slots=True)
class Rows:
    """The rows of one route call over a sequence of energies, as columns.

    ``rows[i]``, iteration and ``len`` give each energy's ReflectionResult,
    or the SemirefError in ``flagged`` that flags it; a slice gives a list
    of them.  A Rows is not a list: ``==`` compares identity.  A flagged
    row's columns hold its best value and estimate on a ConvergenceError
    that carries them, with ``prob`` exp(best) (nan where that underflows),
    and nan otherwise.
    """

    energy: list
    method: Method
    log_prob: list
    prob: list
    err_estimate: list
    flagged: dict  # row index -> SemirefError

    @classmethod
    def from_outcomes(cls, energy, method: Method, outcomes) -> "Rows":
        """The rows of ``outcomes``, one per energy, each a (log_prob,
        err_estimate) pair or the SemirefError that flags the row.  This is
        where every row is judged, ``ReflectionResult.from_log``'s one
        included: a probability that underflows, a log_prob above 0 or nan,
        or an estimate below 0 or nan flags the row with a DomainError,
        whose columns are nan.  A ConvergenceError whose best is -inf is
        judged as that value: an exponent that overflows leaves every level
        at inf and their differences nan, and its probability underflows."""
        log_prob, prob, err, flagged = [], [], [], {}
        for i, r in enumerate(outcomes):
            if isinstance(r, ConvergenceError) and r.best == -math.inf:
                r = (r.best, r.err_estimate)
            if not isinstance(r, SemirefError):
                lp, e = r
                p = math.exp(lp) if lp <= 0.0 else 1.0
                if p > 0.0 and lp <= 0.0 and e >= 0.0:
                    log_prob.append(lp)
                    prob.append(p)
                    err.append(e)
                    continue
                if p == 0.0:
                    r = DomainError(
                        f"probability underflows double precision (log_prob={lp:.6g})")
                elif not lp <= 0.0:
                    r = DomainError(f"log_prob must be <= 0, got {float(lp)!r}")
                else:
                    r = DomainError("err_estimate must be non-negative")
            flagged[i] = r
            lp = p = e = math.nan
            if isinstance(r, ConvergenceError) and r.best is not None:
                lp = r.best
                # A not-converged row's best may lie above 0; nan where exp underflows.
                p = math.exp(min(lp, 0.0)) or math.nan
                if r.err_estimate is not None:
                    e = r.err_estimate
            log_prob.append(lp)
            prob.append(p)
            err.append(e)
        return cls(list(energy), method, log_prob, prob, err, flagged)

    def __len__(self) -> int:
        return len(self.log_prob)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]
        if i in self.flagged:
            return self.flagged[i]
        return ReflectionResult(
            energy=float(self.energy[i]),
            log_prob=float(self.log_prob[i]),
            prob=self.prob[i],
            method=self.method,
            err_estimate=float(self.err_estimate[i]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _single(rows: Rows) -> ReflectionResult:
    """The one row of a scalar call: its ReflectionResult, or raise the
    SemirefError that flags it."""
    if rows.flagged:
        raise rows.flagged[0]
    return rows[0]


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre refinement schedule.

    ``nodes`` is the base node count; each refinement level doubles it, up
    to ``MAX_NODES``: the ladder stops at the last level within that cap.
    A single level cannot certify convergence and always fails, which the
    validation suite uses as a designed failure mode.
    """

    nodes: int = 32
    refinement_levels: int = 3
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.nodes >= 8:
            raise DomainError("nodes must be >= 8")
        if not self.nodes <= MAX_NODES:
            raise DomainError(f"nodes must be <= {MAX_NODES}")
        if not self.refinement_levels >= 1:
            raise DomainError("refinement_levels must be >= 1")
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")

    def node_counts(self) -> tuple[int, ...]:
        counts = (self.nodes << k for k in range(self.refinement_levels))
        return tuple(n for n in counts if n <= MAX_NODES)


# Largest rule the ladder builds.  ``leggauss(n)`` diagonalises an n x n
# matrix, O(n^3) time and O(n^2) memory: 4096 nodes took 4.6 s and a
# 290 MB peak on a 2-vCPU Xeon VM; 65536 would need a 34 GB matrix.
MAX_NODES = 4096
DEFAULT_QUADRATURE = QuadratureSpec()

# Integrand values one call of f may hold per level; larger batches of rows
# are evaluated in blocks, so memory does not grow with the row count.
_BLOCK_POINTS = 1 << 16


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
    rows: int = 1,
    select: Callable[[np.ndarray], None] | None = None,
) -> list:
    """Integrate f over [lo, hi] for each of ``rows`` rows, refining each
    row until two levels agree; return the rows' outcomes in order.

    f takes one array, the (k, n) abscissae of the k rows a level
    evaluates, and returns their integrand values in that shape; before
    each call of f, ``select`` gets the indices of the rows that call
    evaluates.  Each row stops at the first level where |v_n - v_{n-1}| <=
    rel_tol * |v_n| and its outcome is that level's value and difference,
    (value, err); a row still refining when the ladder ends becomes a
    ConvergenceError carrying its last value and difference.  Each row's
    sum is ``np.dot(w, row)``, so a row's result does not depend on the
    rows beside it.  f and the sums run without numpy's floating-point
    warnings: a value that overflows goes on as inf or nan.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    value = [math.nan] * rows  # each row's value at its last level
    err = [math.inf] * rows  # ... and its change from the level before
    live = list(range(rows))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level, n in enumerate(spec.node_counts()):
            x, w = _gauss_legendre(n)
            t = (mid + half * x)[None, :]
            step = max(1, _BLOCK_POINTS // n)
            refining = []
            for b in range(0, len(live), step):
                block = live[b : b + step]
                if select is not None:
                    select(np.array(block))
                for i, row in zip(block, f(np.repeat(t, len(block), axis=0))):
                    v = half * float(np.dot(w, row))
                    passed = False
                    if level:
                        err[i] = abs(v - value[i])
                        passed = err[i] <= spec.rel_tol * max(abs(v), _TINY)
                    value[i] = v
                    if not passed:
                        refining.append(i)
            live = refining
            if not live:
                break
    out: list = list(zip(value, err))
    for i in live:
        out[i] = ConvergenceError(
            f"quadrature did not reach rel_tol={spec.rel_tol:g} "
            f"with node counts {spec.node_counts()}",
            best=value[i],
            err_estimate=err[i],
        )
    return out


def forbidden_zone_integral(
    p0: np.ndarray,
    xi_scale: float,
    im_of_xi: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
) -> list:
    """integral_{-p0}^{p0} Im x(p) dp via the substitution p = p0 sin(theta),
    for each rim in the array ``p0``: one ``gauss_refined`` outcome per rim.

    ``im_of_xi`` maps the positive forbidden-zone argument
    xi(p) = xi_scale * (p0^2 - p^2) to Im of the inverse profile there, so
    Im x(p) is even in p and vanishes at |p| = p0.  The substitution turns
    the square-root rim behaviour into an analytic function of theta; xi is
    formed from cos(theta) directly so the rim never suffers cancellation.
    """
    col = rim = np.asarray(p0, dtype=float)[:, None]

    def select(live: np.ndarray) -> None:
        nonlocal rim
        rim = col[live]

    def f(theta: np.ndarray) -> np.ndarray:
        pc = rim * np.cos(theta)
        return pc * im_of_xi(xi_scale * pc**2)

    return gauss_refined(f, -0.5 * math.pi, 0.5 * math.pi, spec,
                         rows=len(col), select=select)


def _scaled(outcomes, scale: float) -> list:
    """``gauss_refined`` outcomes as log_prob outcomes: (value, err) gives
    (-scale*value, scale*err), and a ConvergenceError's best value and
    estimate are scaled alike."""
    return [
        ConvergenceError(str(r), best=-scale * r.best, err_estimate=scale * r.err_estimate)
        if isinstance(r, ConvergenceError) else (-scale * r[0], scale * r[1])
        for r in outcomes
    ]


def _outcomes(log_rows, energies: np.ndarray) -> list:
    """``log_rows(energies)``; if it raises, each energy runs alone, so an
    energy's outcome never depends on the energies beside it."""
    try:
        return log_rows(energies)
    except SemirefError as exc:
        if energies.size == 1:
            return [exc]
    return [_outcomes(log_rows, energies[i : i + 1])[0] for i in range(energies.size)]


def _reflections(E, method: Method, log_rows):
    """The routes' contract: ``E`` a scalar returns a ReflectionResult or
    raises; a sequence returns the Rows of its energies, in order, each a
    ReflectionResult or flagged with a SemirefError.

    ``log_rows`` maps an array of positive energies to their outcomes, each
    a (log_prob, err_estimate) pair or a SemirefError; all the energies of
    a call run in it together.
    """
    energies = np.atleast_1d(np.asarray(E, dtype=float))
    positive = (energies > 0.0).tolist()
    outcomes = [None if ok else DomainError("E must be positive for above-barrier reflection")
                for ok in positive]
    index = [i for i, ok in enumerate(positive) if ok]
    if index:
        for i, r in zip(index, _outcomes(log_rows, energies[index])):
            outcomes[i] = r
    rows = Rows.from_outcomes(energies.tolist(), method, outcomes)
    return rows if np.ndim(E) != 0 else _single(rows)


def reflection_momentum_space(
    model: PotentialModel,
    E,
    consts: PhysicalConstants,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
):
    """Reflection probability from the momentum-space tunneling integral.

    On ConvergenceError the exception's ``best`` attribute carries the
    non-converged log-probability estimate.  ``E`` may be a scalar, which
    returns a ReflectionResult or raises, or a sequence, which returns the
    Rows of its energies in order; the energies run as the rows of one
    quadrature ladder.
    """
    scale = 2.0 / consts.hbar

    def log_rows(energies):
        # 2mE past the float range saturates to inf, as in Python floats.
        with np.errstate(over="ignore"):
            p0 = np.sqrt(2.0 * consts.mass * energies)
        rows = forbidden_zone_integral(p0, 0.5 / consts.mass,
                                       lambda xi: im_v_inverse(model, xi), quad)
        return _scaled(rows, scale)

    return _reflections(E, Method.MOMENTUM_QUADRATURE, log_rows)


def _closed_form_log(model: PotentialModel, E: float, consts: PhysicalConstants) -> float:
    hbar, mass = consts.hbar, consts.mass
    if model.kind is PotentialKind.INVERSE_HO:
        omega = math.sqrt(model.alpha / mass)
        if hbar * omega == 0.0:
            # hbar omega underflows; E / omega = E sqrt(m) / sqrt(alpha) does not.
            return -2.0 * math.pi * E * math.sqrt(mass) / math.sqrt(model.alpha) / hbar
        return -2.0 * math.pi * E / (hbar * omega)
    if model.kind is PotentialKind.SECH2:
        # sqrt(E+V0) - sqrt(V0) written without cancellation at small E.
        diff = E / (math.sqrt(E + model.v0) + math.sqrt(model.v0))
        return -(2.0 * math.pi * model.a / hbar) * math.sqrt(2.0 * mass) * diff
    # sqrt(2mE m_ell) with m_ell = E/(E+V0), written so that m E cannot
    # underflow.
    prefactor = math.sqrt(2.0 * mass) * (E / math.sqrt(E + model.v0))
    return -(4.0 * model.a / hbar) * prefactor * elliptic_b(E / (E + model.v0))


def reflection_closed_form(model: PotentialModel, E, consts: PhysicalConstants):
    """Closed-form reflection exponent for each barrier family.

    inverse_ho : ln|R|^2 = -2 pi E / (hbar omega),  omega = sqrt(alpha/m)
    sech2      : ln|R|^2 = -(2 pi a/hbar) sqrt(2m) (sqrt(E+V0) - sqrt(V0))
    lorentzian : ln|R|^2 = -(4a/hbar) sqrt(2mE/(1+g)) *
                           ((1+g) E(1/(1+g)) - g K(1/(1+g))),  g = V0/E

    The elliptic integrals take the parameter (modulus squared); this
    convention is pinned by agreement with the momentum-space quadrature.
    The Lorentzian bracket is B(m) = (E(m) - (1-m) K(m)) / m at
    m = 1/(1+g) = E/(E+V0), evaluated as ``elliptic_b``: the two terms of
    the bracket are each about g pi/2 while their difference is about pi/4.
    ``E`` may be a scalar, which returns a ReflectionResult or raises, or a
    sequence, which returns the Rows of its energies in order.
    """
    return _reflections(E, Method.CLOSED_FORM, lambda energies: [
        (_closed_form_log(model, e, consts), 0.0) for e in energies.tolist()])


def reflection_contour_ll(
    model: PotentialModel,
    E,
    consts: PhysicalConstants,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
):
    """Reflection probability from the coordinate-space contour integral.

    Takes the imaginary turning point y0 with V(i y0) = E in closed form,
    y0 = Im V^{-1}(E) (``im_v_inverse`` at xi = E), then evaluates
    -(4/hbar) * integral_0^{y0} dy sqrt(2m(E - V(iy))) with y = y0 sin^2(phi)
    absorbing the square-root endpoint behaviour.  ``E`` may be a scalar,
    which returns a ReflectionResult or raises, or a sequence, which returns
    the Rows of its energies in order; the energies run as the rows of one
    quadrature ladder.
    """
    two_m = 2.0 * consts.mass
    scale = 4.0 / consts.hbar

    def log_rows(energies):
        y0_all = y0 = im_v_inverse(model, energies)[:, None]
        if not np.isfinite(y0_all).all():
            if energies.size > 1:  # ``_outcomes`` runs each energy alone
                raise DomainError("a turning point overflows")
            # V(iy) is convex on [0, y0], so the integral is at least
            # (2/3) y0 sqrt(2mE), with y0 past sqrt(max float).
            if scale * _SQRT_MAX * math.sqrt(two_m * float(energies[0])) * (2.0 / 3.0) > _LOG_FLOOR:
                return [(-math.inf, math.inf)]  # judged as the underflow
            raise DomainError("the turning point y0 = Im V^-1(E) overflows double precision")
        e_all = e = energies[:, None]

        def select(rows: np.ndarray) -> None:
            nonlocal y0, e
            y0, e = y0_all[rows], e_all[rows]

        def f(phi: np.ndarray) -> np.ndarray:
            s = np.sin(phi)
            c = np.cos(phi)
            y = y0 * s * s
            # Near y0, rounding can put V(iy) a few ulps above E; clip to zero.
            ksq = np.maximum(two_m * (e - v_on_imaginary_axis(model, y)), 0.0)
            return 2.0 * y0 * s * c * np.sqrt(ksq)

        rows = gauss_refined(f, 0.0, 0.5 * math.pi, quad,
                             rows=energies.size, select=select)
        return _scaled(rows, scale)

    return _reflections(E, Method.CONTOUR_LL, log_rows)


def low_energy_effective_omega(
    model: PotentialModel, consts: PhysicalConstants
) -> float:
    """Oscillator frequency set by the barrier-top curvature.

    omega_eff = sqrt(-V''(0)/m); both flat-tailed families give
    sqrt(2 V0 / (m a^2)), so their low-energy reflection is universal.
    """
    return math.sqrt(model.curvature_top / consts.mass)
