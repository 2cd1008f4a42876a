"""Exact reflection references for validating the semiclassical routes.

Two oracles:  the known closed form for the inverse oscillator, and a
direct integration of the stationary Schroedinger equation for the
flat-tailed families with a fixed-step Numerov recurrence (fourth-order
accurate).  The wave is launched as a pure outgoing discrete plane wave at
the right edge and decomposed into incident and reflected discrete plane
waves at the left edge.  The value is Richardson-extrapolated with a run
at twice the step, the error estimate comes from that run and a wider
window, and comparisons are made on ln of the probability.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, SemirefError
from .potentials import PhysicalConstants, PotentialKind, PotentialModel, v
from .wkb_reflection import Method, ReflectionResult, _reflections

__all__ = [
    "ScatteringGrid",
    "default_grid",
    "exact_ho_reflection",
    "numerov_reflection",
]

_MAX_POINTS = 50_000_000
# k * dx of the default grid.  _solve rejects a grid past twice this: the
# extrapolated value keeps the sech^2 rows of oracle-check's ranges within
# 3e-11 of the exact formula at 0.1.
_K_DX = 0.1
# Starting half-window per family, in units of a.  The sech^2 tail is flat
# to ~1e-10 at 12a; the Lorentzian's 1/x^2 tail leaves a window term of
# at most ~1e-6 in ln R at 192a over v0 5-20, a 1-3, E 0.5-2, hbar 0.5-1.
_WINDOW = {PotentialKind.SECH2: 12.0, PotentialKind.LORENTZIAN: 192.0}
_WINDOW_TOL = 2.5e-7  # the window doubles until doubling moves ln R less
_MAX_DOUBLINGS = 4
_ERR_BOUND = 1e-6  # err_estimate above which a result is flagged
_EPS = float(np.finfo(float).eps)
_GROUP_RATIO = 2.0  # energies share a grid while k_max <= 2 k_min
_CHUNK = 2**16  # transfer matrices per product call, to bound memory
_SEG = 512  # transfer matrices per segment, the length of a product column
_IDENTITY = (1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ScatteringGrid:
    """Uniform window [-x_max, x_max] cut into 4 * ``quarter`` equal steps
    of ``step`` <= dx.

    The fine run steps by ``step`` across the window; the coarse run takes
    every other of its points and goes on at 2 * step out to 2 * x_max, so
    both runs have 4 * ``quarter`` transfer matrices.
    """

    x_max: float
    dx: float

    def __post_init__(self):
        if not (self.x_max > 0.0 and math.isfinite(self.x_max)):
            raise DomainError("x_max must be positive and finite")
        if not (0.0 < self.dx < self.x_max):
            raise DomainError("dx must satisfy 0 < dx < x_max")
        # x_max / dx may overflow; n_points would then take ceil(inf).
        if not 2.0 * self.x_max / self.dx < _MAX_POINTS or self.n_points > _MAX_POINTS:
            raise DomainError(f"grid of {2.0 * self.x_max / self.dx:.3g} points is too large")

    @property
    def segment(self) -> int:
        """Steps per product segment: x_max / (2 dx) split evenly into
        pieces of at most ``_SEG``."""
        q = math.ceil(0.5 * self.x_max / self.dx)
        return math.ceil(q / math.ceil(q / _SEG))

    @property
    def quarter(self) -> int:
        """Steps per quarter of the window: x_max / (2 dx) rounded up to a
        whole number of segments."""
        seg = self.segment
        return seg * math.ceil(0.5 * self.x_max / self.dx / seg)

    @property
    def step(self) -> float:
        return 0.5 * self.x_max / self.quarter

    @property
    def n_points(self) -> int:
        return 4 * self.quarter + 1


def _check_flat_tailed(model: PotentialModel) -> None:
    if model.kind is PotentialKind.INVERSE_HO:
        raise DomainError("inverse_ho has no flat tail; use exact_ho_reflection")


def _wavenumber(model: PotentialModel, E: float, consts: PhysicalConstants) -> float:
    return math.sqrt(2.0 * consts.mass * (E + model.v0)) / consts.hbar


def default_grid(
    model: PotentialModel,
    E: float,
    consts: PhysicalConstants,
) -> ScatteringGrid:
    """The family's starting window (12a for sech^2, 192a for the
    Lorentzian), step set so k * dx <= 0.1."""
    _check_flat_tailed(model)
    if not E > 0.0:
        raise DomainError("E must be positive")
    k = _wavenumber(model, E, consts)
    if not k > 0.0:
        raise DomainError("the wavenumber k underflows to 0")
    return ScatteringGrid(x_max=_WINDOW[model.kind] * model.a, dx=_K_DX / k)


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
    if consts.hbar * omega == 0.0:
        # hbar omega underflows; E / omega = E sqrt(m) / sqrt(alpha) does not.
        s = 2.0 * math.pi * E * math.sqrt(consts.mass) / math.sqrt(alpha) / consts.hbar
    else:
        s = 2.0 * math.pi * E / (consts.hbar * omega)
    if s >= 0.0:
        log_prob = -(s + math.log1p(math.exp(-s)))
    else:
        log_prob = -math.log1p(math.exp(s))
    return ReflectionResult.from_log(E, log_prob, Method.EXACT_HO)


def numerov_reflection(
    model: PotentialModel,
    E,
    consts: PhysicalConstants,
    grid: ScatteringGrid | None = None,
):
    """Reflection probability from direct solution of the scattering problem.

    Integrates psi'' = (2m/hbar^2)(V - E) psi from the right edge of the
    window (an outgoing discrete plane wave) to the left edge with the
    Numerov three-term recurrence, run as an ordered product of its 2x2
    transfer matrices, and splits the two leftmost grid values into
    incident and reflected discrete plane waves.  Each edge takes the
    wavenumber q that the recurrence carries at its edge point,
    cos(q dx) = (12 - 10 f) / (2 f), so a flat tail reflects nothing.
    V is even, so every run's window is symmetric about x = 0: only the
    left half of each product is multiplied, and the right half is its
    mirror image, formed exactly from it (``_Chains.mirrored``).

    The scheme is fourth order, so a fine run at k dx <= 0.1 and a coarse
    one at twice the step give the value fine + (fine - coarse)/15
    (Richardson extrapolation), plus the change the coarse run sees when its
    window doubles.  ``err_estimate`` is the step term |fine - coarse|/15,
    the fine run's own error, plus that window change, plus a rounding
    term: a product of n steps moves the amplitudes by up to
    rho = eps sqrt(n) |A|, which moves ln R by up to -2 ln(1 - rho/|B|)
    (infinite once rho >= |B|).  While the window term exceeds 2.5e-7 both
    windows double (up to 16x), each around its own product.

    A result whose estimate exceeds 1e-6 raises ConvergenceError with the
    value and the estimate, unless R lies below the rounding floor R_f,
    where rounding alone puts 1e-6 on ln R (sqrt(R_f) = 2e6 rho / |A|): there
    the bound holds for the error on R itself, R (e^err - 1) <= 1e-6 R_f.
    Such a row is returned with its estimate on ln R, above 1e-6 and below
    1: an estimate of 1 or more is flagged too, since the runs are then too
    far from their asymptotic regime for it to hold.

    ``E`` may be a scalar, which returns a ReflectionResult or raises, or a
    sequence, which returns the Rows of its energies, each a
    ReflectionResult or flagged with a SemirefError.  The energies are run
    together, one stacked product per shared grid; energies share a grid
    while none steps more than 2x finer than its own k needs.  ``grid``
    fixes one grid for all of them.
    A shared grid steps as finely as its largest k needs, so a row's value
    depends, within its estimate, on the other energies of the call.
    """
    _check_flat_tailed(model)
    return _reflections(E, Method.NUMEROV_ORACLE, lambda energies: [
        _result(run) for run in _solve_all(model, energies, consts, grid)])


def _unitarity_defect(
    model: PotentialModel, E: float, consts: PhysicalConstants
) -> float:
    """max |R + T - 1| over the runs ``numerov_reflection`` makes at E.

    The recurrence conserves the flux Im(conj(y_i) y_{i+1}), y = f psi,
    exactly, so the defect measures the rounding of the transfer-matrix
    product, not the discretisation or window error.
    """
    _check_flat_tailed(model)
    (res,) = _solve_all(model, np.array([E], dtype=float), consts, None)
    if isinstance(res, SemirefError):
        raise res
    return res[3]


def _result(run):
    """(ln R, err_estimate) of a run of ``_solve_all``, or the SemirefError
    that flags it."""
    if isinstance(run, SemirefError):
        return run
    log_r, d_step, d_window, _, n_steps = run
    # Over 720 seeded sech^2 rows with E up to 30, the returned rows below
    # ln R = -35 saw B move by at most 0.34 eps sqrt(n) |A| (median 0.03).
    rho = _EPS * math.sqrt(n_steps)  # relative to |A|
    x = rho * math.exp(-0.5 * log_r)  # rho / |B|
    d_round = -2.0 * math.log1p(-x) if x < 1.0 else math.inf
    err = d_step + d_window + d_round
    # Below r_floor rounding alone puts more than the bound on ln R, so the
    # bound is kept by the error on R itself.  An estimate of 1 or more
    # no longer holds: the 2*dx difference is not asymptotic there.
    r_floor = (2.0 * rho / _ERR_BOUND) ** 2
    r_err = math.exp(log_r) * math.expm1(min(err, 700.0))
    if err >= 1.0 or not (err <= _ERR_BOUND or r_err <= _ERR_BOUND * r_floor):
        why = "is 1 or more" if err >= 1.0 else f"exceeds {_ERR_BOUND:g}"
        return ConvergenceError(
            f"Numerov error estimate {err:.2e} {why} (step term {d_step:.1e}, "
            f"window doubling {d_window:.1e}, rounding {d_round:.1e})",
            best=log_r, err_estimate=err,
        )
    return log_r, err


def _solve_all(model, energies, consts, grid) -> list:
    """Per energy, (extrapolated ln R, step term, window term, unitarity
    defect, steps in the fine and the wide run) or the SemirefError that
    stopped it."""
    out: list = [None] * energies.size
    own = []
    for i, E in enumerate(energies.tolist()):
        try:
            own.append((default_grid(model, E, consts), i))
        except DomainError as exc:
            out[i] = exc
    if grid is not None:
        groups = [(grid, [i for _, i in own])] if own else []
    else:
        # Coarsest first; a group takes the grid of its finest member.
        own.sort(key=lambda gi: -gi[0].dx)
        groups, first_dx = [], math.inf
        for g, i in own:
            if g.dx * _GROUP_RATIO < first_dx:
                groups.append([g, []])
                first_dx = g.dx
            groups[-1][0] = g
            groups[-1][1].append(i)
    for g, idx in groups:
        try:
            runs = _solve(model, energies[idx], consts, g)
        except SemirefError as exc:
            runs = [exc] * len(idx)
        for i, run in zip(idx, runs):
            out[i] = run
    return out


def _solve(model, energies, consts, grid) -> list:
    """The runs of ``energies`` on ``grid``: a fine run on [-X, X], a coarse
    one at twice the step on [-X, X] and on [-2X, 2X], and window doublings
    while the window term exceeds ``_WINDOW_TOL``, each combined by
    ``_extrapolated``.  A grid with k dx > 0.2 is rejected."""
    L, h, X = grid.quarter, grid.step, grid.x_max
    k_max = _wavenumber(model, float(energies.max()), consts)
    if k_max * h > 2.0 * _K_DX:
        raise DomainError(f"k*dx = {k_max * h:.3f} > {2.0 * _K_DX:g} under-resolves the wave")
    if X < _WINDOW[model.kind] * model.a * (1.0 - 1e-12):
        raise DomainError(
            f"window x_max = {X:g} is shorter than {_WINDOW[model.kind]:g} a"
        )
    r = h / consts.hbar  # c = (2m/hbar^2) h^2 / 12, formed without overflow
    c = 2.0 * consts.mass * r * r / 12.0
    if not 0.0 < c < math.inf:
        raise DomainError(f"the Numerov scale (2m/hbar^2) dx^2/12 = {c:g} is out of range")

    # Each run is built from its left half.  Chain 0, the fine run's:
    # matrices at -X + h .. 0.  Chain 1, the coarse run's on [-2X, 0]; its
    # right half steps over the fine run's even points, whose V it reuses.
    fine_v = v(model, -X + h * np.arange(2 * L + 1))
    coarse_v = np.concatenate([v(model, -2.0 * X + 2.0 * h * np.arange(L)), fine_v[::2]])
    # V of a scale past double precision (x^2 + a^2 underflowing to 0) is
    # NaN at the chains' ends too: their m stand for the whole grid.
    if not all(np.isfinite(_numerov_m(energies, v_k[[0, -1], None], c_k)).all()
               for v_k, c_k in ((fine_v, c), (coarse_v, 4.0 * c))):
        raise DomainError("the Numerov coefficients are not finite")
    chains = _Chains(energies, [(fine_v, c), (coarse_v, 4.0 * c)], grid)
    fine = chains.mirrored(0, 0)
    narrow = chains.mirrored(1, 1)
    wide = chains.mirrored(1, 0)
    log_r, d_step, d_window = _extrapolated(fine, narrow, wide)
    defect = np.maximum(np.maximum(fine.defect, narrow.defect), wide.defect)
    n_steps = np.full(energies.size, 8 * L)

    # Double the window of the fine and the coarse run alike, each around
    # its own product, while the window term exceeds its tolerance and
    # halves at each doubling.
    todo = np.flatnonzero(d_window > _WINDOW_TOL)
    fine, wide = fine.take(todo), wide.take(todo)
    half = X  # the fine run's half-window
    for _ in range(_MAX_DOUBLINGS):
        if todo.size == 0 or 4.0 * half / h > _MAX_POINTS:
            break
        j = np.arange(round(half / h) + 1)
        ring = _Chains(energies[todo], [
            (v(model, -2.0 * half + h * j), c),
            (v(model, -4.0 * half + 2.0 * h * j), 4.0 * c),
        ], grid)
        fine, narrow, wide = ring.mirrored(0, 0, fine.p), wide, ring.mirrored(1, 0, wide.p)
        last = d_window[todo]
        log_r[todo], d_step[todo], d_window[todo] = _extrapolated(fine, narrow, wide)
        defect[todo] = np.maximum(defect[todo], np.maximum(fine.defect, wide.defect))
        n_steps[todo] += 4 * (j.size - 1)
        keep = (d_window[todo] > _WINDOW_TOL) & (d_window[todo] <= 0.5 * last)
        todo, fine, wide = todo[keep], fine.take(keep), wide.take(keep)
        half *= 2.0
    return list(zip(log_r.tolist(), d_step.tolist(), d_window.tolist(),
                    defect.tolist(), n_steps.tolist()))


def _extrapolated(fine, narrow, wide):
    """(ln R, step term, window term) from a fine run, a run at twice its
    step over the same window (narrow) and over twice the window (wide).

    The value is the fine run Richardson-extrapolated (``_richardson``),
    carried to the doubled window by the change the coarse run sees there.
    """
    value, step = _richardson(fine.log_r, narrow.log_r)
    window = wide.log_r - narrow.log_r
    return value + window, step, np.abs(window)


def _richardson(fine, coarse):
    """(value, step term) from a fourth-order scheme's run and one at
    twice its step, as floats or arrays: the fine run's error is about
    (fine - coarse) / 15, so the value is the fine run extrapolated by that
    amount, and the step term is that amount's magnitude."""
    step = (fine - coarse) / 15.0
    return fine + step, abs(step)


@dataclass
class _Run:
    """A run's product (p00, p01, p10, p11) and the m = -e of its left and
    right edge points, per energy, and the ln R and |R + T - 1| they give.

    The product maps the state (y_N, y_N - y_{N+1}) at the right edge to
    (y_0, y_0 - y_1) at the left.  Each edge takes the discrete wavenumber
    theta = q dx that the recurrence carries there, 2 - e = 2 cos(theta),
    i.e. sin^2(theta/2) = e/4, and y_j = A r^j + B r^-j with r = e^{i theta}.
    """

    p: tuple
    edges: tuple

    def __post_init__(self):
        p00, p01, p10, p11 = self.p
        m_l, m_r = self.edges
        sin_l, sin_r = np.sqrt(-m_l * (1.0 + 0.25 * m_l)), np.sqrt(-m_r * (1.0 + 0.25 * m_r))
        # Launch y_N = 1, y_{N+1} = e^{i theta_R}: y_N - y_{N+1} = e/2 - i sin.
        d_n = -0.5 * m_r - 1j * sin_r
        y0, d0 = p00 + p01 * d_n, p10 + p11 * d_n
        # (r - 1/r) A = y_1 - y_0/r = y_0 (1 - 1/r) - d_0, and
        # (r - 1/r) B = y_0 r - y_1 = d_0 - y_0 (1 - r).
        inc = np.abs(y0 * (-0.5 * m_l + 1j * sin_l) - d0) ** 2
        with np.errstate(divide="ignore"):
            log_r = np.log(np.abs(d0 - y0 * (-0.5 * m_l - 1j * sin_l)) ** 2) - np.log(inc)
        self.log_r = np.clip(log_r, math.log(np.finfo(float).tiny), 0.0)
        # The recurrence conserves the flux Im(conj(y_j) y_{j+1}): sin theta_R
        # at the right, (|A|^2 - |B|^2) sin theta_L at the left.
        trans = 4.0 * sin_l * sin_r / inc
        self.defect = np.abs(np.exp(log_r) + trans - 1.0)

    def take(self, idx) -> "_Run":
        return _Run(tuple(x[idx] for x in self.p), tuple(x[idx] for x in self.edges))


class _Chains:
    """Numerov transfer-matrix products along chains of grid points, for
    every energy at once.

    A chain is V at points x_0 .. x_n of one step, with the scale
    c = (2m/hbar^2) step^2 / 12; its matrices sit at x_1 .. x_n.  Each
    chain is cut into segments of ``grid.segment`` matrices, and the
    segments of all chains and energies are the equal-length columns of one
    product, taken along axis 0 in calls of at most ``_CHUNK`` matrices.
    """

    def __init__(self, energies, chains, grid: ScatteringGrid):
        seg = grid.segment
        self.energies, self.chains = energies, chains
        self.L, self.per_quarter = grid.quarter, grid.quarter // seg
        n_seg = (chains[0][0].size - 1) // seg
        per_c = min(n_seg, max(1, _CHUNK // seg))
        per_e = max(1, _CHUNK // (seg * n_seg))
        prod = np.empty((4, energies.size, len(chains), n_seg))
        for k, (v_k, c_k) in enumerate(chains):
            cols = v_k[1:].reshape(n_seg, seg).T  # column s: segment s
            for e0 in range(0, energies.size, per_e):
                e = energies[e0 : e0 + per_e, None]
                for c0 in range(0, n_seg, per_c):
                    m = _numerov_m(e, cols[:, None, c0 : c0 + per_c], c_k)
                    prod[:, e0 : e0 + per_e, k, c0 : c0 + per_c] = _companion_product(m)
        self.prod = prod

    def _edge(self, chain, point):
        """m at ``point`` of ``chain``, per energy."""
        v_k, c_k = self.chains[chain]
        return _numerov_m(self.energies, v_k[point], c_k)

    def mirrored(self, chain, lo, inner=_IDENTITY) -> _Run:
        """The run over ``chain`` from quarter ``lo`` to its end x_n, then
        ``inner``, then the steps at -x_{n-1} .. -x_0.

        With H the product of the stretch x_0 = x_{lo L} .. x_n, those
        mirrored steps multiply to M_n^-1 rev(H) M_0, so the run is
        H inner M_n^-1 rev(H) M_0 and both its edges take m at x_0.  With
        x_n = 0 and ``inner`` the identity this is the run over
        [x_0, -x_0]; with ``inner`` the product of the run over
        [x_n, -x_n] it is that run's window extended to [x_0, -x_0].
        """
        h = _ordered_product(*(self.prod[i, :, chain, lo * self.per_quarter :].T
                               for i in range(4)))
        m_0 = self._edge(chain, lo * self.L)
        m_n = self._edge(chain, -1)
        # M^-1 = [[1, -1], [-m, 1 + m]] for the step M = [[1 + m, 1], [m, 1]].
        right = _mul2(_mul2((1.0, -1.0, -m_n, 1.0 + m_n), _reversed(h)),
                      (1.0 + m_0, 1.0, m_0, 1.0))
        return _Run(_mul2(h, _mul2(inner, right)), (m_0, m_0))


def _numerov_m(E, V, c):
    """m = -e = -12 g / (1 + g) with g = c (E - V), elementwise.

    With y = f psi, f = 1 + g, the Numerov recurrence is y_{i-1} + y_{i+1}
    = (2 - e_i) y_i.  e is formed from g, not from f near 1, so the
    rounding of f does not enter, and the edges use the very values the
    product does.
    """
    t = np.subtract(V, E)  # -g / c
    den = t * (-1.0 / 12.0)
    den += 1.0 / (12.0 * c)  # (1 + g) / (12 c)
    t /= den
    return t


def _reversed(p):
    """The product of the steps of ``p`` = M_1 ... M_n in reverse order,
    M_n ... M_1, from ``p`` alone.

    With K = [[1, -1], [0, -1]], its own inverse, K M^-1 K = M for every
    step, so M_n ... M_1 = K p^-1 K = K adj(p) K = [[d + c, a + b - c - d],
    [c, a - c]] for p = [[a, b], [c, d]] of unit determinant.
    """
    a, b, c, d = p
    return (d + c, a + b - c - d, c, a - c)


def _companion_product(m: np.ndarray):
    """Ordered product along axis 0 of the Numerov steps
    M_i = [[1 + m_i, 1], [m_i, 1]] = [[1, 1], [1, 0]] [[m_i, 1], [1, 0]],
    each a pair of companion matrices.

    M_i maps (y_i, y_i - y_{i+1}) to (y_{i-1}, y_{i-1} - y_i).  In these
    differences the product's entries stay well scaled, where products of
    the plain companion steps [[2 - e_i, -1], [1, 0]] lose ~1/theta^2 to
    rounding.  The steps go to ``_ordered_product`` as they are, their unit
    entries as broadcast views; multiplying by an exact 1 rounds nothing.
    Returns the four entries (p00, p01, p10, p11).
    """
    one = np.broadcast_to(1.0, m.shape)
    return _ordered_product(m + 1.0, one, m, one)


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


def _mul2_into(left, right, out):
    """``_mul2`` written into ``out[:4]``, with ``out[4]`` as scratch: each
    entry is the same sum of two rounded products, bit for bit."""
    a1, b1, c1, d1 = left
    a2, b2, c2, d2 = right
    scratch = out[4]
    for entry, (x1, x2, y1, y2) in zip(out, ((a1, a2, b1, c2), (a1, b2, b1, d2),
                                             (c1, a2, d1, c2), (c1, b2, d1, d2))):
        np.multiply(x1, x2, out=entry)
        np.multiply(y1, y2, out=scratch)
        entry += scratch


def _pair_mul(left, right):
    """Product left @ right of SU(2) matrices [[a, b], [-conj(b), conj(a)]]
    held as pairs (a, b), entrywise over arrays."""
    a1, b1 = left
    a2, b2 = right
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _pair_mul_into(left, right, out):
    """``_pair_mul`` written into ``out[:2]``, with ``out[2]`` as scratch,
    bit for bit."""
    a1, b1 = left
    a2, b2 = right
    a, b, scratch = out
    np.multiply(a1, a2, out=a)
    np.multiply(b1, np.conj(b2, out=scratch), out=scratch)
    a -= scratch
    np.multiply(a1, b2, out=b)
    np.multiply(b1, np.conj(a2, out=scratch), out=scratch)
    b += scratch


class _Rule(NamedTuple):
    """How ``_ordered_product`` multiplies matrices held as
    ``len(identity)`` entry arrays: ``mul`` gives left @ right in fresh
    arrays, ``into`` writes the same, bit for bit, into ``out[:-1]`` with
    ``out[-1]`` as scratch."""

    identity: tuple
    mul: Callable
    into: Callable


_MATRIX = _Rule(_IDENTITY, _mul2, _mul2_into)  # general 2x2: (a, b, c, d)
_PAIR = _Rule((1.0, 0.0), _pair_mul, _pair_mul_into)  # SU(2): (a, b)


def _ordered_product(*entries, tail=None, rule=_MATRIX):
    """Ordered product M_0 M_1 ... M_{m-1} of 2x2 matrices along axis 0,
    so a stack of columns gives one product per column.

    The stack is held as ``rule``'s entry arrays (real or complex): the
    four entries [[a, b], [c, d]] of ``_MATRIX``, or the pair (a, b) of
    ``_PAIR``, which carries an SU(2) stack in half the arrays.  It is
    halved level by level, pairing [0::2] with [1::2] so the order of the
    factors is kept.  An odd leftover is always the rightmost factor of its
    level; it is folded into ``tail`` (default: the identity), the product
    of everything right of the current stack.  Returns the entries of the
    product times ``tail``, in fresh arrays.

    The levels are written into this thread's work array for the stack's
    dtype (``_work_array``), each as its k entries and a scratch row,
    alternately at the start and after the first level's k entries.
    """
    k = len(entries)
    tail = rule.identity if tail is None else tail
    rest = entries[0].shape[1:]
    row, half = math.prod(rest), len(entries[0]) // 2
    # Level 1 takes k + 1 half rows from the start, level 2 k + 1 (half // 2)
    # rows after the first k half; the later levels fit in the same places.
    work = _work_array(np.result_type(*entries),
                       row * max((k + 1) * half, k * half + (k + 1) * (half // 2)))
    at = 0
    while len(entries[0]) > 1:
        if len(entries[0]) % 2:
            tail = rule.mul([x[-1] for x in entries], tail)
            entries = [x[:-1] for x in entries]
        n = len(entries[0]) // 2
        level = work[at : at + (k + 1) * n * row].reshape(k + 1, n, *rest)
        rule.into([x[0::2] for x in entries], [x[1::2] for x in entries], level)
        entries = list(level[:k])
        at = k * half * row - at
    return rule.mul([x[0] for x in entries], tail)


_WORK = threading.local()


def _work_array(dtype, size: int, use: str = "product") -> np.ndarray:
    """This thread's work array for ``use`` and ``dtype``, grown to at
    least ``size``.

    It is kept between calls: the levels of a product are megabytes, and
    arrays freshly allocated for them on every call are mapped, trimmed off
    the heap and faulted in again each time.  Callers that fill arrays the
    product then reads take a ``use`` of their own.
    """
    arrays = getattr(_WORK, "arrays", None)
    if arrays is None:
        arrays = _WORK.arrays = {}
    key = (use, np.dtype(dtype))
    work = arrays.get(key)
    if work is None or work.size < size:
        work = arrays[key] = np.empty(size, dtype)
    return work
