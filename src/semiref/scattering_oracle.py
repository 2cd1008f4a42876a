"""Exact reflection references for validating the semiclassical routes.

Two oracles:  ``exact_reflection``, the known closed forms for the inverse
oscillator and the sech^2 barrier, and ``numerov_reflection``, a direct
integration of the stationary Schroedinger equation for the flat-tailed
families with a fixed-step Numerov recurrence (fourth-order accurate).
The wave is launched as a pure outgoing discrete plane wave at the right
edge and decomposed into incident and reflected discrete plane waves at
the left edge.  The value is Richardson-extrapolated twice, over runs at
steps h, 2h and 4h, the error estimate comes from those runs and wider
windows, and comparisons are made on ln of the probability.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, SemirefError
from .potentials import PhysicalConstants, PotentialKind, PotentialModel, _positive_finite, v
from .wkb_reflection import Method, ReflectionResult, _reflections

__all__ = [
    "ScatteringGrid",
    "default_grid",
    "exact_reflection",
    "numerov_reflection",
]

_MAX_POINTS = 50_000_000
# k * dx of the default grid, the finest rung the ladder starts from; _solve
# rejects a grid past it.  With its 2h and 4h rungs (k dx 0.4 and 0.8) the
# ladder keeps the sech^2 rows of oracle-check's ranges within ~6e-11 of the
# exact formula.
_K_DX = 0.2
# Starting half-window per family, in units of a.  The sech^2 tail is flat
# to ~1e-10 at 12a; the Lorentzian's 1/x^2 tail leaves a window term of
# at most ~1e-6 in ln R at 192a over v0 5-20, a 1-3, E 0.5-2, hbar 0.5-1.
_WINDOW = {PotentialKind.SECH2: 12.0, PotentialKind.LORENTZIAN: 192.0}
_WINDOW_TOL = 2.5e-7  # the window doubles until its term is below this
_MAX_DOUBLINGS = 4
# The window term is the spread of the h run's ln R over the windows
# W (1 + j / _SPREAD), j = 0 .. _SPREAD: the change from one doubling alone
# can read small where the tail's oscillation takes the same phase at W and 2W.
_SPREAD = 4
_MAX_HALVINGS = 3  # the step halves at most this often, to k dx = 0.025
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

    The ladder's rungs step by ``step``, 2 * step and 4 * step across the
    window, on the points of the finest; the finest also goes on out to
    2 * x_max, for the window term.  Each rung's half window is a whole
    number of product segments.
    """

    x_max: float
    dx: float

    def __post_init__(self):
        _positive_finite("x_max", self.x_max)
        if not (0.0 < self.dx < self.x_max):
            raise DomainError("dx must satisfy 0 < dx < x_max")
        # x_max / dx may overflow; n_points would then take ceil(inf).
        if not 2.0 * self.x_max / self.dx < _MAX_POINTS or self.n_points > _MAX_POINTS:
            raise DomainError(f"grid of {2.0 * self.x_max / self.dx:.3g} points is too large")

    @property
    def segment(self) -> int:
        """Steps per product segment: x_max / (4 dx), the 4 * step rung's
        half window, split evenly into pieces of at most ``_SEG``, rounded
        up to even (an odd column costs the product a fold per level)."""
        q = math.ceil(0.25 * self.x_max / self.dx)
        return 2 * math.ceil(math.ceil(q / math.ceil(q / _SEG)) / 2)

    @property
    def quarter(self) -> int:
        """Steps per quarter of the window: x_max / (2 dx) rounded up to a
        whole number of segment pairs."""
        seg = self.segment
        return 2 * seg * math.ceil(0.25 * self.x_max / self.dx / seg)

    @property
    def step(self) -> float:
        return 0.5 * self.x_max / self.quarter

    @property
    def n_points(self) -> int:
        return 4 * self.quarter + 1


def _check_flat_tailed(model: PotentialModel) -> None:
    if model.kind is PotentialKind.INVERSE_HO:
        raise DomainError("inverse_ho has no flat tail; use exact_reflection")


def _wavenumber(model: PotentialModel, E, consts: PhysicalConstants):
    """k = sqrt(2m (E + v0)) / hbar, for a float or elementwise."""
    with np.errstate(over="ignore"):  # as Python floats do, past the range
        return np.sqrt(2.0 * consts.mass * (E + model.v0)) / consts.hbar


def _wave_check(model: PotentialModel, k) -> str | None:
    """Why no default grid resolves a wavenumber k, or None."""
    if not k > 0.0:
        return "the wavenumber k underflows to 0"
    x_max = _WINDOW[model.kind] * model.a
    if not k * x_max > _K_DX:
        return (f"the wave is longer than the window: k x_max = {k * x_max:.3g} "
                f"is below one step (k dx = {_K_DX:g})")
    return None


def default_grid(
    model: PotentialModel,
    E: float,
    consts: PhysicalConstants,
) -> ScatteringGrid:
    """The family's starting window (12a for sech^2, 192a for the
    Lorentzian), step set so k * dx <= 0.2."""
    _check_flat_tailed(model)
    if not E > 0.0:
        raise DomainError("E must be positive")
    k = float(_wavenumber(model, E, consts))
    why = _wave_check(model, k)
    if why is not None:
        raise DomainError(why)
    return ScatteringGrid(x_max=_WINDOW[model.kind] * model.a, dx=_K_DX / k)


def exact_reflection(
    model: PotentialModel, E: float, consts: PhysicalConstants
) -> ReflectionResult:
    """Exact reflection probability from the family's closed form, in logs.

    inverse_ho: |R|^2 = e^{-s} / (1 + e^{-s}) with s = 2 pi E / (hbar omega)
    and omega = sqrt(alpha/m).  Valid for any real E; for E > 0 it is
    strictly below the semiclassical estimate e^{-s} and agrees with it to
    leading exponential order.

    sech2, V = -v0 tanh^2(x/a) (Landau & Lifshitz, QM section 25, problem 4):
    |R|^2 = cosh^2 c / (sinh^2 b + cosh^2 c) with b = pi k a,
    k = sqrt(2m (E + v0)) / hbar, and c = pi sqrt(l - 1/4) for
    l = 2 m v0 a^2 / hbar^2; where l < 1/4, cosh c becomes
    cos(pi sqrt(1/4 - l)).  Valid for every E > -v0, below the top too.
    """
    if model.kind is PotentialKind.INVERSE_HO:
        omega = math.sqrt(model.alpha / consts.mass)
        if consts.hbar * omega == 0.0:
            # hbar omega underflows; E / omega = E sqrt(m) / sqrt(alpha) does not.
            s = 2.0 * math.pi * E * math.sqrt(consts.mass) / math.sqrt(model.alpha) / consts.hbar
        else:
            s = 2.0 * math.pi * E / (consts.hbar * omega)
        if s >= 0.0:
            log_prob = -(s + math.log1p(math.exp(-s)))
        else:
            log_prob = -math.log1p(math.exp(s))
        return ReflectionResult.from_log(E, log_prob, Method.EXACT)
    if model.kind is PotentialKind.LORENTZIAN:
        raise DomainError("the Lorentzian has no closed-form reflection; "
                          "numerov_reflection is its exact reference")
    v0, a = model.v0, model.a
    if not E + v0 > 0.0:
        raise DomainError("E must lie above the tails, E > -v0")
    b = math.pi * a * (math.sqrt(2.0 * consts.mass * (E + v0)) / consts.hbar)
    if b == 0.0:
        raise DomainError("pi k a underflows to 0")
    r = a / consts.hbar
    ell = 2.0 * consts.mass * v0 * r * r
    ln_sinh_b = b + math.log(-math.expm1(-2.0 * b)) - math.log(2.0)
    if ell >= 0.25:
        c = math.pi * math.sqrt(ell - 0.25)
        ln_top = 2.0 * (c + math.log1p(math.exp(-2.0 * c)) - math.log(2.0))
    else:
        # cos(pi sqrt(1/4 - l)) = sin(pi l / (1/2 + sqrt(1/4 - l))), exact as l -> 0.
        ln_top = 2.0 * math.log(math.sin(math.pi * ell / (0.5 + math.sqrt(0.25 - ell))))
    d = ln_top - 2.0 * ln_sinh_b  # ln(cosh^2 c / sinh^2 b)
    log_prob = d - math.log1p(math.exp(d)) if d < 0.0 else -math.log1p(math.exp(-d))
    return ReflectionResult.from_log(E, log_prob, Method.EXACT)


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
    mirror image, formed exactly from it (``_runs``).

    The scheme is fourth order.  Three runs over the window, at steps h
    (k h <= 0.2), 2h and 4h, give two Richardson values R1(h) and R1(2h)
    (each fine + (fine - coarse)/15), and the value is the second level
    R1(h) + (R1(h) - R1(2h))/63, plus the change the h run sees when its
    window doubles.  ``err_estimate`` is the step term |R1(h) - R1(2h)|,
    the error of the coarser extrapolation, plus a window term, plus a
    rounding term.  The window term is the spread of the h run's ln R over
    five windows from the ladder's to the doubled one: the tail's effect
    oscillates with the window's edge, so a single doubling can miss it.
    A product of n steps moves the amplitudes by up to rho = eps sqrt(n)
    |A|, which moves ln R by up to -2 ln(1 - rho/|B|) (infinite once
    rho >= |B|).  While the window term exceeds 2.5e-7 the window doubles
    (up to 16x), each run around its own product, and the step term is
    measured again at the doubled window.  Where the estimate
    still exceeds 1e-6 and the step term is its largest part, h halves (up
    to 3 times): the old h and 2h runs become the 2h and 4h rungs, so each
    halving adds one run.

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
    return _reflections(E, Method.NUMEROV_ORACLE,
                        lambda energies: _solve_all(model, energies, consts, grid))


def _unitarity_defect(
    model: PotentialModel, E: float, consts: PhysicalConstants
) -> float:
    """max |R + T - 1| over the runs ``numerov_reflection`` makes at E, on
    its ``default_grid``; where that grid's checks flag the row, their
    DomainError is raised.

    The recurrence conserves the flux Im(conj(y_i) y_{i+1}), y = f psi,
    exactly, so the defect measures the rounding of the transfer-matrix
    product, not the discretisation or window error.
    """
    _, (defect,) = _solve(model, np.array([E], dtype=float), consts,
                          default_grid(model, E, consts))
    return defect


def _solve_all(model, energies, consts, grid) -> list:
    """Per energy, its outcome: a (ln R, err_estimate) pair or the
    SemirefError that flags it.  The energies a grid resolves are solved
    in bands of (k, index) pairs: with ``grid``, one band in input order;
    else by k, split where k exceeds ``_GROUP_RATIO`` times the band's
    first k, each band on the grid of its largest k whose own grid is not
    too large (the members above it are flagged with their grid's error)."""
    out: list = [None] * energies.size
    own = []
    for i, k in enumerate(_wavenumber(model, energies, consts).tolist()):
        why = _wave_check(model, k)
        if why is None:
            own.append((k, i))
        else:
            out[i] = DomainError(why)
    if grid is None:
        own.sort()
    bands = []
    for k, i in own:
        if not bands or (grid is None and k > _GROUP_RATIO * bands[-1][0][0]):
            bands.append([])
        bands[-1].append((k, i))
    for band in bands:
        g = grid
        while g is None and band:
            try:
                g = default_grid(model, float(energies[band[-1][1]]), consts)
            except DomainError as exc:
                out[band.pop()[1]] = exc
        if not band:
            continue
        idx = [i for _, i in band]
        try:
            rows, _ = _solve(model, energies[idx], consts, g)
        except SemirefError as exc:
            rows = [exc] * len(idx)
        for i, row in zip(idx, rows):
            out[i] = row
    return out


def _solve(model, energies, consts, grid) -> tuple[list, list]:
    """(outcomes, unitarity defects) of the energies on ``grid``, one of
    each per energy.  A grid with k dx > 0.2 is rejected.

    One loop grows the window.  Its first pass runs the three-rung ladder
    over [-X, X] and the h run over windows from X to 2X, for the window
    term; each later pass doubles the window of every run, each around its
    own product, for the rows whose term still exceeds ``_WINDOW_TOL`` and
    halved at the last pass.  Then the step halves where the judged estimate
    exceeds its bound with the step term its largest part.  Every row is
    updated, in either loop, by ``update``."""
    L, h, X, seg = grid.quarter, grid.step, grid.x_max, grid.segment
    k_max = float(_wavenumber(model, float(energies.max()), consts))
    if k_max * h > _K_DX * (1.0 + 1e-12):
        raise DomainError(f"k*dx = {k_max * h:.3f} > {_K_DX:g} under-resolves the wave")
    if X < _WINDOW[model.kind] * model.a * (1.0 - 1e-12):
        raise DomainError(
            f"window x_max = {X:g} is shorter than {_WINDOW[model.kind]:g} a"
        )
    r = h / consts.hbar  # c = (2m/hbar^2) h^2 / 12, formed without overflow
    c = 2.0 * consts.mass * r * r / 12.0
    if not (0.0 < c and 16.0 * c < math.inf):
        raise DomainError(f"the Numerov scale (2m/hbar^2) dx^2/12 = {c:g} is out of range")

    size = energies.size
    # Per row: value, step and window terms, h and 2h rungs, half-window.
    log_r, d_step, window, fine_lr, mid_lr, half = (np.empty(size) for _ in range(6))
    d_window = np.full(size, math.inf)  # the first pass's term need not halve
    defect, n_steps = np.zeros(size), np.empty(size, dtype=int)

    def update(rows, fine, mid, coarse, window_term, run, steps):
        """Set ``rows``' rungs, value, step term, window term, defect and
        steps (of the runs in the value) from the ladder's runs and ``run``."""
        fine_lr[rows], mid_lr[rows], window[rows], n_steps[rows] = fine, mid, window_term, steps
        value, d_step[rows] = _ladder(fine, mid, coarse)
        log_r[rows] = value + window_term
        defect[rows] = np.maximum(defect[rows], run.defect.max(axis=0))

    todo, p = np.arange(size), None  # the rows that grow, their runs' products
    W, n = X, 2 * L  # the ladder's half-window and the h steps in [-W, 0]
    for _ in range(_MAX_DOUBLINGS + 1):
        if p is None:
            # The h chain runs over [-2W, 0]; its inner half, [-W, 0], holds
            # the points of all three rungs.
            fine_v = v(model, -2.0 * W + h * np.arange(2 * n + 1))
            inner = fine_v[n:]
            rungs = [(fine_v, c), (inner[::2], 4.0 * c), (inner[::4], 16.0 * c)]
            # V of a scale past double precision (x^2 + a^2 underflowing to
            # 0) is NaN at the chains' ends too: their m stand for the grid.
            if not all(np.isfinite(_numerov_m(energies, v_k[[0, -1], None], c_k)).all()
                       for v_k, c_k in rungs):
                raise DomainError("the Numerov coefficients are not finite")
            spread, around = _SPREAD + 1, None
        else:
            # Rings around the old runs: the h run's from [-W, W] to
            # [-2W, 2W], the 2h and 4h runs' from [-W/2, W/2] to [-W, W].
            rungs = [(v(model, -2.0 * W + h * np.arange(n + 1)), c),
                     (v(model, -W + 2.0 * h * np.arange(n // 4 + 1)), 4.0 * c),
                     (v(model, -W + 4.0 * h * np.arange(n // 8 + 1)), 16.0 * c)]
            spread, around = _SPREAD, p[:, [0] * _SPREAD + [1, 2]]
        # The h run over the windows from [-2W, 2W] down (segments q apart),
        # then the 2h and the 4h run.
        q = n // (4 * seg)
        run = _runs(energies[todo], rungs, seg,
                    [*((0, j * q) for j in range(spread)), (1, 0), (2, 0)], around)
        widths = run.log_r[:spread]
        if p is not None:  # the narrowest width is the old wide run
            widths = np.concatenate([widths, wide[None]])
        last, wide = d_window[todo], widths[0]
        update(todo, widths[-1], run.log_r[-2], run.log_r[-1], wide - widths[-1], run,
               15 * n // 2)
        d_window[todo], half[todo] = widths.max(axis=0) - widths.min(axis=0), W
        keep = (d_window[todo] > _WINDOW_TOL) & (d_window[todo] <= 0.5 * last)
        todo, wide, p = todo[keep], wide[keep], np.stack(run.p)[:, [0, -2, -1]][:, :, keep]
        if todo.size == 0 or 8 * n > _MAX_POINTS:
            break
        W, n = 2.0 * W, 2 * n

    # Halve the step where the estimate exceeds its bound and the step term
    # is its largest part: the h and 2h rungs become the 2h and 4h rungs.
    # Each level is judged once; the last judgement is the rows'.
    todo = np.arange(size)
    for level in range(1, _MAX_HALVINGS + 2):
        err, d_round, flagged = _judged(log_r, d_step, d_window, n_steps)
        todo = todo[flagged[todo] & (d_step[todo] > d_window[todo] + d_round[todo])]
        c /= 4.0
        if level > _MAX_HALVINGS or todo.size == 0 or not c > 0.0:
            break
        ran = []
        for W in np.unique(half[todo]).tolist():
            rows = todo[half[todo] == W]
            m = 2 * L * round(W / X) << level  # steps in [-W, 0] at h / 2^level
            if 2 * m > _MAX_POINTS:
                continue
            chain = v(model, -W + (h / 2**level) * np.arange(m + 1))
            new = _runs(energies[rows], [(chain, c)], seg, [(0, 0)])
            update(rows, new.log_r[0], fine_lr[rows], mid_lr[rows], window[rows], new,
                   n_steps[rows] + 2 * m)
            ran.append(rows)
        todo = np.sort(np.concatenate(ran)) if ran else todo[:0]

    out = []
    for lr, e, ds, dw, dr, bad in zip(*(x.tolist() for x in (
            log_r, err, d_step, d_window, d_round, flagged))):
        if bad:
            why = "is 1 or more" if e >= 1.0 else f"exceeds {_ERR_BOUND:g}"
            out.append(ConvergenceError(
                f"Numerov error estimate {e:.2e} {why} (step term {ds:.1e}, "
                f"window doubling {dw:.1e}, rounding {dr:.1e})",
                best=lr, err_estimate=e))
        else:
            out.append((lr, e))
    return out, defect.tolist()


def _judged(log_r, d_step, d_window, n_steps):
    """(err_estimate, rounding term, flagged) of the rows, as arrays.

    Below the rounding floor r_floor rounding alone puts more than the bound
    on ln R, so the bound is kept by the error on R itself.  An estimate of
    1 or more no longer holds: the rungs are not asymptotic there.
    """
    # Over 720 seeded sech^2 rows with E up to 30, the returned rows below
    # ln R = -35 saw B move by at most 0.34 eps sqrt(n) |A| (median 0.03).
    rho = _EPS * np.sqrt(n_steps)  # relative to |A|
    x = rho * np.exp(-0.5 * log_r)  # rho / |B|
    with np.errstate(divide="ignore", invalid="ignore"):
        d_round = np.where(x < 1.0, -2.0 * np.log1p(-x), math.inf)
    err = d_step + d_window + d_round
    r_floor = (2.0 * rho / _ERR_BOUND) ** 2
    r_err = np.exp(log_r) * np.expm1(np.minimum(err, 700.0))
    flagged = (err >= 1.0) | ~((err <= _ERR_BOUND) | (r_err <= _ERR_BOUND * r_floor))
    return err, d_round, flagged


def _ladder(fine, mid, coarse):
    """(value, step term) from a fourth-order scheme's runs at steps h, 2h
    and 4h: the second Richardson level R1(h) + (R1(h) - R1(2h)) / 63, with
    R1 the ``_richardson`` value of each pair, and the step term
    |R1(h) - R1(2h)|, the error of the coarser extrapolation."""
    upper, _ = _richardson(fine, mid)
    lower, _ = _richardson(mid, coarse)
    step = upper - lower
    return upper + step / 63.0, np.abs(step)


def _richardson(fine, coarse):
    """(value, step term) from a fourth-order scheme's run and one at
    twice its step, as floats or arrays: the fine run's error is about
    (fine - coarse) / 15, so the value is the fine run extrapolated by that
    amount, and the step term is that amount's magnitude."""
    step = (fine - coarse) / 15.0
    return fine + step, abs(step)


@dataclass
class _Run:
    """Runs' products (p00, p01, p10, p11) and the m = -e of their edge
    points, as arrays of one shape, and the ln R and |R + T - 1| they give.

    A product maps the state (y_N, y_N - y_{N+1}) at the right edge to
    (y_0, y_0 - y_1) at the left.  Every run's window is symmetric, so both
    edges take the one m, and the one discrete wavenumber theta = q dx that
    the recurrence carries there, 2 - e = 2 cos(theta), i.e.
    sin^2(theta/2) = e/4; y_j = A r^j + B r^-j with r = e^{i theta}.
    """

    p: tuple
    m: np.ndarray

    def __post_init__(self):
        p00, p01, p10, p11 = self.p
        m = self.m
        sin = np.sqrt(-m * (1.0 + 0.25 * m))
        # Launch y_N = 1, y_{N+1} = e^{i theta}: y_N - y_{N+1} = e/2 - i sin.
        d_n = -0.5 * m - 1j * sin
        y0, d0 = p00 + p01 * d_n, p10 + p11 * d_n
        # (r - 1/r) A = y_1 - y_0/r = y_0 (1 - 1/r) - d_0, and
        # (r - 1/r) B = y_0 r - y_1 = d_0 - y_0 (1 - r).
        inc = np.abs(y0 * (-0.5 * m + 1j * sin) - d0) ** 2
        with np.errstate(divide="ignore"):
            log_r = np.log(np.abs(d0 - y0 * d_n) ** 2) - np.log(inc)
        self.log_r = np.clip(log_r, math.log(np.finfo(float).tiny), 0.0)
        # The recurrence conserves the flux Im(conj(y_j) y_{j+1}): sin theta
        # at the right, (|A|^2 - |B|^2) sin theta at the left.
        trans = 4.0 * sin * sin / inc
        self.defect = np.abs(np.exp(log_r) + trans - 1.0)


def _runs(energies, chains, seg: int, starts, inner=None) -> _Run:
    """Numerov transfer-matrix products of the runs of ``starts`` along
    chains of grid points, for every energy at once, in one stacked pass.

    A chain is V at points x_0 .. x_n of one step, with the scale
    c = (2m/hbar^2) step^2 / 12; its matrices sit at x_1 .. x_n.  Each
    chain is cut into segments of ``seg`` matrices, and the segments of all
    chains and energies are the equal-length columns of one product, taken
    along axis 0 in calls of at most ``_CHUNK`` matrices.

    ``starts`` are (chain, segment) pairs.  Each run goes over its chain
    from the segment's first point x_0 to the chain's end x_n, then its
    ``inner`` product (default: the identity), then the steps at
    -x_{n-1} .. -x_0.  With H the product of the stretch x_0 .. x_n, those
    mirrored steps multiply to M_n^-1 rev(H) M_0, so the run is H inner
    M_n^-1 rev(H) M_0 and both its edges take m at x_0.  With x_n = 0 and
    ``inner`` the identity this is the run over [x_0, -x_0]; with ``inner``
    the product of the run over [x_n, -x_n] it is that run's window
    extended to [x_0, -x_0].  The segments are multiplied in blocks that
    every run spans whole, all in one product, and each run's H is its
    blocks' product, formed from the chain's end.
    """
    counts = [(v_k.size - 1) // seg for v_k, _ in chains]
    first = np.cumsum([0, *counts]).tolist()  # each chain's first column
    cols = np.concatenate([v_k[1:].reshape(n, seg) for (v_k, _), n in zip(chains, counts)]).T
    scale = np.repeat([c_k for _, c_k in chains], counts)
    size, n_cols = energies.size, cols.shape[1]
    per_c = min(n_cols, max(1, _CHUNK // seg))
    per_e = max(1, _CHUNK // (seg * n_cols))
    prod = np.empty((4, size, n_cols))
    for e0 in range(0, size, per_e):
        e = energies[e0 : e0 + per_e, None]
        for c0 in range(0, n_cols, per_c):
            m = _numerov_m(e, cols[:, None, c0 : c0 + per_c], scale[c0 : c0 + per_c])
            prod[:, e0 : e0 + per_e, c0 : c0 + per_c] = _companion_product(m)
    lo = [first[k] + j for k, j in starts]
    hi = [first[k + 1] for k, _ in starts]
    b = math.gcd(*lo, *hi)  # segments per block
    blocks = [x.reshape(size, -1) for x in _ordered_product(
        *(x.reshape(size * (x.shape[1] // b), b).T for x in prod))]
    h = [None] * len(starts)
    for end in set(hi):
        mine = {lo[r] // b: r for r in range(len(starts)) if hi[r] == end}
        acc = None
        for j in range(end // b - 1, min(mine) - 1, -1):
            block = tuple(x[:, j] for x in blocks)
            acc = block if acc is None else _mul2(block, acc)
            if j in mine:
                h[mine[j]] = acc
    h = tuple(np.stack(x) for x in zip(*h))
    edge = np.array([(chains[k][0][j * seg], chains[k][0][-1], chains[k][1])
                     for k, j in starts]).T[:, :, None]
    m_0, m_n = (_numerov_m(energies, v_e, edge[2]) for v_e in edge[:2])
    # M^-1 = [[1, -1], [-m, 1 + m]] for the step M = [[1 + m, 1], [m, 1]].
    right = _mul2(_mul2((1.0, -1.0, -m_n, 1.0 + m_n), _reversed(h)),
                  (1.0 + m_0, 1.0, m_0, 1.0))
    if inner is not None:
        right = _mul2(inner, right)
    return _Run(_mul2(h, right), m_0)


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
