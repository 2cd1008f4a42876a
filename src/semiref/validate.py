"""Cross-cutting invariant suite behind ``semiref validate``.

Each check returns a pass/fail flag plus the measured margin so failures
are diagnosable from the report alone.  The suite is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import landau_zener as lz
from . import scattering_oracle as oracle
from .errors import DomainError, SemirefError
from .potentials import PhysicalConstants, PotentialModel
from .specfun import elliptic_b, elliptic_e, elliptic_k
from .wkb_reflection import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    low_energy_effective_omega,
    reflection_closed_form,
    reflection_contour_ll,
    reflection_momentum_space,
)

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _models() -> list[PotentialModel]:
    return [
        PotentialModel.inverse_ho(1.0),
        PotentialModel.sech2(1.0, 1.0),
        PotentialModel.lorentzian(1.0, 1.0),
    ]


def _judged(log_prob: float) -> float:
    """log_prob, where one that underflows to 0 leaves nothing to judge,
    which raises DomainError naming the underflow."""
    if log_prob == 0.0:
        raise DomainError("a log_prob underflows to 0, so no relative difference exists")
    return log_prob


def _check_cross_method(consts, quad):
    worst = 0.0
    for model in _models():
        for E in (0.25, 1.0, 4.0):
            mom = reflection_momentum_space(model, E, consts, quad)
            con = reflection_contour_ll(model, E, consts, quad)
            rel = abs(mom.log_prob - con.log_prob) / _judged(abs(mom.log_prob))
            worst = max(worst, rel)
    return worst <= 1e-6, f"max rel diff {worst:.3e} (bound 1e-06)"


def _check_closed_form(consts, quad):
    worst = 0.0
    for model in _models():
        bound = 1e-6 if model.kind.value == "lorentzian" else 1e-8
        for E in np.geomspace(0.1, 5.0, 9):
            quad_res = reflection_momentum_space(model, E, consts, quad)
            closed = reflection_closed_form(model, E, consts)
            rel = abs(quad_res.log_prob - closed.log_prob) / _judged(abs(closed.log_prob))
            worst = max(worst, rel / bound)
    return worst <= 1.0, f"max rel diff / bound = {worst:.3e}"


def _check_legendre(consts, quad):
    # The relation in E and, through E(m) = (1 - m) K(m) + m B(m), in B,
    # the integral the Lorentzian closed form calls.
    worst = 0.0
    for m in np.linspace(0.1, 0.9, 9):
        k, k1 = elliptic_k(m), elliptic_k(1.0 - m)
        for lhs in (
            elliptic_e(m) * k1 + elliptic_e(1.0 - m) * k - k * k1,
            m * elliptic_b(m) * k1 + (1.0 - m) * elliptic_b(1.0 - m) * k,
        ):
            worst = max(worst, abs(lhs - 0.5 * math.pi))
    return worst <= 1e-12, f"max |relation - pi/2| = {worst:.3e} (bound 1e-12)"


def _check_hbar_scaling(consts, quad):
    worst = 0.0
    for model in _models():
        actions = []
        for factor in (1.0, 0.5, 0.25):
            hbar = factor * consts.hbar
            scaled = PhysicalConstants(hbar=hbar, mass=consts.mass)
            res = reflection_momentum_space(model, 1.0, scaled, quad)
            actions.append(res.log_prob * hbar)
        spread = (max(actions) - min(actions)) / _judged(abs(actions[0]))
        worst = max(worst, spread)
    return worst <= 1e-8, f"max spread of log_prob*hbar = {worst:.3e} (bound 1e-08)"


def _check_monotonicity(consts, quad):
    for model in _models():
        logs = [
            _judged(reflection_momentum_space(model, E, consts, quad).log_prob)
            for E in np.geomspace(0.1, 5.0, 8)
        ]
        if not all(b < a for a, b in zip(logs, logs[1:])):
            return False, f"log_prob not strictly decreasing for {model.kind.value}"
    return True, "log_prob strictly decreasing in E for all models"


def _check_low_energy(consts, quad):
    worst = 0.0
    logs = {}
    for model in (PotentialModel.sech2(1.0, 1.0), PotentialModel.lorentzian(1.0, 1.0)):
        E = 1e-3 * model.v0
        res = reflection_closed_form(model, E, consts)
        omega = low_energy_effective_omega(model, consts)
        universal = -2.0 * math.pi * E / (consts.hbar * omega)
        worst = max(worst, abs(res.log_prob / _judged(universal) - 1.0))
        logs[model.kind.value] = res.log_prob
    pair = abs(logs["sech2"] / _judged(logs["lorentzian"]) - 1.0)
    ok = worst <= 0.01 and pair <= 0.005
    return ok, f"max deviation from universal {worst:.3e}, pair split {pair:.3e}"


def _check_unitarity(consts, quad):
    worst = 0.0
    for model in (PotentialModel.sech2(10.0, 2.0), PotentialModel.lorentzian(10.0, 2.0)):
        worst = max(worst, oracle._unitarity_defect(model, 1.0, consts))
    return worst <= 1e-6, f"max unitarity defect {worst:.3e} (bound 1e-06)"


def _check_tdse_norm(consts, quad):
    # The CF4 propagator that ``lz`` runs, as partial products from the
    # start of the span to 9 equally spaced times, applied to the start state.
    # It is held as the SU(2) pair (a, b) of its upper row and its lower row
    # is (-conj(b), conj(a)), so the drift is the rounding of the pair.  It
    # runs in the sweep's own units, as ``evolve_tdse`` does.  The setup
    # raises DomainError where double precision cannot hold the sweep, as in
    # ``evolve_tdse``, or where a stretch needs as many steps as the cap
    # ``_steps`` puts on them (at hbar = 1e-20 each needs ~8e22), so nothing
    # is stepped; a drift that is not finite fails.
    tdse_rtol = 1e-10  # the default of ``lz --tdse-rtol``
    profile = lz.CrossingProfile.linear(2.0)
    with lz._in_double_precision():
        profile, epsilon, hbar, t1 = lz._in_sweep_units(
            profile, 1.0, consts.hbar,
            lz.default_t_span(profile, lz.CouplingSpec(1.0), consts)[1])
        t_eval = np.linspace(-t1, t1, 9)
        psi, _ = lz._edge_states(profile, epsilon, hbar, -t1)
        tables = [lz._phase_table(profile, epsilon, hbar, a, b)
                  for a, b in zip(t_eval, t_eval[1:])]
        need = max(lz._needed_steps(table, tdse_rtol) for table in tables)
    cap = lz._MAX_STEPS // 2
    if need > cap - 1:  # rounded up, the count reaches the cap
        raise DomainError(
            f"a stretch of the sweep needs {need:.3g} CF4 steps, at or past the cap of {cap}")
    steps = [lz._steps(table, tdse_rtol) for table in tables]
    drifts = [abs(np.vdot(psi, psi).real - 1.0)]
    for table, n in zip(tables, steps):
        u_a, u_b = lz._propagator(profile, epsilon, hbar, table, n)
        psi = np.array([u_a * psi[0] + u_b * psi[1],
                        -np.conj(u_b) * psi[0] + np.conj(u_a) * psi[1]])
        drifts.append(abs(np.vdot(psi, psi).real - 1.0))
    worst, bound = np.max(drifts), 100.0 * tdse_rtol
    return worst <= bound, f"max norm drift {worst:.3e} (bound {bound:.1e})"


def _check_lz_closed(consts, quad):
    worst = 0.0
    for T, epsilon in ((1.0, 1.0), (2.0, 0.5)):
        eps = lz.CouplingSpec(epsilon)
        adiab = lz.adiabatic_reflection(
            lz.CrossingProfile.linear(T), eps, consts, quad
        )
        closed = lz.lz_closed_form(T, eps, consts)
        worst = max(worst, abs(adiab.log_prob - closed.log_prob)
                    / _judged(abs(closed.log_prob)))
    return worst <= 1e-10, f"max rel diff vs closed form {worst:.3e} (bound 1e-10)"


def _check_eigen_residual(consts, quad):
    rng = np.random.default_rng(7)
    profile = lz.CrossingProfile.tanh(2.0, 3.0)
    eps = lz.CouplingSpec(0.7)
    worst = 0.0
    for t in rng.uniform(-20.0, 20.0, 16):
        f = profile.value(t)
        h = np.array([[f, eps.epsilon], [eps.epsilon, -f]])
        e_plus, e_minus, phi_p, phi_m = lz.instantaneous_eigensystem(profile, eps, t)
        worst = max(worst, float(np.max(np.abs(h @ phi_p - e_plus * phi_p))))
        worst = max(worst, float(np.max(np.abs(h @ phi_m - e_minus * phi_m))))
        worst = max(worst, abs(float(phi_p @ phi_m)))
    return worst <= 1e-12, f"max eigen residual {worst:.3e} (bound 1e-12)"


def _check_quadrature_convergence(consts, quad):
    model = PotentialModel.lorentzian(1.0, 1.0)
    # The configured spec must actually certify its own tolerance.
    res = reflection_momentum_space(model, 1.0, consts, quad)
    _judged(res.log_prob)  # the loose and tight specs take the same integral
    loose = QuadratureSpec(nodes=8, refinement_levels=2, rel_tol=1.0)
    tight = QuadratureSpec(nodes=32, refinement_levels=2, rel_tol=1.0)
    err_loose = reflection_momentum_space(model, 1.0, consts, loose).err_estimate
    err_tight = reflection_momentum_space(model, 1.0, consts, tight).err_estimate
    shrinks = err_tight <= err_loose + 1e-15
    return (
        shrinks,
        f"converged err {res.err_estimate:.3e}; refinement {err_loose:.3e} -> {err_tight:.3e}",
    )


_CHECKS = [
    ("cross_method_equality", _check_cross_method),
    ("closed_form_agreement", _check_closed_form),
    ("legendre_relation", _check_legendre),
    ("hbar_scaling", _check_hbar_scaling),
    ("monotonicity_in_energy", _check_monotonicity),
    ("low_energy_universality", _check_low_energy),
    ("oracle_unitarity", _check_unitarity),
    ("tdse_norm_conservation", _check_tdse_norm),
    ("lz_closed_form_agreement", _check_lz_closed),
    ("eigen_residual", _check_eigen_residual),
    ("quadrature_convergence", _check_quadrature_convergence),
]


def run_all(
    consts: PhysicalConstants | None = None,
    quad: QuadratureSpec | None = None,
) -> list[CheckResult]:
    """Run every invariant check; never raises, failures are reported."""
    consts = consts or PhysicalConstants()
    quad = quad or DEFAULT_QUADRATURE
    results = []
    for name, fn in _CHECKS:
        try:
            passed, detail = fn(consts, quad)
        except SemirefError as exc:
            passed, detail = False, f"error: {exc}"
        except Exception as exc:  # a check that breaks is reported, never raised
            passed, detail = False, f"error: {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail))
    return results
