"""Acceptance gate.

Each test runs one criterion at its stated tolerance, prints a single
pass/fail line with the measured margins (visible with ``pytest -s``),
and asserts the bound.  Stated runtime budgets are asserted too.
"""

import math
import time

import numpy as np
import pytest

from semiref import (
    CouplingSpec,
    CrossingProfile,
    PhysicalConstants,
    PotentialModel,
    adiabatic_reflection,
    elliptic_e,
    elliptic_k,
    evolve_tdse,
    exact_reflection,
    low_energy_effective_omega,
    lz_closed_form,
    numerov_reflection,
    reflection_closed_form,
    reflection_contour_ll,
    reflection_momentum_space,
    validate,
)

UNIT = PhysicalConstants()
E_GRID_50 = np.geomspace(0.1, 5.0, 50)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_inverse_ho_closed_form():
    model = PotentialModel.inverse_ho(1.0)
    start = time.perf_counter()
    worst = 0.0
    for E in E_GRID_50:
        res = reflection_momentum_space(model, E, UNIT)
        target = -2.0 * math.pi * E
        worst = max(worst, abs(res.log_prob - target) / abs(target))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(1, ok, f"max rel err {worst:.3e} (bound 1e-08), runtime {elapsed:.3f}s")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_sech2_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for v0, a in ((1.0, 1.0), (10.0, 2.0)):
        model = PotentialModel.sech2(v0, a)
        for E in E_GRID_50:
            res = reflection_momentum_space(model, E, UNIT)
            target = (
                -2.0 * math.pi * a * math.sqrt(2.0) * (math.sqrt(E + v0) - math.sqrt(v0))
            )
            worst = max(worst, abs(res.log_prob - target) / abs(target))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(2, ok, f"max rel err {worst:.3e} (bound 1e-08), runtime {elapsed:.3f}s")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_03_lorentzian_elliptic_form():
    model = PotentialModel.lorentzian(1.0, 1.0)
    start = time.perf_counter()
    worst = 0.0
    worst_alt = 0.0
    for E in np.geomspace(0.1, 5.0, 20):
        quad_log = reflection_momentum_space(model, E, UNIT).log_prob
        closed_log = reflection_closed_form(model, E, UNIT).log_prob
        worst = max(worst, abs(quad_log - closed_log) / abs(closed_log))
        # Alternate (modulus) convention for the same expression.
        gamma = model.v0 / E
        m_alt = (1.0 / (1.0 + gamma)) ** 2
        alt_log = (
            -4.0
            * model.a
            * math.sqrt(2.0 * E / (1.0 + gamma))
            * ((1.0 + gamma) * elliptic_e(m_alt) - gamma * elliptic_k(m_alt))
        )
        worst_alt = max(worst_alt, abs(quad_log - alt_log) / abs(quad_log))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and worst_alt > 1e-6 and elapsed < 1.0
    report(
        3,
        ok,
        f"parameter convention rel err {worst:.3e} (bound 1e-06); "
        f"alternate convention deviates {worst_alt:.3e}; runtime {elapsed:.3f}s",
    )
    assert worst <= 1e-6
    assert worst_alt > 1e-6  # documents the convention resolution
    assert elapsed < 1.0


def test_criterion_04_contour_equivalence():
    models = [
        PotentialModel.inverse_ho(1.0),
        PotentialModel.sech2(1.0, 1.0),
        PotentialModel.lorentzian(1.0, 1.0),
    ]
    worst = 0.0
    for model in models:
        for E in E_GRID_50:
            mom = reflection_momentum_space(model, E, UNIT)
            con = reflection_contour_ll(model, E, UNIT)
            worst = max(worst, abs(mom.log_prob - con.log_prob) / abs(mom.log_prob))
    ok = worst <= 1e-6
    report(4, ok, f"max rel diff momentum vs contour {worst:.3e} (bound 1e-06)")
    assert worst <= 1e-6


def test_criterion_05_exact_ho_consistency():
    model = PotentialModel.inverse_ho(1.0)
    worst = 0.0
    for E in E_GRID_50:
        exact = exact_reflection(model, E, UNIT)
        wkb = reflection_closed_form(model, E, UNIT)
        s = 2.0 * math.pi * E
        worst = max(worst, abs(exact.prob / wkb.prob - 1.0 / (1.0 + math.exp(-s))))
    point = exact_reflection(model, 1.0, UNIT).prob
    point_err = abs(point - 1.8639e-3) / 1.8639e-3
    ok = worst <= 1e-12 and point_err <= 1e-4
    report(
        5,
        ok,
        f"ratio identity max err {worst:.3e} (bound 1e-12); "
        f"prob(E=1) = {point:.6e} vs 1.8639e-03 ({point_err:.2e})",
    )
    assert worst <= 1e-12
    assert point_err <= 1e-4


def test_criterion_06_numerov_oracle():
    models = {
        "sech2": PotentialModel.sech2(10.0, 2.0),
        "lorentzian": PotentialModel.lorentzian(10.0, 2.0),
    }
    half = PhysicalConstants(hbar=0.5)
    start = time.perf_counter()
    lines = []
    bound_ok = True
    shrink_ok = True
    for name, model in models.items():
        for E in (0.5, 1.0, 2.0):
            d1 = _wkb_oracle_discrepancy(model, E, UNIT)
            d2 = _wkb_oracle_discrepancy(model, E, half)
            bound_ok &= d1 <= 0.10
            shrink_ok &= d2 < d1
            lines.append(f"{name} E={E}: {d1:.3f} -> {d2:.3f} at hbar/2")
    elapsed = time.perf_counter() - start
    ok = bound_ok and shrink_ok and elapsed < 30.0
    report(6, ok, "; ".join(lines) + f"; runtime {elapsed:.1f}s")
    assert shrink_ok, "discrepancy must shrink when hbar is halved"
    assert elapsed < 30.0
    assert bound_ok, "ln-probability discrepancy exceeded 0.10: " + "; ".join(lines)


def _wkb_oracle_discrepancy(model, E, consts):
    oracle = numerov_reflection(model, E, consts)
    wkb = reflection_closed_form(model, E, consts)
    return abs(oracle.log_prob - wkb.log_prob) / abs(wkb.log_prob)


def test_criterion_07_low_energy_universality():
    logs = {}
    worst = 0.0
    for name, model in (
        ("sech2", PotentialModel.sech2(1.0, 1.0)),
        ("lorentzian", PotentialModel.lorentzian(1.0, 1.0)),
    ):
        E = 1e-3 * model.v0
        omega = low_energy_effective_omega(model, UNIT)
        assert omega == pytest.approx(math.sqrt(2.0 * model.v0 / model.a**2))
        res = reflection_momentum_space(model, E, UNIT)
        universal = -2.0 * math.pi * E / omega
        worst = max(worst, abs(res.log_prob / universal - 1.0))
        logs[name] = res.log_prob
    split = abs(logs["sech2"] / logs["lorentzian"] - 1.0)
    ok = worst <= 0.01 and split <= 0.005
    report(7, ok, f"deviation from universal {worst:.3e} (bound 1e-02); "
                  f"family split {split:.3e} (bound 5e-03)")
    assert worst <= 0.01
    assert split <= 0.005


def test_criterion_08_landau_zener():
    start = time.perf_counter()
    worst_closed = 0.0
    for T, eps in ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (2.0, 0.5), (5.0, 0.25)):
        coupling = CouplingSpec(eps)
        adiab = adiabatic_reflection(CrossingProfile.linear(T), coupling, UNIT)
        closed = lz_closed_form(T, coupling, UNIT)
        worst_closed = max(
            worst_closed, abs(adiab.log_prob - closed.log_prob) / abs(closed.log_prob)
        )
    worst_tdse = 0.0
    for T in (1.0, 2.0, 3.0):
        log_refl = evolve_tdse(CrossingProfile.linear(T), CouplingSpec(1.0), UNIT).log_prob
        target = -math.pi * T
        worst_tdse = max(worst_tdse, abs(log_refl - target) / abs(target))
    elapsed = time.perf_counter() - start
    ok = worst_closed <= 1e-10 and worst_tdse <= 0.05 and elapsed < 60.0
    report(
        8,
        ok,
        f"adiabatic vs closed max rel {worst_closed:.3e} (bound 1e-10); "
        f"TDSE vs closed max rel {worst_tdse:.3e} (bound 5e-02); runtime {elapsed:.1f}s",
    )
    assert worst_closed <= 1e-10
    assert worst_tdse <= 0.05
    assert elapsed < 60.0


def test_criterion_09_generic_profile():
    eps = CouplingSpec(0.3)
    worst = 0.0
    for tau in (3.0, 5.0, 8.0):
        profile = CrossingProfile.tanh(tau, 1.0)
        adiab = adiabatic_reflection(profile, eps, UNIT)
        log_refl = evolve_tdse(profile, eps, UNIT).log_prob
        worst = max(worst, abs(log_refl - adiab.log_prob) / abs(adiab.log_prob))
    ok = worst <= 0.05
    report(9, ok, f"tanh TDSE vs adiabatic max rel {worst:.3e} (bound 5e-02)")
    assert worst <= 0.05


def test_criterion_10_invariant_suite():
    results = validate.run_all()
    failed = [r.name for r in results if not r.passed]
    ok = not failed
    report(
        10,
        ok,
        f"{len(results) - len(failed)}/{len(results)} checks green"
        + (f"; failed: {', '.join(failed)}" if failed else ""),
    )
    details = "; ".join(f"{r.name}: {r.detail}" for r in results if not r.passed)
    assert not failed, details
