import math
import random

import numpy as np
import pytest

from semiref import (
    ConvergenceError,
    DomainError,
    Method,
    PhysicalConstants,
    PotentialKind,
    PotentialModel,
    QuadratureSpec,
    ReflectionResult,
    elliptic_e,
    elliptic_k,
    im_v_inverse,
    low_energy_effective_omega,
    reflection_closed_form,
    reflection_contour_ll,
    reflection_momentum_space,
    v_on_imaginary_axis,
)

UNIT = PhysicalConstants()

HO = PotentialModel.inverse_ho(1.0)
SECH2 = PotentialModel.sech2(1.0, 1.0)
LOR = PotentialModel.lorentzian(1.0, 1.0)
ALL = [HO, SECH2, LOR]

# Pinned by the momentum-space quadrature at unit parameters, E = 1; it
# doubles as the elliptic parameter-convention anchor.
LOR_UNIT_LOG = -3.388852339175916


class TestResultAndSpec:
    def test_from_log_consistency(self):
        res = ReflectionResult.from_log(1.0, -0.5, Method.CLOSED_FORM)
        assert res.prob == math.exp(res.log_prob)
        assert 0.0 < res.prob <= 1.0

    def test_positive_log_rejected(self):
        with pytest.raises(DomainError):
            ReflectionResult.from_log(1.0, 0.1, Method.CLOSED_FORM)

    def test_quadrature_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(nodes=4)
        with pytest.raises(DomainError):
            QuadratureSpec(refinement_levels=0)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)

    def test_node_counts_strictly_increase(self):
        counts = QuadratureSpec(nodes=8, refinement_levels=4).node_counts()
        assert counts == (8, 16, 32, 64)


class TestMomentumSpace:
    def test_inverse_ho_matches_exponent(self):
        res = reflection_momentum_space(HO, 1.0, UNIT)
        assert res.log_prob == pytest.approx(-2.0 * math.pi, rel=1e-12)
        assert res.prob == pytest.approx(1.8674e-3, rel=1e-4)
        assert res.method is Method.MOMENTUM_QUADRATURE

    def test_sech2_matches_exponent(self):
        res = reflection_momentum_space(SECH2, 1.0, UNIT)
        assert res.log_prob == pytest.approx(
            -2.0 * math.pi * (2.0 - math.sqrt(2.0)), rel=1e-12
        )

    def test_low_energy_probability_tends_to_one(self):
        res = reflection_momentum_space(SECH2, 1e-14, UNIT)
        assert res.prob > 1.0 - 1e-10
        assert res.prob <= 1.0

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(DomainError):
            reflection_momentum_space(HO, 0.0, UNIT)

    def test_single_level_cannot_converge(self):
        spec = QuadratureSpec(nodes=16, refinement_levels=1)
        with pytest.raises(ConvergenceError) as excinfo:
            reflection_momentum_space(SECH2, 1.0, UNIT, spec)
        assert excinfo.value.best == pytest.approx(
            -2.0 * math.pi * (2.0 - math.sqrt(2.0)), rel=1e-8
        )

    def test_extreme_energy_ratio_escape_hatch(self):
        # E/V0 ~ 1e4 narrows the integrand shoulder beyond the default
        # node budget; the failure carries the best estimate and a larger
        # budget resolves the point to the closed form.
        model = PotentialModel.sech2(1e-4, 1.0)
        with pytest.raises(ConvergenceError) as excinfo:
            reflection_momentum_space(model, 1.0, UNIT)
        closed = reflection_closed_form(model, 1.0, UNIT)
        assert excinfo.value.best == pytest.approx(closed.log_prob, rel=1e-6)
        big = QuadratureSpec(nodes=256, refinement_levels=4)
        res = reflection_momentum_space(model, 1.0, UNIT, big)
        assert res.log_prob == pytest.approx(closed.log_prob, rel=1e-10)

    def test_err_estimate_shrinks_under_refinement(self):
        coarse = QuadratureSpec(nodes=8, refinement_levels=2, rel_tol=1.0)
        fine = QuadratureSpec(nodes=32, refinement_levels=2, rel_tol=1.0)
        err_coarse = reflection_momentum_space(LOR, 1.0, UNIT, coarse).err_estimate
        err_fine = reflection_momentum_space(LOR, 1.0, UNIT, fine).err_estimate
        assert err_fine <= err_coarse + 1e-15


class TestClosedForm:
    def test_inverse_ho_frequency(self):
        res = reflection_closed_form(PotentialModel.inverse_ho(4.0), 1.0, UNIT)
        assert res.prob == pytest.approx(math.exp(-math.pi), rel=1e-14)

    def test_sech2_deep_well_reduces_to_oscillator(self):
        v0 = 1e6
        a = math.sqrt(2.0 * v0)  # curvature-matched: omega_eff = 1
        model = PotentialModel.sech2(v0, a)
        res = reflection_closed_form(model, 1.0, UNIT)
        assert res.log_prob / (-2.0 * math.pi) == pytest.approx(1.0, abs=1e-5)

    def test_lorentzian_pinned_by_quadrature(self):
        closed = reflection_closed_form(LOR, 1.0, UNIT)
        quad_res = reflection_momentum_space(LOR, 1.0, UNIT)
        assert closed.log_prob == pytest.approx(LOR_UNIT_LOG, rel=1e-12)
        assert quad_res.log_prob == pytest.approx(closed.log_prob, rel=1e-10)

    @pytest.mark.parametrize("v0", [1e-16, 1e-17, 1e-20])
    def test_lorentzian_where_the_elliptic_parameter_rounds_to_one(self, v0):
        # E/v0 >= 1e17 rounds m = E/(E+v0) to 1, where K diverges; the
        # bracket's m -> 1 limit is 1, i.e. -(4a/hbar) sqrt(2mE).
        model = PotentialModel.lorentzian(v0, 1.0)
        assert 10.0 / (10.0 + v0) == 1.0
        closed = reflection_closed_form(model, 10.0, UNIT)
        quad_res = reflection_momentum_space(model, 10.0, UNIT)
        assert closed.log_prob == pytest.approx(quad_res.log_prob, rel=1e-12)
        assert closed.log_prob == pytest.approx(-4.0 * math.sqrt(20.0), rel=1e-15)

    def test_lorentzian_alternate_convention_fails(self):
        # Treating the elliptic argument as the modulus instead of the
        # parameter shifts the result by tens of percent.
        E, gamma = 1.0, 1.0
        m_alt = (1.0 / (1.0 + gamma)) ** 2
        alt = (
            -4.0
            * math.sqrt(2.0 * E / (1.0 + gamma))
            * ((1.0 + gamma) * elliptic_e(m_alt) - gamma * elliptic_k(m_alt))
        )
        assert abs(alt - LOR_UNIT_LOG) / abs(LOR_UNIT_LOG) > 1e-2


class TestContour:
    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind.value)
    @pytest.mark.parametrize("E", [0.25, 1.0, 4.0])
    def test_matches_momentum_route(self, model, E):
        mom = reflection_momentum_space(model, E, UNIT)
        con = reflection_contour_ll(model, E, UNIT)
        # Integration by parts makes the routes identical; allow the
        # tolerance-scale slack plus rounding on top of the estimates.
        slack = mom.err_estimate + con.err_estimate + 64 * 1e-16 * abs(mom.log_prob)
        assert abs(mom.log_prob - con.log_prob) <= max(slack, 1e-10 * abs(mom.log_prob))

    def test_inverse_ho_value(self):
        res = reflection_contour_ll(HO, 1.0, UNIT)
        assert res.log_prob == pytest.approx(-2.0 * math.pi, rel=1e-12)
        assert res.method is Method.CONTOUR_LL

    def test_sech2_value(self):
        res = reflection_contour_ll(SECH2, 1.0, UNIT)
        assert res.log_prob == pytest.approx(-3.680604738, rel=1e-9)

    def test_seeded_draws_agree_across_routes(self):
        # hbar, m, alpha, v0 and a log-uniform over two decades, E over
        # 1e-3..1e3 of the family's energy scale (hbar*omega or v0).
        rng = random.Random(20091023)

        def draw(lo, hi):
            return lo * (hi / lo) ** rng.random()

        checked = 0
        for _ in range(1000):
            kind = rng.choice(list(PotentialKind))
            consts = PhysicalConstants(hbar=draw(0.1, 10.0), mass=draw(0.1, 10.0))
            if kind is PotentialKind.INVERSE_HO:
                model = PotentialModel.inverse_ho(draw(0.1, 10.0))
                scale = consts.hbar * math.sqrt(model.alpha / consts.mass)
            else:
                model = PotentialModel(kind, v0=draw(0.1, 10.0), a=draw(0.1, 10.0))
                scale = model.v0
            E = scale * draw(1e-3, 1e3)
            try:
                closed = reflection_closed_form(model, E, consts).log_prob
            except DomainError:  # P underflows double precision
                continue
            if abs(closed) > 700.0:
                continue
            con = reflection_contour_ll(model, E, consts).log_prob
            mom = reflection_momentum_space(model, E, consts).log_prob
            assert con == pytest.approx(mom, rel=1e-9)
            assert con == pytest.approx(closed, rel=1e-9)
            y0 = im_v_inverse(model, E)
            assert v_on_imaginary_axis(model, y0) == pytest.approx(E, rel=1e-11)
            checked += 1
        assert checked > 800


class TestInvariants:
    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind.value)
    def test_monotone_in_energy(self, model):
        logs = [
            reflection_momentum_space(model, E, UNIT).log_prob
            for E in np.geomspace(0.1, 5.0, 10)
        ]
        assert all(b < a for a, b in zip(logs, logs[1:]))

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind.value)
    def test_hbar_scaling(self, model):
        actions = []
        for hbar in (1.0, 0.5, 0.25):
            consts = PhysicalConstants(hbar=hbar)
            actions.append(
                reflection_momentum_space(model, 1.0, consts).log_prob * hbar
            )
        spread = (max(actions) - min(actions)) / abs(actions[0])
        assert spread <= 1e-8

    @pytest.mark.parametrize(
        "model",
        [PotentialModel.sech2(1.0, 1.0), PotentialModel.lorentzian(1.0, 1.0)],
        ids=["sech2", "lorentzian"],
    )
    def test_low_energy_universality(self, model):
        E = 1e-3 * model.v0
        res = reflection_momentum_space(model, E, UNIT)
        omega = low_energy_effective_omega(model, UNIT)
        universal = -2.0 * math.pi * E / omega
        assert 0.99 <= res.log_prob / universal <= 1.01

    def test_probability_in_unit_interval(self):
        for model in ALL:
            for E in np.geomspace(0.05, 8.0, 7):
                res = reflection_momentum_space(model, E, UNIT)
                assert 0.0 < res.prob <= 1.0
                assert res.err_estimate >= 0.0


class TestEffectiveOmega:
    def test_inverse_ho(self):
        model = PotentialModel.inverse_ho(9.0)
        assert low_energy_effective_omega(model, UNIT) == pytest.approx(3.0)

    def test_flat_tailed_families_agree(self):
        sech2 = PotentialModel.sech2(2.0, 2.0)
        lor = PotentialModel.lorentzian(2.0, 2.0)
        assert low_energy_effective_omega(sech2, UNIT) == pytest.approx(1.0)
        assert low_energy_effective_omega(lor, UNIT) == pytest.approx(1.0)
