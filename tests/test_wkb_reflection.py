import math
import random

import numpy as np
import pytest

from semiref import (
    ConvergenceError,
    DomainError,
    SemirefError,
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
from semiref import wkb_reflection

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

    def test_node_ladder_stops_at_the_cap(self):
        cap = wkb_reflection.MAX_NODES
        counts = QuadratureSpec(nodes=32, refinement_levels=12).node_counts()
        assert counts[-1] == cap
        assert counts == tuple(32 << k for k in range(len(counts)))
        with pytest.raises(DomainError):
            QuadratureSpec(nodes=2 * cap)


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

    def test_inverse_ho_where_omega_underflows(self):
        # omega = sqrt(alpha/m) underflows to 0; the exponent -2 pi E / (hbar
        # omega) is still formed, and flagged where exp of it underflows, as
        # the quadrature routes flag it.
        model = PotentialModel.inverse_ho(1e-300)
        consts = PhysicalConstants(mass=1e300)
        assert math.sqrt(model.alpha / consts.mass) == 0.0
        for route in (reflection_closed_form, reflection_contour_ll,
                      reflection_momentum_space):
            with pytest.raises(DomainError, match=r"\(log_prob=-6.28319e\+300\)"):
                route(model, 1.0, consts)
        res = reflection_closed_form(model, 1e-300, consts)
        assert res.log_prob == pytest.approx(-2.0 * math.pi, rel=1e-15)

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


def _same_outcome(got, want):
    """Bitwise equality of two route outcomes, results or exceptions."""
    if isinstance(want, SemirefError):
        assert type(got) is type(want)
        assert str(got) == str(want)
        for attr in ("best", "err_estimate"):
            assert repr(getattr(got, attr, None)) == repr(getattr(want, attr, None))
    else:
        assert got == want
        assert (got.log_prob, got.err_estimate) == (want.log_prob, want.err_estimate)


def _scalar_outcome(route, model, E, consts):
    try:
        return route(model, E, consts)
    except SemirefError as exc:
        return exc


class TestSequenceContract:
    # Converged rows at different levels, non-converged rows (sech2 and
    # lorentzian past E ~ 3000), underflow rows, E <= 0, and inf, which
    # fails inside the batched evaluation for some routes.
    ENERGIES = [1.0, 0.0, 3000.0, 1e-300, 0.3, -2.0, 1e20, math.nan, 17.0, math.inf, 1e5]

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind.value)
    @pytest.mark.parametrize(
        "route",
        [reflection_closed_form, reflection_contour_ll, reflection_momentum_space],
        ids=["closed", "contour", "momentum"],
    )
    def test_each_element_equals_the_scalar_call(self, route, model):
        consts = PhysicalConstants(hbar=0.7, mass=1.3)
        batch = route(model, self.ENERGIES, consts)
        assert len(batch) == len(self.ENERGIES)
        kinds = set()
        for E, got in zip(self.ENERGIES, batch):
            want = _scalar_outcome(route, model, E, consts)
            _same_outcome(got, want)
            kinds.add(type(want).__name__)
        assert {"ReflectionResult", "DomainError"} <= kinds

    @pytest.mark.parametrize(
        "route", [reflection_contour_ll, reflection_momentum_space],
        ids=["contour", "momentum"],
    )
    def test_rows_converge_at_their_own_levels(self, route):
        # Under a tight tolerance the rows stop at different levels; each
        # keeps the value and difference of its own first passing level.
        quad = QuadratureSpec(nodes=8, refinement_levels=6, rel_tol=1e-13)
        energies = [0.01, 0.5, 3.0, 40.0, 300.0]
        batch = route(SECH2, energies, UNIT, quad)
        for E, got in zip(energies, batch):
            try:
                want = route(SECH2, E, UNIT, quad)
            except SemirefError as exc:
                want = exc
            _same_outcome(got, want)

    def test_nonpositive_energy_flags_only_that_element(self):
        energies = [0.5, 0.0, 1.0, -2.0]
        for route in (reflection_closed_form, reflection_contour_ll,
                      reflection_momentum_space):
            batch = route(LOR, energies, UNIT)
            assert [type(r) for r in batch] == [
                ReflectionResult, DomainError, ReflectionResult, DomainError]
            assert str(batch[1]) == "E must be positive for above-barrier reflection"
            assert batch[2] == route(LOR, 1.0, UNIT)

    def test_scalar_call_raises(self):
        with pytest.raises(ConvergenceError) as excinfo:
            reflection_momentum_space(SECH2, 3000.0, UNIT)
        assert excinfo.value.best == pytest.approx(
            reflection_closed_form(SECH2, 3000.0, UNIT).log_prob, rel=1e-9)

    @pytest.mark.parametrize(
        "route", [reflection_contour_ll, reflection_momentum_space],
        ids=["contour", "momentum"],
    )
    def test_a_sequence_runs_one_ladder(self, route, monkeypatch):
        calls = []
        ladder = wkb_reflection.gauss_refined

        def counting(f, lo, hi, spec, **kwargs):
            calls.append(kwargs.get("rows"))
            return ladder(f, lo, hi, spec, **kwargs)

        monkeypatch.setattr(wkb_reflection, "gauss_refined", counting)
        route(SECH2, list(np.geomspace(0.1, 100.0, 9)), UNIT)
        assert calls == [9]


class TestGaussRefined:
    def test_rows_evaluated_are_the_rows_still_refining(self):
        # Row r integrates (r + 1) * x^(4r) over [-1, 1]; a row of higher
        # degree needs more nodes, so each level narrows the batch.
        degrees = np.array([0, 20, 40, 60])
        shapes = []
        chosen = [degrees]

        def select(rows):
            chosen[0] = degrees[rows]

        def f(x):
            shapes.append(x.shape)
            return x ** chosen[0][:, None]

        spec = QuadratureSpec(nodes=8, refinement_levels=4, rel_tol=1e-12)
        out = wkb_reflection.gauss_refined(f, -1.0, 1.0, spec, rows=4, select=select)
        assert shapes[0] == (4, 8)
        assert [s[0] for s in shapes] == sorted((s[0] for s in shapes), reverse=True)
        assert shapes[-1][0] < 4
        for d, r in zip(degrees, out):
            if isinstance(r, ConvergenceError):
                assert r.best == pytest.approx(2.0 / (d + 1), rel=1e-6)
            else:
                assert r[0] == pytest.approx(2.0 / (d + 1), rel=1e-12)

    def test_one_row_is_a_list_of_one_outcome(self):
        spec = QuadratureSpec(nodes=8, refinement_levels=2)
        ((value, err),) = wkb_reflection.gauss_refined(np.cos, 0.0, 1.0, spec)
        assert value == pytest.approx(math.sin(1.0), rel=1e-14)
        assert err <= 1e-10 * value
        (row,) = wkb_reflection.gauss_refined(
            np.cos, 0.0, 1.0, QuadratureSpec(nodes=8, refinement_levels=1))
        assert isinstance(row, ConvergenceError)
        assert row.best == pytest.approx(math.sin(1.0), rel=1e-12)
        assert row.err_estimate == math.inf

    def test_large_batches_run_in_blocks_of_bounded_size(self, monkeypatch):
        monkeypatch.setattr(wkb_reflection, "_BLOCK_POINTS", 64)
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.cos(x)

        spec = QuadratureSpec(nodes=8, refinement_levels=3)
        out = wkb_reflection.gauss_refined(f, 0.0, 1.0, spec, rows=20)
        assert max(sizes) <= 64
        assert all(r == out[0] for r in out)
        assert out[0][0] == pytest.approx(math.sin(1.0), rel=1e-14)
