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
    Rows,
    default_grid,
    elliptic_e,
    elliptic_k,
    im_v_inverse,
    low_energy_effective_omega,
    numerov_reflection,
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
        # Past exp's range the row is flagged the same way, not overflowed.
        with pytest.raises(DomainError, match="log_prob must be <= 0, got 800.0"):
            ReflectionResult.from_log(1.0, 800.0, Method.CLOSED_FORM)

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

    @pytest.mark.parametrize("hbar", [1e-10, 1e-3, 1.0, 10.0])
    def test_lorentzian_matches_momentum_over_decades_of_energy(self, hbar):
        # At small E/V0 the bracket (1+g) E(m) - g K(m), g = V0/E, is two
        # terms of about g pi/2 whose difference is about pi/4: formed that
        # way it printed 0 at E/V0 = 1e-16 and was off by 2e-7 at 1e-10.
        consts = PhysicalConstants(hbar=hbar)
        energies = np.geomspace(1e-20, 1e6, 27)
        closed = reflection_closed_form(LOR, energies, consts)
        quad_res = reflection_momentum_space(LOR, energies, consts)
        pairs = [(c, q) for c, q in zip(closed, quad_res)
                 if not isinstance(c, SemirefError) and not isinstance(q, SemirefError)]
        assert len(pairs) >= 12
        for c, q in pairs:
            assert c.log_prob == pytest.approx(q.log_prob, rel=1e-12, abs=0.0), c.energy

    def test_lorentzian_where_m_times_e_underflows(self):
        # 2 m E m_ell = 2e-340 underflows as one product; sqrt(2m) E /
        # sqrt(E + V0) does not.
        consts = PhysicalConstants(hbar=1e-165, mass=1e-300)
        res = reflection_closed_form(LOR, 1e-20, consts)
        assert res.log_prob == pytest.approx(-math.sqrt(2.0) * math.pi * 1e-5, rel=1e-14)

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


def _printed(outcome):
    """(log_prob, prob, err_estimate) the CLI prints for an outcome: a
    flagged row's best value and estimate on a ConvergenceError, prob nan
    where exp(best) underflows, and nan otherwise."""
    if isinstance(outcome, ConvergenceError) and outcome.best is not None:
        prob = math.exp(min(outcome.best, 0.0))
        err = math.nan if outcome.err_estimate is None else outcome.err_estimate
        return outcome.best, prob if prob > 0.0 else math.nan, err
    if isinstance(outcome, SemirefError):
        return math.nan, math.nan, math.nan
    return outcome.log_prob, outcome.prob, outcome.err_estimate


# Ordinary energies, E = 0 and E = -1, and inverse_ho's E = 200, where
# exp(-2 pi E) underflows; a single quadrature level flags every row it
# runs as not converged.
HO_ENERGIES = [0.5, 2.0, 0.0, 200.0, -1.0, 7.0]
ONE_LEVEL = QuadratureSpec(refinement_levels=1)
NUMEROV_MODEL = PotentialModel.sech2(10.0, 2.0)
# Numerov flags E = 40 as not converged; one fixed grid for the batch and
# the scalar calls, since a batch's shared grid depends on its energies.
NUMEROV_GRID = default_grid(NUMEROV_MODEL, 40.0, UNIT)


@pytest.mark.parametrize(
    "route, model, energies, expected",
    [
        (lambda m, E, c: reflection_closed_form(m, E, c), HO, HO_ENERGIES,
         {"ReflectionResult", "DomainError"}),
        *(
            (lambda m, E, c, r=route, q=quad: r(m, E, c, q), HO, HO_ENERGIES, kinds)
            for route in (reflection_contour_ll, reflection_momentum_space)
            for quad, kinds in (
                (wkb_reflection.DEFAULT_QUADRATURE, {"ReflectionResult", "DomainError"}),
                (ONE_LEVEL, {"ConvergenceError", "DomainError"}),
            )
        ),
        (lambda m, E, c: numerov_reflection(m, E, c, NUMEROV_GRID), NUMEROV_MODEL,
         [1.0, 14.0, 0.0, 40.0, -1.0, 2.0],
         {"ReflectionResult", "DomainError", "ConvergenceError"}),
    ],
    ids=["closed", "contour", "contour-one-level", "momentum", "momentum-one-level",
         "numerov"],
)
def test_rows_match_the_scalar_calls(route, model, energies, expected):
    rows = route(model, energies, UNIT)
    assert isinstance(rows, Rows)
    assert len(rows) == len(energies)
    kinds = set()
    for i, (E, got) in enumerate(zip(energies, rows)):
        want = _scalar_outcome(route, model, E, UNIT)
        _same_outcome(rows[i], want)
        _same_outcome(got, want)
        printed = (rows.log_prob[i], rows.prob[i], rows.err_estimate[i])
        assert repr(printed) == repr(_printed(want))
        kinds.add(type(want).__name__)
    assert kinds == expected
    _same_outcome(rows[-1], rows[len(rows) - 1])
    sliced = rows[1::2]
    assert isinstance(sliced, list) and len(sliced) == len(range(1, len(rows), 2))
    for got, want in zip(sliced, list(rows)[1::2]):
        _same_outcome(got, want)
    assert set(rows.flagged) == {
        i for i, r in enumerate(rows) if isinstance(r, SemirefError)}
    if model is HO and "ReflectionResult" in expected:
        assert str(rows[3]).startswith("probability underflows double precision")


class TestFromOutcomes:
    def test_columns_flags_and_messages(self):
        # One outcome of each kind; a pair that fails a check is flagged
        # with the message ReflectionResult.from_log raises for it.  A
        # ConvergenceError whose best is -inf (an exponent that overflowed at
        # every level) is judged as that value: an underflow.
        method = Method.MOMENTUM_QUADRATURE
        pairs = {1: (-800.0, 0.0), 2: (0.5, 0.0), 3: (math.nan, 0.0), 4: (-1.0, -1.0)}
        errors = {
            5: ConvergenceError("below", best=-3.0, err_estimate=0.25),
            6: ConvergenceError("above", best=0.5, err_estimate=2.0),
            7: ConvergenceError("no best"),
            8: DomainError("domain"),
            9: ConvergenceError("underflows", best=-800.0, err_estimate=1.0),
        }
        overflowed = ConvergenceError("overflowed", best=-math.inf, err_estimate=math.nan)
        outcomes = [(-2.0, 1e-12), *pairs.values(), *errors.values(), overflowed]
        energy = [float(i + 1) for i in range(len(outcomes))]
        rows = Rows.from_outcomes(energy, method, outcomes)
        nan = math.nan
        assert repr(rows.log_prob) == repr(
            [-2.0, nan, nan, nan, nan, -3.0, 0.5, nan, nan, -800.0, nan])
        assert repr(rows.prob) == repr(
            [math.exp(-2.0), nan, nan, nan, nan, math.exp(-3.0), 1.0, nan, nan, nan, nan])
        assert repr(rows.err_estimate) == repr(
            [1e-12, nan, nan, nan, nan, 0.25, 2.0, nan, nan, 1.0, nan])
        assert rows.energy == energy and rows.method is method
        assert rows[0] == ReflectionResult.from_log(1.0, -2.0, method, 1e-12)
        assert set(rows.flagged) == set(range(1, len(outcomes)))
        for i, exc in errors.items():
            assert rows.flagged[i] is exc
        for i, (log_prob, err) in pairs.items():
            with pytest.raises(DomainError) as excinfo:
                ReflectionResult.from_log(energy[i], log_prob, method, err)
            assert type(rows.flagged[i]) is DomainError
            assert str(rows.flagged[i]) == str(excinfo.value)
        assert type(rows.flagged[10]) is DomainError
        assert str(rows.flagged[10]) == (
            "probability underflows double precision (log_prob=-inf)")


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
