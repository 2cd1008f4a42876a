import functools
import math
import random

import numpy as np
import pytest

from semiref import (
    ConvergenceError,
    DomainError,
    Method,
    PhysicalConstants,
    PotentialModel,
    ScatteringGrid,
    default_grid,
    exact_ho_reflection,
    numerov_reflection,
    reflection_closed_form,
    v,
)
from semiref.scattering_oracle import _companion_product, _ordered_product, _unitarity_defect

UNIT = PhysicalConstants()

SECH2 = PotentialModel.sech2(10.0, 2.0)
LOR = PotentialModel.lorentzian(10.0, 2.0)

# Regression values from the oracle itself on the default grid.
SECH2_E1_LN = -2.8881529511338284
LOR_E1_LN = -2.9059757949548612


def sech2_exact_ln_refl(E, v0, a, mass=1.0, hbar=1.0):
    """ln|R|^2 for V = -v0 tanh^2(x/a) (Landau & Lifshitz, QM section 25):
    R = cosh^2 c / (sinh^2 b + cosh^2 c), b = pi k a,
    c = pi sqrt(2 m v0 a^2 / hbar^2 - 1/4), evaluated in logs."""
    k = math.sqrt(2.0 * mass * (E + v0)) / hbar
    b = math.pi * k * a
    c = math.pi * math.sqrt(2.0 * mass * v0 * a * a / hbar**2 - 0.25)
    ln_cosh_c = c + math.log1p(math.exp(-2.0 * c)) - math.log(2.0)
    ln_sinh_b = b + math.log1p(-math.exp(-2.0 * b)) - math.log(2.0)
    return 2.0 * ln_cosh_c - 2.0 * ln_sinh_b - math.log1p(
        math.exp(2.0 * (ln_cosh_c - ln_sinh_b))
    )


def sequential_run(model, E, x_max, h, consts=UNIT):
    """ln R of one Numerov run as a plain step-by-step recurrence.

    Points x_j = -x_max + j h up to x_max + h; an outgoing discrete plane
    wave (1, e^{i q h}) at (x_max, x_max + h) is carried down with
    psi_{i-1} = ((12 - 10 f_i) psi_i - f_{i+1} psi_{i+1}) / f_{i-1}, and the
    pair at (-x_max, -x_max + h) is split into e^{+-i q j h}.  Each edge's q
    solves cos(q h) = (12 - 10 f)/(2 f) at its edge point.
    """
    n = round(2.0 * x_max / h)
    x = -x_max + h * np.arange(n + 2)
    c = 2.0 * consts.mass / consts.hbar**2 * h * h / 12.0
    f = [(E - vx) * c + 1.0 for vx in v(model, x).tolist()]
    th_r = 2.0 * math.asin(math.sqrt(3.0 * (f[n] - 1.0) / f[n]))
    th_l = 2.0 * math.asin(math.sqrt(3.0 * (f[0] - 1.0) / f[0]))
    psi_mid, psi_hi = 1.0 + 0j, complex(math.cos(th_r), math.sin(th_r))
    for i in range(n, 0, -1):
        psi_new = ((12.0 - 10.0 * f[i]) * psi_mid - f[i + 1] * psi_hi) / f[i - 1]
        psi_hi, psi_mid = psi_mid, psi_new
    r = complex(math.cos(th_l), math.sin(th_l))
    return math.log(abs(psi_mid * r - psi_hi) ** 2 / abs(psi_hi - psi_mid / r) ** 2)


def sequential_numerov_ln_refl(model, E, consts=UNIT):
    """The Numerov oracle's value on the default grid, from sequential runs:
    the fine run over [-X, X] plus the change of the run at twice the step
    when its window doubles from X to 2X."""
    grid = default_grid(model, E, consts)
    X, h = grid.x_max, grid.step
    return (sequential_run(model, E, X, h, consts)
            + sequential_run(model, E, 2.0 * X, 2.0 * h, consts)
            - sequential_run(model, E, X, 2.0 * h, consts))


PRODUCT_LENGTHS = sorted(
    set(range(1, 18)) | {2**j + s for j in range(5, 11) for s in (-1, 1)}
)


def _random_stack(rng, m, dtype):
    """m non-commuting 2x2 matrices: random rotations plus a random 10% part.

    Like Numerov transfer matrices they neither blow up nor collapse, so the
    product's rounding error stays at the level of its own magnitude.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi, m)
    c, s = np.cos(theta), np.sin(theta)
    mats = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    mats = mats + 0.1 * rng.uniform(-1.0, 1.0, (m, 2, 2))
    if dtype is complex:
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (m, 1, 1)))
        mats = phase * mats + 0.1j * rng.uniform(-1.0, 1.0, (m, 2, 2))
    return mats


class TestOrderedProduct:
    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    @pytest.mark.parametrize("m", PRODUCT_LENGTHS)
    def test_matches_sequential_matmul(self, m, dtype):
        rng = np.random.default_rng(1000 + m)
        mats = _random_stack(rng, m, dtype)
        expected = functools.reduce(np.matmul, mats)
        got = _ordered_product(
            mats[:, 0, 0].copy(), mats[:, 0, 1].copy(),
            mats[:, 1, 0].copy(), mats[:, 1, 1].copy(),
        )
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(np.array(got).reshape(2, 2) - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("m", PRODUCT_LENGTHS)
    def test_companion_matches_sequential_matmul(self, m):
        # Numerov steps [[1, 1], [1, 0]] [[m_i, 1], [1, 0]] with
        # m_i = 2 cos(theta_i) - 2 and a jittered theta_i; a wider spread
        # localises the product and it blows up.
        rng = np.random.default_rng(2000 + m)
        coef = 2.0 * np.cos(rng.uniform(0.9, 1.1, m)) - 2.0
        mats = np.zeros((2 * m, 2, 2))
        mats[:, 0, 1] = mats[:, 1, 0] = 1.0
        mats[0::2, 0, 0] = 1.0
        mats[1::2, 0, 0] = coef
        expected = functools.reduce(np.matmul, mats)
        got = np.array(_companion_product(coef), dtype=float).reshape(2, 2)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_companion_product_by_columns(self):
        # A stack of columns gives one product per column.
        rng = np.random.default_rng(3000)
        coef = 2.0 * np.cos(rng.uniform(0.9, 1.1, (37, 5))) - 2.0
        got = np.array(_companion_product(coef))
        for j in range(5):
            assert np.array_equal(got[:, j], np.array(_companion_product(coef[:, j].copy())))


class TestExactHO:
    def test_half_at_zero_energy(self):
        assert exact_ho_reflection(0.0, UNIT, 1.0).prob == pytest.approx(0.5)

    def test_unit_energy_value(self):
        res = exact_ho_reflection(1.0, UNIT, 1.0)
        assert res.prob == pytest.approx(1.8639e-3, rel=1e-4)
        assert res.method is Method.EXACT_HO

    def test_below_barrier_energy_allowed(self):
        res = exact_ho_reflection(-1.0, UNIT, 1.0)
        assert 0.5 < res.prob < 1.0

    @pytest.mark.parametrize("E", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_ratio_identity_to_closed_form(self, E):
        exact = exact_ho_reflection(E, UNIT, 1.0)
        wkb = reflection_closed_form(PotentialModel.inverse_ho(1.0), E, UNIT)
        s = 2.0 * math.pi * E
        ratio = exact.prob / wkb.prob
        assert abs(ratio - 1.0 / (1.0 + math.exp(-s))) <= 1e-12
        assert exact.prob < wkb.prob

    def test_omega_underflow_is_a_domain_error(self):
        # omega = sqrt(alpha/m) underflows to 0; s = 2 pi E / (hbar omega)
        # is still formed, and exp(-s) underflows.
        consts = PhysicalConstants(mass=1e300)
        with pytest.raises(DomainError, match=r"\(log_prob=-6.28319e\+300\)"):
            exact_ho_reflection(1.0, consts, 1e-300)
        assert exact_ho_reflection(0.0, consts, 1e-300).prob == pytest.approx(0.5)

    def test_high_energy_ratio_tends_to_one(self):
        exact = exact_ho_reflection(5.0, UNIT, 1.0)
        wkb = reflection_closed_form(PotentialModel.inverse_ho(1.0), 5.0, UNIT)
        assert abs(exact.prob / wkb.prob - 1.0) <= 1e-12


class TestNumerov:
    @pytest.mark.parametrize("model", [SECH2, LOR], ids=["sech2", "lorentzian"])
    def test_matches_sequential_recurrence(self, model):
        res = numerov_reflection(model, 1.0, UNIT)
        reference = sequential_numerov_ln_refl(model, 1.0)
        assert res.log_prob == pytest.approx(reference, rel=1e-9)

    def test_free_particle_does_not_reflect(self):
        model = PotentialModel.sech2(1e-12, 1.0)
        res = numerov_reflection(model, 1.0, UNIT)
        assert res.prob <= 1e-8

    def test_sech2_matches_analytic_scattering(self):
        res = numerov_reflection(SECH2, 1.0, UNIT)
        exact = sech2_exact_ln_refl(1.0, 10.0, 2.0)
        assert res.log_prob == pytest.approx(exact, abs=1e-5)
        assert abs(res.log_prob - exact) <= res.err_estimate

    def test_sech2_regression_and_wkb_window(self):
        res = numerov_reflection(SECH2, 1.0, UNIT)
        assert res.log_prob == pytest.approx(SECH2_E1_LN, rel=1e-6)
        wkb = reflection_closed_form(SECH2, 1.0, UNIT)
        assert abs(res.log_prob - wkb.log_prob) / abs(wkb.log_prob) <= 0.10

    def test_lorentzian_regression_and_wkb_window(self):
        res = numerov_reflection(LOR, 1.0, UNIT)
        assert res.log_prob == pytest.approx(LOR_E1_LN, rel=1e-6)
        wkb = reflection_closed_form(LOR, 1.0, UNIT)
        assert abs(res.log_prob - wkb.log_prob) / abs(wkb.log_prob) <= 0.10

    @pytest.mark.parametrize("model", [SECH2, LOR], ids=["sech2", "lorentzian"])
    def test_unitarity(self, model):
        # |R + T - 1| of the runs themselves, with T from the conserved flux.
        assert _unitarity_defect(model, 1.0, UNIT) <= 1e-6
        assert numerov_reflection(model, 1.0, UNIT).err_estimate <= 1e-6

    def test_grid_convergence_on_halving(self):
        grid = default_grid(SECH2, 1.0, UNIT)
        halved = ScatteringGrid(x_max=grid.x_max, dx=0.5 * grid.dx)
        coarse = numerov_reflection(SECH2, 1.0, UNIT, grid)
        fine = numerov_reflection(SECH2, 1.0, UNIT, halved)
        rel_change = abs(coarse.log_prob - fine.log_prob) / abs(fine.log_prob)
        assert rel_change < 1e-4
        assert abs(coarse.log_prob - fine.log_prob) <= coarse.err_estimate

    def test_semiclassical_trend_in_hbar(self):
        discrepancies = []
        for hbar in (1.0, 0.5, 0.25):
            consts = PhysicalConstants(hbar=hbar)
            oracle = numerov_reflection(SECH2, 1.0, consts)
            wkb = reflection_closed_form(SECH2, 1.0, consts)
            discrepancies.append(
                abs(oracle.log_prob - wkb.log_prob) / abs(wkb.log_prob)
            )
        assert discrepancies[0] > discrepancies[1] > discrepancies[2]

    def test_rejects_inverse_ho(self):
        with pytest.raises(DomainError):
            numerov_reflection(PotentialModel.inverse_ho(1.0), 1.0, UNIT)

    @pytest.mark.parametrize("E", [0.0, -1.0])
    def test_scalar_nonpositive_energy_raises(self, E):
        with pytest.raises(DomainError, match="E must be positive"):
            numerov_reflection(SECH2, E, UNIT)

    def test_rejects_under_resolved_step(self):
        grid = ScatteringGrid(x_max=24.0, dx=0.5)
        with pytest.raises(DomainError):
            numerov_reflection(SECH2, 1.0, UNIT, grid)

    def test_rejects_short_window(self):
        grid = ScatteringGrid(x_max=3.0, dx=0.01)
        with pytest.raises(DomainError):
            numerov_reflection(SECH2, 1.0, UNIT, grid)

    def test_deep_row_is_flagged(self):
        # ln R = -69.55 here; the oracle's rounding and step limits put it
        # out of reach, so it must not pass off -36 or -52 as an answer.
        with pytest.raises(ConvergenceError) as info:
            numerov_reflection(SECH2, 40.0, UNIT)
        assert info.value.best is not None
        assert info.value.err_estimate > 1e-6

    def test_rows_below_the_rounding_floor_are_bounded_in_r(self):
        # sech2 (10, 2): ln R = -2.9, -31.0, -52.0, -69.6.  Rounding puts
        # ~1e-7, ~4e-5 and ~1 on ln R at 14, 27 and 40.  14 is resolved to
        # the bound; 27 lies below the rounding floor and comes back with
        # its estimate on ln R, which holds; 40 is noise and is flagged.
        energies = [1.0, 14.0, 27.0, 40.0]
        out = numerov_reflection(SECH2, energies, UNIT)
        for E, res in zip(energies[:3], out):
            assert abs(res.log_prob - sech2_exact_ln_refl(E, 10.0, 2.0)) <= res.err_estimate
        assert out[1].err_estimate <= 1e-6
        assert 1e-6 < out[2].err_estimate < 1.0
        assert out[2].prob <= 1e-22
        assert isinstance(out[3], ConvergenceError)
        assert out[3].err_estimate == math.inf

    def test_window_doubles_until_its_term_fits(self):
        # Lorentzian (10, 2) at E = 2 and hbar/2: doubling 192a moves ln R by
        # ~8.5e-7, doubling 384a by ~1.4e-7.  The result must come from the
        # wider window, with an estimate under the bound.
        half = PhysicalConstants(hbar=0.5)
        res = numerov_reflection(LOR, 2.0, half)
        grid = default_grid(LOR, 2.0, half)
        wide = ScatteringGrid(x_max=2.0 * grid.x_max, dx=grid.dx)
        assert res.err_estimate <= 1e-6
        assert res.log_prob == pytest.approx(
            numerov_reflection(LOR, 2.0, half, wide).log_prob, abs=1e-10)

    def test_batched_energies_equal_single_runs(self):
        energies = [0.5, 0.75, 1.0, 1.5, 2.0]
        grid = default_grid(SECH2, 2.0, UNIT)
        batch = numerov_reflection(SECH2, energies, UNIT, grid)
        singles = [numerov_reflection(SECH2, E, UNIT, grid) for E in energies]
        assert batch == singles
        # Default grids: each energy alone gets its own step, the batch the
        # step of its largest k; they agree within their estimates.
        batch = numerov_reflection(SECH2, energies, UNIT)
        for E, res in zip(energies, batch):
            single = numerov_reflection(SECH2, E, UNIT)
            assert res.energy == E
            assert abs(res.log_prob - single.log_prob) <= res.err_estimate + single.err_estimate

    def test_batch_keeps_order_and_reports_each_failure(self):
        energies = [40.0, 1.0, -1.0, 2.0, 20.0]
        out = numerov_reflection(SECH2, energies, UNIT)
        assert isinstance(out[0], ConvergenceError)
        assert isinstance(out[2], DomainError)
        # E = 20 lies below the rounding floor: returned, bounded in R.
        assert [r.energy for r in (out[1], out[3], out[4])] == [1.0, 2.0, 20.0]
        assert out[4].err_estimate > 1e-6
        # 1, 2 and 20 share the grid of 20, which k(20) < 2 k(1) allows.
        shared = default_grid(SECH2, 20.0, UNIT)
        assert out[1] == numerov_reflection(SECH2, 1.0, UNIT, shared)

    def test_energies_group_by_wavenumber(self, monkeypatch):
        # k spans 2.4x, so the energies run on two grids, each no more than
        # 2x finer than a member's own k needs.
        import semiref.scattering_oracle as so

        model = PotentialModel.sech2(1.0, 0.5)
        energies = [0.5, 8.0, 1.0, 2.0, 4.0]
        groups = []
        solve = so._solve
        monkeypatch.setattr(
            so, "_solve", lambda m, es, c, g: groups.append((list(es), g)) or solve(m, es, c, g))
        out = numerov_reflection(model, energies, UNIT)
        assert len(groups) == 2
        assert sorted(E for es, _ in groups for E in es) == sorted(energies)
        for es, grid in groups:
            for E in es:
                own = default_grid(model, E, UNIT)
                assert own.dx / 2.0 <= grid.dx <= own.dx
        for E, res in zip(energies, out):
            single = numerov_reflection(model, E, UNIT)
            assert res.energy == E
            assert abs(res.log_prob - single.log_prob) <= res.err_estimate + single.err_estimate


class TestErrorEstimate:
    """Over oracle-check's ranges (v0 5-20, a 1-3, E 0.5-2, hbar = m = 1)
    the estimate is never below the actual error."""

    def test_sech2_against_exact_formula(self):
        rng = random.Random(20091023)
        worst = math.inf
        for _ in range(12):
            v0, a = rng.uniform(5.0, 20.0), rng.uniform(1.0, 3.0)
            energies = [rng.uniform(0.5, 2.0) for _ in range(8)]
            for E, res in zip(energies, numerov_reflection(
                    PotentialModel.sech2(v0, a), energies, UNIT)):
                err = abs(res.log_prob - sech2_exact_ln_refl(E, v0, a))
                assert err <= res.err_estimate <= 1e-6
                worst = min(worst, res.err_estimate / max(err, 1e-300))
        print(f"smallest estimate / error: {worst:.3g}")

    def test_sech2_deep_rows_against_exact_formula(self):
        # E up to 30 takes ln R down to ~-75, through the rounding floor.
        # Every row that comes back is within its estimate; a row with an
        # estimate above 1e-6 lies below the floor, with R under 1e-12.
        rng = random.Random(20091025)
        returned = 0
        for _ in range(6):
            v0, a = rng.uniform(5.0, 20.0), rng.uniform(1.0, 3.0)
            energies = [rng.uniform(0.5, 30.0) for _ in range(8)]
            for E, res in zip(energies, numerov_reflection(
                    PotentialModel.sech2(v0, a), energies, UNIT)):
                if isinstance(res, ConvergenceError):
                    continue
                returned += 1
                assert abs(res.log_prob - sech2_exact_ln_refl(E, v0, a)) <= res.err_estimate
                assert res.err_estimate <= 1e-6 or res.prob < 1e-12
        assert returned >= 30

    def test_lorentzian_against_longer_finer_run(self):
        rng = random.Random(20091024)
        points = [(10.0, 2.0, 1.0), (20.0, 3.0, 2.0)] + [
            (rng.uniform(5.0, 20.0), rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0))
            for _ in range(3)
        ]
        for v0, a, E in points:
            model = PotentialModel.lorentzian(v0, a)
            res = numerov_reflection(model, E, UNIT)
            grid = default_grid(model, E, UNIT)
            ref = numerov_reflection(
                model, E, UNIT, ScatteringGrid(x_max=4.0 * grid.x_max, dx=0.5 * grid.dx))
            assert abs(res.log_prob - ref.log_prob) <= res.err_estimate <= 1e-6


class TestGrid:
    def test_default_grid_resolves_wave_and_tail(self):
        grid = default_grid(LOR, 2.0, UNIT)
        k = math.sqrt(2.0 * (2.0 + LOR.v0))
        assert k * grid.step <= 0.05 + 1e-12
        assert grid.n_points == 4 * grid.quarter + 1
        assert grid.quarter % grid.segment == 0
        # The tail is long enough when a window four times as long moves
        # ln R by no more than the estimate, itself within the bound.
        res = numerov_reflection(LOR, 2.0, UNIT)
        longer = numerov_reflection(
            LOR, 2.0, UNIT, ScatteringGrid(x_max=4.0 * grid.x_max, dx=grid.dx))
        assert abs(res.log_prob - longer.log_prob) <= res.err_estimate <= 1e-6

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            ScatteringGrid(x_max=-1.0, dx=0.1)
        with pytest.raises(DomainError):
            ScatteringGrid(x_max=1.0, dx=2.0)
        with pytest.raises(DomainError):
            ScatteringGrid(x_max=1e9, dx=1e-3)
