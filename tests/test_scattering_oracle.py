import cmath
import functools
import math

import numpy as np
import pytest

from semiref import (
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
from semiref.scattering_oracle import _companion_product, _ordered_product

UNIT = PhysicalConstants()

SECH2 = PotentialModel.sech2(10.0, 2.0)
LOR = PotentialModel.lorentzian(10.0, 2.0)

# Regression values from the oracle itself on the default grid.
SECH2_E1_LN = -2.8881529511338284
LOR_E1_LN = -2.9059757949548612


def sech2_exact_ln_refl(E, v0, a, mass=1.0, hbar=1.0):
    """Known closed form for scattering off a sech^2 bump on a flat floor."""
    k = math.sqrt(2.0 * mass * (E + v0)) / hbar
    b = math.pi * k * a
    c = math.pi * math.sqrt(2.0 * mass * v0 * a * a / hbar**2 - 0.25)
    x = 2.0 * (b - c)
    return -(x + math.log1p(math.exp(-x)))


def sequential_numerov_ln_refl(model, E, consts=UNIT):
    """The Numerov oracle as a plain step-by-step recurrence on the default grid.

    psi_{i-1} = ((12 - 10 f_i) psi_i - f_{i+1} psi_{i+1}) / f_{i-1}, run from
    the outgoing wave at the right edge down to the left edge.
    """
    grid = default_grid(model, E, consts)
    n = grid.n_points
    x = np.linspace(-grid.x_max, grid.x_max, n)
    dx = x[1] - x[0]
    k = math.sqrt(2.0 * consts.mass * (E + model.v0)) / consts.hbar
    gsq = (2.0 * consts.mass / consts.hbar**2) * (E - v(model, x))
    f = (1.0 + (dx * dx / 12.0) * gsq).tolist()
    psi_hi = cmath.exp(1j * k * x[-1])
    psi_mid = cmath.exp(1j * k * x[-2])
    for i in range(n - 2, 0, -1):
        psi_new = ((12.0 - 10.0 * f[i]) * psi_mid - f[i + 1] * psi_hi) / f[i - 1]
        psi_hi, psi_mid = psi_mid, psi_new
    psi0, psi1 = psi_mid, psi_hi
    r = cmath.exp(1j * k * dx)
    a_inc = (psi1 - psi0 / r) / (r - 1.0 / r)
    b_ref = (psi0 * r - psi1) / (r - 1.0 / r)
    return math.log(abs(b_ref) ** 2 / abs(a_inc) ** 2)


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
        rng = np.random.default_rng(2000 + m)
        # Numerov-like steps [[2 cos(q dx), -1], [1, 0]] with a jittered
        # q dx; a wider spread localises the product and it blows up.
        a = 2.0 * np.cos(rng.uniform(0.9, 1.1, m))
        b = -1.0 + 0.01 * rng.uniform(-1.0, 1.0, m)
        mats = np.zeros((m, 2, 2))
        mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0] = a, b, 1.0
        expected = functools.reduce(np.matmul, mats)
        got = np.array(_companion_product(a, b), dtype=float).reshape(2, 2)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale


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
        res = numerov_reflection(model, 1.0, UNIT)
        assert res.err_estimate <= 1e-6

    def test_grid_convergence_on_halving(self):
        grid = default_grid(SECH2, 1.0, UNIT)
        halved = ScatteringGrid(
            x_max=grid.x_max, dx=0.5 * grid.dx, tail_tol=grid.tail_tol
        )
        coarse = numerov_reflection(SECH2, 1.0, UNIT, grid)
        fine = numerov_reflection(SECH2, 1.0, UNIT, halved)
        rel_change = abs(coarse.log_prob - fine.log_prob) / abs(fine.log_prob)
        assert rel_change < 1e-4

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

    def test_rejects_under_resolved_step(self):
        grid = ScatteringGrid(x_max=24.0, dx=0.5)
        with pytest.raises(DomainError):
            numerov_reflection(SECH2, 1.0, UNIT, grid)

    def test_rejects_short_window(self):
        grid = ScatteringGrid(x_max=3.0, dx=0.01)
        with pytest.raises(DomainError):
            numerov_reflection(SECH2, 1.0, UNIT, grid)


class TestGrid:
    def test_default_grid_resolves_wave_and_tail(self):
        grid = default_grid(LOR, 2.0, UNIT)
        v0 = LOR.v0
        k = math.sqrt(2.0 * (2.0 + v0))
        assert k * grid.dx <= 0.05 + 1e-12
        from semiref import v

        assert abs(v(LOR, grid.x_max) + v0) <= grid.tail_tol * v0

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            ScatteringGrid(x_max=-1.0, dx=0.1)
        with pytest.raises(DomainError):
            ScatteringGrid(x_max=1.0, dx=2.0)
        with pytest.raises(DomainError):
            ScatteringGrid(x_max=1.0, dx=0.1, tail_tol=2.0)
