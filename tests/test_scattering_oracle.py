import functools
import math
import random
import sys
import threading

import numpy as np
import pytest

from semiref import (
    ConvergenceError,
    CouplingSpec,
    CrossingProfile,
    DomainError,
    Method,
    PhysicalConstants,
    PotentialModel,
    ScatteringGrid,
    default_grid,
    evolve_tdse,
    exact_reflection,
    numerov_reflection,
    reflection_closed_form,
    v,
)
from semiref.scattering_oracle import (
    _PAIR, _companion_product, _mul2, _ordered_product, _reversed, _unitarity_defect)

UNIT = PhysicalConstants()

SECH2 = PotentialModel.sech2(10.0, 2.0)
LOR = PotentialModel.lorentzian(10.0, 2.0)
HO = PotentialModel.inverse_ho(1.0)

# ln R at E = 1 (hbar = m = 1).  sech2: the exact formula,
# exact_reflection(SECH2, 1, UNIT).  Lorentzian: the oracle converged in
# the window; its runs at 8, 16 and 32 times the default window agree to 7e-12.
SECH2_E1_LN = -2.888152906262777
LOR_E1_LN = -2.905975191081798


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


def sequential_ladder(model, E, X, h, consts=UNIT, halvings=0):
    """The Numerov oracle's value on window X and step h, halved
    ``halvings`` times (0 to 2), from sequential runs: the runs over
    [-X, X] at s, 2s and 4s for s = h / 2^halvings, each pair extrapolated
    as fine + (fine - coarse)/15, the two combined as R1(s) + (R1(s) -
    R1(2s))/63, plus the change of the h run when its window doubles to
    [-2X, 2X]."""
    s = h / 2**halvings
    runs = [sequential_run(model, E, X, t, consts) for t in (s, 2.0 * s, 4.0 * s)]
    fine, mid, coarse = runs
    upper = fine + (fine - mid) / 15.0
    lower = mid + (mid - coarse) / 15.0
    wide = sequential_run(model, E, 2.0 * X, h, consts)
    return upper + (upper - lower) / 63.0 + (wide - runs[halvings])


def outcome(res):
    """A row as a comparable value: a result as it is, a flagged row as its
    type, message, value and estimate."""
    if isinstance(res, ConvergenceError):
        return type(res), str(res), res.best, res.err_estimate
    return res


def sequential_numerov_ln_refl(model, E, consts=UNIT):
    """The Numerov oracle's value on the default grid, from sequential runs."""
    grid = default_grid(model, E, consts)
    return sequential_ladder(model, E, grid.x_max, grid.step, consts)


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

    @pytest.mark.parametrize("m", PRODUCT_LENGTHS)
    def test_reversed_companion_product(self, m):
        # The steps [[1 + m_i, 1], [m_i, 1]] multiplied in reverse order,
        # M_m ... M_1, come from the forward product alone.
        rng = np.random.default_rng(4000 + m)
        coef = 2.0 * np.cos(rng.uniform(0.9, 1.1, m)) - 2.0
        expected = functools.reduce(
            np.matmul, [np.array([[1.0 + x, 1.0], [x, 1.0]]) for x in coef[::-1]])
        got = np.array(_reversed(_companion_product(coef)), dtype=float).reshape(2, 2)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale

    def test_companion_product_by_columns(self):
        # A stack of columns gives one product per column.
        rng = np.random.default_rng(3000)
        coef = 2.0 * np.cos(rng.uniform(0.9, 1.1, (37, 5))) - 2.0
        got = np.array(_companion_product(coef))
        for j in range(5):
            assert np.array_equal(got[:, j], np.array(_companion_product(coef[:, j].copy())))

    @pytest.mark.parametrize("m", [1, 2, 37])
    def test_results_outlive_the_work_arrays(self, m):
        # A real column stack, a complex stack and a longer real column
        # stack run through the same per-thread work arrays (the last one
        # grows the real array); each result is bit for bit the
        # level-by-level product of fresh arrays, and none is overwritten by
        # a later call.
        rng = np.random.default_rng(5000 + m)
        real = np.stack([_random_stack(rng, m, float) for _ in range(2)], axis=1)
        cplx = _random_stack(rng, 2 * m + 1, complex)
        cols = np.stack([_random_stack(rng, 4 * m + 3, float) for _ in range(3)], axis=1)
        first = _ordered_product(*_entries(real))
        kept = [x.copy() for x in first]
        for mats, got in ((real, first),
                          (cplx, _ordered_product(*_entries(cplx))),
                          (cols, _ordered_product(*_entries(cols)))):
            expected = functools.reduce(np.matmul, mats)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(np.array(got) - _entries(expected))) <= 1e-12 * scale
            assert all(np.array_equal(x, y) for x, y in zip(got, _fresh_product(*_entries(mats))))
        assert all(np.array_equal(x, y) for x, y in zip(first, kept))

    @pytest.mark.parametrize("m", [1, 2, 37])
    def test_pair_product_matches_the_matrix_product(self, m):
        # An SU(2) stack held as pairs (a, b) multiplies to the pair of the
        # complex 2x2 product of the same stack held as four entries.
        a, b = _random_pairs(np.random.default_rng(6000 + m), m)
        got_a, got_b = _ordered_product(a, b, rule=_PAIR)
        p00, p01, p10, p11 = _fresh_product(a, b, -np.conj(b), np.conj(a))
        assert abs(got_a - p00) <= 1e-13 and abs(got_b - p01) <= 1e-13
        assert abs(-np.conj(got_b) - p10) <= 1e-13 and abs(np.conj(got_a) - p11) <= 1e-13
        assert abs(abs(got_a) ** 2 + abs(got_b) ** 2 - 1.0) <= 1e-13

    @pytest.mark.parametrize("m", [1, 2, 37])
    def test_pair_results_outlive_the_work_arrays(self, m):
        # A pair stack, a longer pair stack and a four-entry complex stack
        # run through the same complex work array; the first result is not
        # overwritten by the later calls.
        rng = np.random.default_rng(7000 + m)
        first = _ordered_product(*_random_pairs(rng, m), rule=_PAIR)
        kept = [x.copy() for x in first]
        _ordered_product(*_random_pairs(rng, 64 * m + 3), rule=_PAIR)
        _ordered_product(*_entries(_random_stack(rng, 2 * m + 1, complex)))
        assert all(np.array_equal(x, y) for x, y in zip(first, kept))


def _random_pairs(rng, m):
    """Pairs (a, b) of m random SU(2) matrices [[a, b], [-conj(b), conj(a)]]."""
    theta = rng.uniform(0.0, 0.5 * math.pi, m)
    alpha, beta = rng.uniform(0.0, 2.0 * math.pi, (2, m))
    return np.cos(theta) * np.exp(1j * alpha), np.sin(theta) * np.exp(1j * beta)


def _entries(mats):
    """The four entry arrays of a stack of 2x2 matrices in its last two axes."""
    return mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]


def _fresh_product(a, b, c, d):
    """``_ordered_product``'s pairing with a fresh array for every entry."""
    tail = (1.0, 0.0, 0.0, 1.0)
    while len(a) > 1:
        if len(a) % 2:
            tail = _mul2((a[-1], b[-1], c[-1], d[-1]), tail)
            a, b, c, d = a[:-1], b[:-1], c[:-1], d[:-1]
        a, b, c, d = _mul2((a[0::2], b[0::2], c[0::2], d[0::2]),
                           (a[1::2], b[1::2], c[1::2], d[1::2]))
    return _mul2((a[0], b[0], c[0], d[0]), tail)


def test_oracles_in_two_threads_match_serial_runs():
    # Each thread has its own work arrays: two threads, each running both
    # oracles (so the real and the complex array alike are in use in both
    # at once), give the serial results bit for bit.
    energies = [0.5, 1.0, 2.0]

    def both():
        numerov = numerov_reflection(SECH2, energies, UNIT)
        tdse = evolve_tdse(CrossingProfile.linear(2.0), CouplingSpec(1.0), UNIT)
        return [(r.log_prob, r.err_estimate) for r in (*numerov, tdse)]

    serial = both()
    start = threading.Barrier(2, timeout=60)
    results = [[], []]

    def worker(out):
        start.wait()
        out.extend(both() for _ in range(4))

    threads = [threading.Thread(target=worker, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[serial] * 4] * 2


class TestExactHO:
    def test_half_at_zero_energy(self):
        assert exact_reflection(HO, 0.0, UNIT).prob == pytest.approx(0.5)

    def test_unit_energy_value(self):
        res = exact_reflection(HO, 1.0, UNIT)
        assert res.prob == pytest.approx(1.8639e-3, rel=1e-4)
        assert res.method is Method.EXACT

    def test_below_barrier_energy_allowed(self):
        res = exact_reflection(HO, -1.0, UNIT)
        assert 0.5 < res.prob < 1.0

    @pytest.mark.parametrize("E", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_ratio_identity_to_closed_form(self, E):
        exact = exact_reflection(HO, E, UNIT)
        wkb = reflection_closed_form(PotentialModel.inverse_ho(1.0), E, UNIT)
        s = 2.0 * math.pi * E
        ratio = exact.prob / wkb.prob
        assert abs(ratio - 1.0 / (1.0 + math.exp(-s))) <= 1e-12
        assert exact.prob < wkb.prob

    def test_omega_underflow_is_a_domain_error(self):
        # omega = sqrt(alpha/m) underflows to 0; s = 2 pi E / (hbar omega)
        # is still formed, and exp(-s) underflows.
        consts, model = PhysicalConstants(mass=1e300), PotentialModel.inverse_ho(1e-300)
        with pytest.raises(DomainError, match=r"\(log_prob=-6.28319e\+300\)"):
            exact_reflection(model, 1.0, consts)
        assert exact_reflection(model, 0.0, consts).prob == pytest.approx(0.5)

    def test_high_energy_ratio_tends_to_one(self):
        exact = exact_reflection(HO, 5.0, UNIT)
        wkb = reflection_closed_form(PotentialModel.inverse_ho(1.0), 5.0, UNIT)
        assert abs(exact.prob / wkb.prob - 1.0) <= 1e-12


class TestExactSech2:
    @pytest.mark.parametrize("E, v0, a, hbar", [
        (1.0, 10.0, 2.0, 1.0), (0.5, 5.0, 1.0, 1.0), (30.0, 10.0, 2.0, 1.0),
        (1.0, 10.0, 2.0, 0.5), (2.0, 1.0, 1.0, 1.0), (-0.5, 1.0, 1.0, 1.0),
    ])
    def test_matches_the_test_formula(self, E, v0, a, hbar):
        res = exact_reflection(PotentialModel.sech2(v0, a), E, PhysicalConstants(hbar=hbar))
        assert res.method is Method.EXACT
        assert res.log_prob == pytest.approx(sech2_exact_ln_refl(E, v0, a, hbar=hbar), rel=1e-14)

    @pytest.mark.parametrize("E, v0, a, hbar", [
        (1.0, 10.0, 2.0, 1.0), (400.0, 10.0, 2.0, 1.0), (1e-3, 1.0, 1.0, 1.0),
        (-0.9, 1.0, 1.0, 1.0), (1.0, 0.05, 1.0, 1.0), (1.0, 0.1249, 1.0, 1.0),
        (1.0, 1e-20, 1.0, 1.0), (2.0, 1.0, 3.0, 0.1),
    ])
    def test_matches_mpmath(self, E, v0, a, hbar):
        # Both branches (2 m v0 a^2 / hbar^2 above and below 1/4) against
        # the formula in 50-digit arithmetic.
        import mpmath as mp
        with mp.workdps(50):
            b = mp.pi * a * mp.sqrt(2 * (mp.mpf(E) + v0)) / hbar
            ell = 2 * mp.mpf(v0) * a * a / hbar**2
            top = (mp.cosh(mp.pi * mp.sqrt(ell - 0.25)) if ell >= 0.25
                   else mp.cos(mp.pi * mp.sqrt(0.25 - ell)))
            expected = float(mp.log(top**2 / (mp.sinh(b) ** 2 + top**2)))
        res = exact_reflection(PotentialModel.sech2(v0, a), E, PhysicalConstants(hbar=hbar))
        assert res.log_prob == pytest.approx(expected, rel=1e-13)

    def test_bad_input_is_a_domain_error(self):
        # Bad parameters fail where the model is built; E at or below the
        # tails fails in the formula.
        for v0, a in ((0.0, 1.0), (1.0, -1.0)):
            with pytest.raises(DomainError, match="must be positive and finite"):
                PotentialModel.sech2(v0, a)
        with pytest.raises(DomainError, match=r"E > -v0"):
            exact_reflection(PotentialModel.sech2(1.0, 1.0), -1.0, UNIT)


class TestExactReflection:
    @pytest.mark.parametrize("model", [HO, SECH2], ids=["inverse_ho", "sech2"])
    def test_tags_both_families_exact(self, model):
        assert exact_reflection(model, 1.0, UNIT).method is Method.EXACT
        assert [m for m in Method if m.value.startswith("exact")] == [Method.EXACT]

    def test_lorentzian_points_to_the_numerov_oracle(self):
        with pytest.raises(DomainError, match="numerov_reflection"):
            exact_reflection(LOR, 1.0, UNIT)


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
        with pytest.raises(DomainError, match="use exact_reflection"):
            numerov_reflection(HO, 1.0, UNIT)

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

    def test_window_doubles_until_its_term_fits(self, monkeypatch):
        # Lorentzian (10, 2) at E = 2 and hbar/2: the h run's ln R spreads
        # over ~9.3e-7 across the windows 192a-384a, and over ~1.9e-7
        # across 384a-768a.  The result must come from the wider window,
        # with an estimate under the bound; held at 192a, its window term
        # alone passes the 2.5e-7 tolerance.
        import semiref.scattering_oracle as so

        half = PhysicalConstants(hbar=0.5)
        res = numerov_reflection(LOR, 2.0, half)
        grid = default_grid(LOR, 2.0, half)
        wide = ScatteringGrid(x_max=2.0 * grid.x_max, dx=grid.dx)
        assert res.err_estimate <= 1e-6
        assert res.log_prob == pytest.approx(
            numerov_reflection(LOR, 2.0, half, wide).log_prob, abs=1e-10)
        monkeypatch.setattr(so, "_MAX_DOUBLINGS", 0)
        (held,) = numerov_reflection(LOR, [2.0], half)
        assert held.err_estimate > res.err_estimate + 2.5e-7

    def test_window_doubling_matches_sequential_recurrence(self):
        # The row above, from one window doubling, against full-window
        # sequential runs at 384a: the h, 2h and 4h runs over [-2X, 2X] and
        # the h run over [-4X, 4X], combined alike.
        half = PhysicalConstants(hbar=0.5)
        grid = default_grid(LOR, 2.0, half)
        reference = sequential_ladder(LOR, 2.0, 2.0 * grid.x_max, grid.step, half)
        res = numerov_reflection(LOR, 2.0, half)
        assert res.log_prob == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("model", [SECH2, LOR], ids=["sech2", "lorentzian"])
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_potential_is_even_on_the_grid(self, model, hbar):
        # Each run is built from its left half and that half mirrored, which
        # takes V(-x) = V(x) at every point, bit for bit: the points of the
        # h chain (the 2h and 4h rungs take every other and every fourth of
        # its inner half), those of the first two window doublings and those
        # of the first two step halvings.
        grid = default_grid(model, 1.0, PhysicalConstants(hbar=hbar))
        X, h, L = grid.x_max, grid.step, grid.quarter
        x = np.concatenate([
            -2.0 * X + h * np.arange(4 * L + 1),
            *(-4.0 * w + h * np.arange(4 * L * w / X + 1) for w in (X, 2.0 * X)),
            *(-2.0 * w + s * h * np.arange(2 * L * w / (s * X) + 1)
              for w in (X, 2.0 * X) for s in (2.0, 4.0)),
            *(-X + h / s * np.arange(2 * L * s + 1) for s in (2.0, 4.0)),
        ])
        assert np.array_equal(v(model, -x), v(model, x))

    def test_batched_energies_equal_single_runs(self):
        energies = [0.5, 0.75, 1.0, 1.5, 2.0]
        grid = default_grid(SECH2, 2.0, UNIT)
        batch = numerov_reflection(SECH2, energies, UNIT, grid)
        singles = [numerov_reflection(SECH2, E, UNIT, grid) for E in energies]
        assert list(batch) == singles
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
        # 2x finer than a member's own k needs, and only those two are built.
        import semiref.scattering_oracle as so

        model = PotentialModel.sech2(1.0, 0.5)
        energies = [0.5, 8.0, 1.0, 2.0, 4.0]
        groups, built = [], []
        solve, grid_of = so._solve, so.default_grid
        monkeypatch.setattr(
            so, "_solve", lambda m, es, c, g: groups.append((list(es), g)) or solve(m, es, c, g))
        monkeypatch.setattr(
            so, "default_grid", lambda m, E, c: built.append(E) or grid_of(m, E, c))
        out = numerov_reflection(model, energies, UNIT)
        assert len(groups) == 2
        assert sorted(built) == [4.0, 8.0]
        assert sorted(E for es, _ in groups for E in es) == sorted(energies)
        for es, grid in groups:
            for E in es:
                own = default_grid(model, E, UNIT)
                assert own.dx / 2.0 <= grid.dx <= own.dx
        for E, res in zip(energies, out):
            single = numerov_reflection(model, E, UNIT)
            assert res.energy == E
            assert abs(res.log_prob - single.log_prob) <= res.err_estimate + single.err_estimate

    def test_band_flags_a_member_whose_grid_is_too_large(self, monkeypatch):
        # Under a cap of 1,440 points the grid of E = 8 (1,441 points) is too
        # large and that of E = 2 (1,185) fits: E = 8 is flagged, and the
        # rest of its band runs on the grid of E = 2.
        import semiref.scattering_oracle as so

        monkeypatch.setattr(so, "_MAX_POINTS", 1440)
        rows = list(numerov_reflection(SECH2, [2.0, 8.0, 1.0], UNIT))
        assert isinstance(rows[1], DomainError)
        assert str(rows[1]) == "grid of 1.44e+03 points is too large"
        alone = numerov_reflection(SECH2, [2.0, 1.0], UNIT, default_grid(SECH2, 2.0, UNIT))
        assert [outcome(rows[0]), outcome(rows[2])] == [outcome(r) for r in alone]


class TestHalving:
    """sech^2 (1, 1) at E 0.5-3 share the grid of E = 3, where the first
    ladder's step term exceeds the bound at E = 2.5 and 3."""

    MODEL = PotentialModel.sech2(1.0, 1.0)
    ENERGIES = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]

    def test_step_halves_until_the_estimate_fits(self, monkeypatch):
        import semiref.scattering_oracle as so

        for E, res in zip(self.ENERGIES, numerov_reflection(self.MODEL, self.ENERGIES, UNIT)):
            exact = exact_reflection(self.MODEL, E, UNIT).log_prob
            assert abs(res.log_prob - exact) <= res.err_estimate <= 1e-6
        monkeypatch.setattr(so, "_MAX_HALVINGS", 0)
        held = numerov_reflection(self.MODEL, self.ENERGIES, UNIT)
        assert [isinstance(r, ConvergenceError) for r in held] == [False] * 4 + [True] * 2

    def test_halved_row_matches_sequential_recurrence(self):
        # One halving: the runs at h/2, h and 2h over [-X, X], with the
        # window change the h run saw.
        grid = default_grid(self.MODEL, 3.0, UNIT)
        reference = sequential_ladder(self.MODEL, 3.0, grid.x_max, grid.step, halvings=1)
        res = numerov_reflection(self.MODEL, 3.0, UNIT)
        assert res.log_prob == pytest.approx(reference, rel=1e-9)

    def test_row_halved_after_a_doubling_matches_sequential_recurrence(self):
        # Lorentzian (1, 1) at E = 1 doubles its window once, then halves
        # its step once: the runs at h/2, h and 2h over [-2X, 2X], with the
        # change of the h run from [-2X, 2X] to [-4X, 4X].  Held at one
        # window or at one step, the row moves by 3e-9 or 2e-8 relative.
        model = PotentialModel.lorentzian(1.0, 1.0)
        grid = default_grid(model, 1.0, UNIT)
        reference = sequential_ladder(model, 1.0, 2.0 * grid.x_max, grid.step, halvings=1)
        res = numerov_reflection(model, 1.0, UNIT)
        assert res.log_prob == pytest.approx(reference, rel=1e-9)

    def test_size_caps_hold_rows_as_the_count_caps_do(self, monkeypatch):
        # With _MAX_POINTS at 6x the grid's quarter the grid fits, but a
        # window doubling (16x) and a step halving (8x) do not: the rows
        # come back as with no doubling or no halving allowed.
        import semiref.scattering_oracle as so

        def capped(model, energies, consts, cap):
            quarter = default_grid(model, max(energies), consts).quarter
            with monkeypatch.context() as m:
                m.setattr(so, cap, 0)
                held = numerov_reflection(model, energies, consts)
            with monkeypatch.context() as m:
                m.setattr(so, "_MAX_POINTS", 6 * quarter)
                sized = numerov_reflection(model, energies, consts)
            assert [outcome(r) for r in sized] == [outcome(r) for r in held]
            return held

        (held,) = capped(LOR, [2.0], PhysicalConstants(hbar=0.5), "_MAX_DOUBLINGS")
        assert isinstance(held, ConvergenceError) and held.err_estimate > 1e-6
        held = capped(self.MODEL, self.ENERGIES, UNIT, "_MAX_HALVINGS")
        assert [isinstance(r, ConvergenceError) for r in held] == [False] * 4 + [True] * 2

    def test_readme_sweep_returns_every_numerov_row(self, capsys):
        from semiref.cli import main

        code = main(["reflect", "--model", "sech2", "--v0", "1", "--a", "1", "--emin", "0.5",
                     "--emax", "3", "--n", "6", "--methods", "closed,numerov"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert sum(",numerov," in line for line in out.splitlines()) == 6


class TestErrorEstimate:
    """Over oracle-check's ranges (v0 5-20, a 1-3, E 0.5-2, hbar = m = 1)
    the estimate is never below the actual error."""

    def test_sech2_against_exact_formula(self):
        # The second-level value is far closer than its estimate, which is
        # the error of the coarser extrapolation R1(2h): ~7e-11 at worst
        # over 1,000 such rows, with the estimate at least ~30x the error.
        rng = random.Random(20091023)
        worst, worst_err = math.inf, 0.0
        for _ in range(12):
            v0, a = rng.uniform(5.0, 20.0), rng.uniform(1.0, 3.0)
            energies = [rng.uniform(0.5, 2.0) for _ in range(8)]
            for E, res in zip(energies, numerov_reflection(
                    PotentialModel.sech2(v0, a), energies, UNIT)):
                err = abs(res.log_prob - sech2_exact_ln_refl(E, v0, a))
                assert err <= res.err_estimate <= 1e-6
                worst = min(worst, res.err_estimate / max(err, 1e-300))
                worst_err = max(worst_err, err)
        print(f"smallest estimate / error: {worst:.3g}, largest error {worst_err:.2g}")
        assert worst_err <= 1e-9

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

    def test_sech2_deep_rows_at_half_hbar(self):
        # At hbar/2 the deepest rows leave the asymptotic regime of the
        # rungs, where an estimate of several units does not hold
        # (unflagged, E = 26.54 here can read -59.62 +- 7.1 against the
        # exact -137.89).  Every returned row has an estimate below 1 and
        # lies within it.
        half = PhysicalConstants(hbar=0.5)
        rng = random.Random(2)
        returned = 0
        for _ in range(30):
            v0, a = rng.uniform(5.0, 20.0), rng.uniform(1.0, 3.0)
            energies = [rng.uniform(0.5, 30.0) for _ in range(8)]
            for E, res in zip(energies, numerov_reflection(
                    PotentialModel.sech2(v0, a), energies, half)):
                if isinstance(res, ConvergenceError):
                    continue
                returned += 1
                exact = sech2_exact_ln_refl(E, v0, a, hbar=0.5)
                assert abs(res.log_prob - exact) <= res.err_estimate < 1.0
        assert returned >= 100

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
        assert k * grid.step <= 0.2 + 1e-12
        assert grid.n_points == 4 * grid.quarter + 1
        # The 4h rung's half window, quarter / 2 of its steps, and so every
        # rung's, is a whole number of product segments.
        assert grid.quarter % (2 * grid.segment) == 0
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
