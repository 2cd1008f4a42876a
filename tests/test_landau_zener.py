import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from semiref import (
    ConvergenceError,
    CouplingSpec,
    CrossingProfile,
    DomainError,
    Method,
    PhysicalConstants,
    PotentialModel,
    QuadratureSpec,
    adiabatic_reflection,
    default_t_span,
    evolve_tdse,
    instantaneous_eigensystem,
    lz_closed_form,
    mixing_angle,
    reflection_momentum_space,
)
from semiref import landau_zener as lz

UNIT = PhysicalConstants()

# Pinned by adaptive quadrature of the profile continuation (oracle below).
TANH_TAU5_EPS03_LOG = -1.383263693721153


@pytest.fixture(scope="module")
def linear_tdse_runs():
    """TDSE results for T eps^2 in {1, 2, 3} at eps = 1."""
    return {
        T: evolve_tdse(CrossingProfile.linear(T), CouplingSpec(1.0), UNIT)
        for T in (1.0, 2.0, 3.0)
    }


def edge_probabilities(profile, epsilon, rel_tol=1e-10):
    """(stay, flip) probabilities of the CF4 run evolve_tdse starts from."""
    span = default_t_span(profile, CouplingSpec(epsilon), UNIT)
    table = lz._phase_table(profile, epsilon, 1.0, *span)
    steps = math.ceil(table[1][-1] * lz._PER_RADIAN * rel_tol**-0.25)
    a, b = lz._propagator(profile, epsilon, 1.0, table, steps)
    upper, _ = lz._edge_states(profile, epsilon, 1.0, span[0])
    final_upper, final_lower = lz._edge_states(profile, epsilon, 1.0, span[1])
    psi = np.array([a * upper[0] + b * upper[1], -np.conj(b) * upper[0] + np.conj(a) * upper[1]])
    return abs(np.vdot(final_upper, psi)) ** 2, abs(np.vdot(final_lower, psi)) ** 2


class TestProfiles:
    def test_validation(self):
        with pytest.raises(DomainError):
            CrossingProfile.linear(0.0)
        with pytest.raises(DomainError):
            CrossingProfile.tanh(1.0, -1.0)
        with pytest.raises(DomainError):
            CrossingProfile(kind="linear", T=1.0, tau=2.0)
        with pytest.raises(DomainError):
            CouplingSpec(0.0)

    def test_values(self):
        lin = CrossingProfile.linear(2.0)
        assert lin.value(1.0) == 0.5
        tanh = CrossingProfile.tanh(2.0, 3.0)
        assert tanh.value(0.0) == 0.0
        assert tanh.value(1e9) == pytest.approx(3.0)

    def test_im_inverse(self):
        assert CrossingProfile.linear(3.0).im_inverse(0.5) == pytest.approx(1.5)
        tanh = CrossingProfile.tanh(2.0, 1.0)
        assert tanh.im_inverse(1.0) == pytest.approx(2.0 * math.pi / 4)

    @pytest.mark.parametrize("profile, epsilon", [
        (CrossingProfile.linear(3.0), 1.0), (CrossingProfile.tanh(3.0, 1.0), 0.3)])
    def test_odd_bit_for_bit_at_the_step_times(self, profile, epsilon):
        # The TDSE runs take their left halves as the mirror of their right
        # halves (lz._mirror), which needs f(-t) = -f(t) exactly where they
        # evaluate f: the right half's step times and their Gauss nodes.
        table = lz._phase_table(profile, epsilon, 1.0,
                                *default_t_span(profile, CouplingSpec(epsilon), UNIT))
        steps = 2 * lz._steps(table, 1e-10)
        x = np.arange(steps // 2, steps + 1) * (table[1][-1] / steps)
        t = np.interp(x, table[1], table[0])
        t[0] = 0.0
        h = np.diff(t)
        for times in (t, t[:-1] + lz._C1 * h, t[:-1] + lz._C2 * h):
            left, right = profile.value(-times), -profile.value(times)
            assert np.array_equal(left.view(np.int64), right.view(np.int64))


class TestMixingAngle:
    def test_crossing_point(self):
        for profile in (CrossingProfile.linear(1.0), CrossingProfile.tanh(1.0, 1.0)):
            assert mixing_angle(profile, CouplingSpec(0.7), 0.0) == pytest.approx(
                math.pi / 2
            )

    def test_tanh_asymptotes(self):
        profile = CrossingProfile.tanh(1.0, 1.0)
        eps = CouplingSpec(1.0)
        # Increasing sweep: f -> +e_sat at late times, -e_sat at early times.
        assert mixing_angle(profile, eps, 1e9) == pytest.approx(math.pi / 4)
        assert mixing_angle(profile, eps, -1e9) == pytest.approx(3 * math.pi / 4)

    def test_linear_limits(self):
        profile = CrossingProfile.linear(1.0)
        eps = CouplingSpec(1.0)
        assert mixing_angle(profile, eps, 1e12) == pytest.approx(0.0, abs=1e-11)
        assert mixing_angle(profile, eps, -1e12) == pytest.approx(math.pi, abs=1e-11)

    def test_continuous_and_decreasing(self):
        # Range limited to where tanh has not yet saturated in double
        # precision, so strict monotonicity is meaningful.
        profile = CrossingProfile.tanh(1.0, 2.0)
        eps = CouplingSpec(0.3)
        ts = np.linspace(-8.0, 8.0, 101)
        thetas = [mixing_angle(profile, eps, t) for t in ts]
        assert all(0.0 < th < math.pi for th in thetas)
        assert all(b < a for a, b in zip(thetas, thetas[1:]))


class TestEigensystem:
    def test_crossing_values(self):
        profile = CrossingProfile.linear(1.0)
        e_plus, e_minus, phi_p, _ = instantaneous_eigensystem(
            profile, CouplingSpec(2.0), 0.0
        )
        assert e_plus == pytest.approx(2.0)
        assert e_minus == pytest.approx(-2.0)
        np.testing.assert_allclose(phi_p, [1 / math.sqrt(2)] * 2, rtol=1e-12)

    def test_tanh_saturated_energy(self):
        profile = CrossingProfile.tanh(1.0, 4.0)
        e_plus, _, _, _ = instantaneous_eigensystem(profile, CouplingSpec(3.0), -1e9)
        assert e_plus == pytest.approx(5.0)

    @pytest.mark.parametrize("t", [-7.3, -0.2, 0.0, 1.7, 12.9])
    def test_residual_and_orthogonality(self, t):
        profile = CrossingProfile.tanh(2.0, 3.0)
        eps = CouplingSpec(0.7)
        f = profile.value(t)
        h = np.array([[f, eps.epsilon], [eps.epsilon, -f]])
        e_plus, e_minus, phi_p, phi_m = instantaneous_eigensystem(profile, eps, t)
        assert np.max(np.abs(h @ phi_p - e_plus * phi_p)) <= 1e-12
        assert np.max(np.abs(h @ phi_m - e_minus * phi_m)) <= 1e-12
        assert abs(float(phi_p @ phi_m)) <= 1e-15


class TestAdiabaticReflection:
    @pytest.mark.parametrize("T,eps", [(1.0, 1.0), (2.0, 1.0), (2.0, 0.5), (5.0, 0.25)])
    def test_linear_equals_closed_form(self, T, eps):
        coupling = CouplingSpec(eps)
        adiab = adiabatic_reflection(CrossingProfile.linear(T), coupling, UNIT)
        closed = lz_closed_form(T, coupling, UNIT)
        assert adiab.log_prob == pytest.approx(closed.log_prob, rel=1e-12)
        assert adiab.method is Method.ADIABATIC

    def test_shared_kernel_bit_identity(self):
        # Substituting V -> -f^2, E -> eps^2, 2m -> 1 maps the linear sweep
        # onto an inverse-oscillator barrier; with power-of-two parameters
        # the two code paths must agree bit for bit.
        T, eps = 2.0, 1.0
        adiab = adiabatic_reflection(CrossingProfile.linear(T), CouplingSpec(eps), UNIT)
        ho = PotentialModel.inverse_ho(2.0 / T**2)
        barrier = reflection_momentum_space(
            ho, eps**2, PhysicalConstants(hbar=1.0, mass=0.5)
        )
        assert adiab.log_prob == barrier.log_prob

    def test_epsilon_scaling_is_quadratic(self):
        profile = CrossingProfile.linear(1.5)
        small = adiabatic_reflection(profile, CouplingSpec(0.25), UNIT)
        large = adiabatic_reflection(profile, CouplingSpec(0.5), UNIT)
        assert large.log_prob / small.log_prob == pytest.approx(4.0, rel=1e-9)

    def test_tanh_pinned_by_quadrature_oracle(self):
        profile = CrossingProfile.tanh(5.0, 1.0)
        res = adiabatic_reflection(profile, CouplingSpec(0.3), UNIT)
        oracle, _ = quad(
            lambda p: 5.0 * math.atan(math.sqrt(0.09 - p * p)),
            -0.3,
            0.3,
            epsabs=1e-14,
            epsrel=1e-14,
        )
        assert res.log_prob == pytest.approx(-2.0 * oracle, rel=1e-10)
        assert res.log_prob == pytest.approx(TANH_TAU5_EPS03_LOG, rel=1e-12)

    def test_diabatic_limit(self):
        res = adiabatic_reflection(CrossingProfile.linear(1.0), CouplingSpec(1e-9), UNIT)
        assert res.prob > 1.0 - 1e-10

    def test_tanh_rejects_strong_coupling(self):
        profile = CrossingProfile.tanh(1.0, 1.0)
        with pytest.raises(DomainError):
            adiabatic_reflection(profile, CouplingSpec(1.0), UNIT)

    def test_unconverged_quadrature_raises_with_scaled_estimate(self):
        # rel_tol = 1e-300 is never met: the error carries the last level's
        # value and its change from the level before, each times 2/hbar.
        profile, hbar = CrossingProfile.tanh(3.0, 1.0), 0.7
        spec = QuadratureSpec(nodes=8, refinement_levels=2, rel_tol=1e-300)
        with pytest.raises(ConvergenceError) as excinfo:
            adiabatic_reflection(profile, CouplingSpec(0.3), PhysicalConstants(hbar=hbar), spec)

        def zone(n):  # Gauss-Legendre in p = 0.3 sin(theta), as the ladder runs it
            x, w = np.polynomial.legendre.leggauss(n)
            pc = 0.3 * np.cos(0.5 * math.pi * x)
            return 0.5 * math.pi * np.dot(w, pc * profile.im_inverse(np.sqrt(pc**2)))

        best, err = excinfo.value.best, excinfo.value.err_estimate
        assert math.isfinite(best) and math.isfinite(err)
        assert best == pytest.approx(-(2.0 / hbar) * zone(16), rel=1e-12)
        assert err == pytest.approx((2.0 / hbar) * abs(zone(16) - zone(8)), rel=1e-6)

    def test_overflowing_exponent_is_an_underflow(self):
        # pi T eps^2 / hbar overflows, and so does the quadrature's integrand:
        # the row is flagged as the underflow that the closed form reports.
        eps, consts = CouplingSpec(1e300), PhysicalConstants(hbar=1e-300)
        errors = []
        for route in (lambda: adiabatic_reflection(CrossingProfile.linear(1e300), eps, consts),
                      lambda: lz_closed_form(1e300, eps, consts)):
            with pytest.raises(DomainError) as info:
                route()
            errors.append(str(info.value))
        assert errors[0] == errors[1] == (
            "probability underflows double precision (log_prob=-inf)")

    def test_hbar_scaling(self):
        profile = CrossingProfile.tanh(3.0, 1.0)
        eps = CouplingSpec(0.3)
        logs = [
            adiabatic_reflection(profile, eps, PhysicalConstants(hbar=h)).log_prob * h
            for h in (1.0, 0.5)
        ]
        assert logs[0] == pytest.approx(logs[1], rel=1e-12)


class TestClosedForm:
    def test_trivial_limit(self):
        res = lz_closed_form(1e-300, CouplingSpec(1.0), UNIT)
        assert res.prob == pytest.approx(1.0)

    def test_direct_value(self):
        res = lz_closed_form(2.0, CouplingSpec(1.0), UNIT)
        assert res.prob == pytest.approx(1.8674e-3, rel=1e-4)


class TestTDSE:
    def test_linear_matches_closed_form(self, linear_tdse_runs):
        for T, res in linear_tdse_runs.items():
            target = -math.pi * T
            assert abs(res.log_prob - target) / abs(target) <= 0.05
            # The estimate bounds the actual error.
            assert abs(res.log_prob - target) <= res.err_estimate <= 100.0 * 1e-10
            assert res.method is Method.TDSE

    # ln P ~ -20 and -23, where a span term taken at the coarse run's
    # density alone falls 1.5-2x short of the error.
    @pytest.mark.parametrize("T", [6.45, 7.275])
    def test_deep_linear_row_within_its_estimate(self, T):
        res = evolve_tdse(CrossingProfile.linear(T), CouplingSpec(1.0), UNIT)
        assert abs(res.log_prob + math.pi * T) <= res.err_estimate

    def test_seeded_linear_rows_within_their_estimates(self):
        # 60 draws of x = T eps^2 / hbar uniform in 0.5-6, hbar and eps
        # log-uniform over 0.1-10: every row is returned, within its
        # estimate of -pi x.
        rng = random.Random(20261022)
        for _ in range(60):
            x = rng.uniform(0.5, 6.0)
            hbar, epsilon = (10.0 ** rng.uniform(-1.0, 1.0) for _ in range(2))
            T, eps = x * hbar / epsilon**2, CouplingSpec(epsilon)
            consts = PhysicalConstants(hbar=hbar)
            res = evolve_tdse(CrossingProfile.linear(T), eps, consts)
            target = lz_closed_form(T, eps, consts).log_prob
            assert abs(res.log_prob - target) <= res.err_estimate, (x, hbar, epsilon)

    def test_reflection_decreases_with_sweep_time(self, linear_tdse_runs):
        refls = [linear_tdse_runs[T].prob for T in (1.0, 2.0, 3.0)]
        assert refls[0] > refls[1] > refls[2]

    def test_probabilities_sum_to_one(self):
        for T in (1.0, 2.0, 3.0):
            stay, flip = edge_probabilities(CrossingProfile.linear(T), 1.0)
            assert abs(stay + flip - 1.0) <= 10.0 * 1e-10

    def test_tanh_matches_adiabatic_exponent(self):
        profile = CrossingProfile.tanh(5.0, 1.0)
        eps = CouplingSpec(0.3)
        res = evolve_tdse(profile, eps, UNIT)
        adiab = adiabatic_reflection(profile, eps, UNIT)
        assert abs(res.log_prob - adiab.log_prob) / abs(adiab.log_prob) <= 0.05

    @pytest.mark.parametrize(
        "profile, epsilon",
        [(CrossingProfile.linear(T), 1.0) for T in (1.0, 2.0, 3.0)]
        + [(CrossingProfile.tanh(tau, 1.0), 0.3) for tau in (3.0, 5.0, 8.0)],
        ids=["linear-1", "linear-2", "linear-3", "tanh-3", "tanh-5", "tanh-8"],
    )
    def test_cf4_agrees_with_dop853(self, profile, epsilon):
        # The criterion-08 and -09 points.  DOP853 starts from the same
        # superadiabatic edge state and projects onto the same one; its
        # estimate is the move from a tenfold looser tolerance.
        eps = CouplingSpec(epsilon)
        cf4 = evolve_tdse(profile, eps, UNIT)
        span = default_t_span(profile, eps, UNIT)
        upper, _ = lz._edge_states(profile, epsilon, 1.0, span[0])
        _, lower = lz._edge_states(profile, epsilon, 1.0, span[1])
        logs = []
        for rel_tol in (1e-9, 1e-10):
            ar, ai, br, bi = lz._integrate(profile, eps, UNIT, span, rel_tol,
                                           psi0=upper).y[:, -1]
            amp = np.vdot(lower, [complex(ar, ai), complex(br, bi)])
            logs.append(math.log(abs(amp) ** 2))
        dop853_err = abs(logs[1] - logs[0])
        assert abs(cf4.log_prob - logs[1]) <= cf4.err_estimate + dop853_err

    def test_norm_conserved_along_trajectory(self):
        # The DOP853 reference that test_cf4_agrees_with_dop853 trusts.
        profile = CrossingProfile.linear(2.0)
        eps = CouplingSpec(1.0)
        rel_tol = 1e-10
        span = default_t_span(profile, eps, UNIT)
        sol = lz._integrate(
            profile, eps, UNIT, span, rel_tol, t_eval=np.linspace(*span, 11)
        )
        drift = np.max(np.abs(np.sum(sol.y**2, axis=0) - 1.0))
        assert drift <= 100.0 * rel_tol

    def test_unattainable_tolerance_raises(self):
        # 100 * rel_tol = 1e-14 in ln P is below what rounding leaves of it.
        with pytest.raises(ConvergenceError) as info:
            evolve_tdse(
                CrossingProfile.linear(2.0),
                CouplingSpec(1.0),
                UNIT,
                rel_tol=1e-16,
            )
        assert info.value.best == pytest.approx(-2.0 * math.pi, abs=1e-8)
        assert info.value.err_estimate > 100.0 * 1e-16

    def test_deep_sweep_is_flagged(self):
        # T eps^2 / hbar = 20: ln P = -62.8 is below the rounding of the
        # amplitudes, so the estimate fails instead of printing a wrong value.
        with pytest.raises(ConvergenceError) as info:
            evolve_tdse(CrossingProfile.linear(20.0), CouplingSpec(1.0), UNIT)
        assert info.value.err_estimate > 1e-8
        assert abs(info.value.best + 20.0 * math.pi) <= info.value.err_estimate

    def test_chunks_multiply_to_the_unchunked_propagator(self, monkeypatch):
        # 3 full chunks and 5 steps more, against one chunk of all the steps.
        profile, epsilon = CrossingProfile.tanh(5.0, 1.0), 0.4
        table = lz._phase_table(profile, epsilon, 1.0,
                                *default_t_span(profile, CouplingSpec(epsilon), UNIT))
        steps = 3 * lz._CHUNK + 5
        chunked = lz._propagator(profile, epsilon, 1.0, table, steps)
        monkeypatch.setattr(lz, "_CHUNK", steps)
        whole = lz._propagator(profile, epsilon, 1.0, table, steps)
        assert max(abs(x - y) for x, y in zip(chunked, whole)) <= 1e-13

    @pytest.mark.parametrize("profile, epsilon, steps", [
        # 1,419 coarse steps, rounded up to even as evolve_tdse does
        (CrossingProfile.tanh(3.0, 1.0), 0.3, 1420),
        (CrossingProfile.linear(3.0), 1.0, 6904),  # an even coarse count
        # a fine run whose right half starts 3,024 steps into a chunk
        (CrossingProfile.tanh(20.0, 1.0), 0.5, 22432),
        # the right half starts 5 steps into the plain run's fourth chunk
        (CrossingProfile.tanh(5.0, 1.0), 0.4, 2 * (3 * lz._CHUNK + 5)),
        (CrossingProfile.linear(2.0), 1.0, 2 * (3 * lz._CHUNK + 5)),
    ])
    def test_mirrored_propagator_matches_the_plain_one(self, profile, epsilon, steps):
        table = lz._phase_table(profile, epsilon, 1.0,
                                *default_t_span(profile, CouplingSpec(epsilon), UNIT))
        mirrored = lz._mirrored_propagator(profile, epsilon, 1.0, table, steps)
        # The identity: the left half stepped at the mirror images of the
        # right half's times, later steps to the left.
        x = np.arange(steps // 2, steps + 1) * (table[1][-1] / steps)
        t = np.interp(x, table[1], table[0])
        t[0], t[-1] = 0.0, table[0][-1]
        stepped = lz._PAIR.identity
        for times in (-t[::-1], t):
            a, b = lz._step_pairs(profile, epsilon, 1.0, times)
            stepped = lz._ordered_product(a[::-1], b[::-1], tail=stepped, rule=lz._PAIR)
        assert max(abs(x - y) for x, y in zip(mirrored, stepped)) <= 1e-13
        # The plain run places its left half's times from the phase table,
        # whose rounding puts them up to ~4e-13 off the mirror images.  No
        # run resolves the entries that finely: at tanh(20, 1), eps 0.5, a
        # and b move by ~2e-12 from 89,728 to 179,456 steps, and at
        # tanh(5, 1), eps 0.4, b by 2.5e-11 from 179,456 to 2^19.  So the
        # two runs differ by up to 1.2e-13 in a and 3.3e-13 in b.
        plain = lz._propagator(profile, epsilon, 1.0, table, steps)
        assert max(abs(x - y) for x, y in zip(mirrored, plain)) <= 1e-12

    @pytest.mark.parametrize("profile, epsilon", [
        (CrossingProfile.linear(2.0), 1.0), (CrossingProfile.tanh(5.0, 1.0), 0.3)])
    def test_mirrored_outer_stretch_matches_the_left_one_stepped(self, profile, epsilon):
        # The doubled span is outer . inner . mirror(outer) (lz._wide_flip):
        # the stretch before -t1 is the mirror of the one after t1.
        t1 = default_t_span(profile, CouplingSpec(epsilon), UNIT)[1]
        right, left, span = (lz._phase_table(profile, epsilon, 1.0, a, b)
                             for a, b in ((t1, 2.0 * t1), (-2.0 * t1, -t1), (-t1, t1)))
        density = 2.0  # steps per radian
        steps = math.ceil(right[1][-1] * density)
        outer = lz._propagator(profile, epsilon, 1.0, right, steps)
        stepped = lz._propagator(profile, epsilon, 1.0, left, steps)
        assert max(abs(x - y) for x, y in zip(lz._mirror(outer), stepped)) <= 1e-13
        inner = lz._propagator(profile, epsilon, 1.0, span, 512)
        edges = [lz._edge_states(profile, epsilon, 1.0, t) for t in (-2.0 * t1, 2.0 * t1)]
        direct = lz._log_flip(edges, lz._PAIR.mul(outer, lz._PAIR.mul(inner, stepped)))
        wide = lz._wide_flip(profile, epsilon, 1.0, right, edges, density, inner)
        assert abs(wide - direct) <= 1e-12

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize("profile, epsilon", [
        (CrossingProfile.linear(2.0), 1.0), (CrossingProfile.tanh(5.0, 1.0), 0.3)])
    def test_step_pairs_match_the_matrix_exponentials(self, profile, epsilon, hbar):
        # Each CF4 step, at the crossing and far out on the plateau, is the
        # product of its two exponentials taken by scipy.
        def h_at(t):
            f = profile.value(t)
            return np.array([[f, epsilon], [epsilon, -f]])

        for t in (np.array([-0.4, -0.1, 0.05, 0.3, 0.9]),
                  np.array([30.0, 30.2, 30.7, 32.0, 36.0])):
            a, b = (x.copy() for x in lz._step_pairs(profile, epsilon, hbar, t))
            for i, (t0, t1) in enumerate(zip(t, t[1:])):
                h = t1 - t0
                h1, h2 = h_at(t0 + lz._C1 * h), h_at(t0 + lz._C2 * h)
                u = (expm(-1j * h / hbar * (lz._A1 * h1 + lz._A2 * h2))
                     @ expm(-1j * h / hbar * (lz._A2 * h1 + lz._A1 * h2)))
                assert abs(a[i] - u[0, 0]) <= 1e-13 and abs(b[i] - u[0, 1]) <= 1e-13

    @pytest.mark.parametrize("steps", [1, 2, 37, 4097])
    def test_propagator_is_special_unitary(self, steps):
        # The pair (a, b) stands for [[a, b], [-conj(b), conj(a)]]; its
        # determinant |a|^2 + |b|^2 is 1 to rounding.
        profile = CrossingProfile.linear(2.0)
        table = lz._phase_table(profile, 1.0, 1.0,
                                *default_t_span(profile, CouplingSpec(1.0), UNIT))
        a, b = lz._propagator(profile, 1.0, 1.0, table, steps)
        assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-13

    def test_edge_states_orthonormal(self):
        profile = CrossingProfile.linear(2.0)
        for t in (-40.0, 40.0, 0.3):
            upper, lower = lz._edge_states(profile, 1.0, 1.0, t)
            assert np.vdot(upper, upper).real == pytest.approx(1.0, abs=1e-15)
            assert np.vdot(lower, lower).real == pytest.approx(1.0, abs=1e-15)
            assert abs(np.vdot(upper, lower)) <= 1e-16

    @pytest.mark.parametrize(
        "T, epsilon",
        [
            (2.0, 1.5),
            (1.0, 2.0),
            # eps T sets the span, and 20 (eps T) / T lands an ulp below 20 eps.
            (1.0107588895329882, 1.0652341476345357),
            (1.8681975091176932, 1.961941145581971),
            (0.12413883234754329, 4.661229023142172),
        ],
    )
    def test_default_span_fits_fast_strong_sweeps(self, T, epsilon):
        # eps > 1 with T eps^2 > hbar: the span must reach |f| >= 20 eps.
        rel_tol = 1e-10
        eps = CouplingSpec(epsilon)
        res = evolve_tdse(CrossingProfile.linear(T), eps, UNIT, rel_tol=rel_tol)
        closed = lz_closed_form(T, eps, UNIT)
        assert abs(res.log_prob - closed.log_prob) / abs(closed.log_prob) <= 0.05
        assert abs(res.log_prob - closed.log_prob) <= res.err_estimate <= 100.0 * rel_tol

    @pytest.mark.parametrize("epsilon", [1e-8, 1e-3])
    def test_nearly_diabatic_sweep_is_cheap(self, epsilon):
        # The linear span is +-20 max(sqrt(hbar T), eps T): hbar/eps in
        # place of sqrt(hbar T) sent eps = 1e-8 to the step cap (~3 s).
        eps = CouplingSpec(epsilon)
        start = time.perf_counter()
        res = evolve_tdse(CrossingProfile.linear(1.0), eps, UNIT)
        elapsed = time.perf_counter() - start
        closed = lz_closed_form(1.0, eps, UNIT)
        assert elapsed < 0.1
        assert abs(res.log_prob - closed.log_prob) <= res.err_estimate + 1e-15
        assert res.err_estimate <= 1e-8

    def test_default_span_covers_preconditions(self):
        profile = CrossingProfile.tanh(3.0, 1.0)
        eps = CouplingSpec(0.3)
        span = default_t_span(profile, eps, UNIT)
        assert span[0] == -span[1]
        assert span[1] >= 60.0


# Deterministic examples, and no example database written to the tree.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)
# Time and energy units: powers of ten, so no rescaling is exact.
UNIT_EXPONENTS = st.integers(-120, 120)


def in_units(a, b):
    """The factors by which times, energies and actions (hbar) grow when
    the time unit shrinks by 10^a and the energy unit by 10^b."""
    return 10.0**a, 10.0**b, 10.0 ** (a + b)


class TestUnits:
    # The transition probability depends only on the dimensionless sweep:
    # T eps^2 / hbar (linear), e_sat tau / hbar and eps / e_sat (tanh).

    @pytest.mark.parametrize(
        "T, epsilon, hbar", [(4.0, 1.0, 1.0), (0.4, 10.0, 10.0), (40.0, 0.1, 0.1), (400.0, 0.01, 0.01)]
    )
    def test_linear_tdse_in_any_energy_unit(self, T, epsilon, hbar):
        # T eps^2 / hbar = 4 in four energy units; a span built with T in
        # it was 4,000 crossing times wide in the last one.
        res = evolve_tdse(CrossingProfile.linear(T), CouplingSpec(epsilon),
                          PhysicalConstants(hbar=hbar))
        assert abs(res.log_prob + 4.0 * math.pi) <= res.err_estimate <= 1e-8

    def test_power_of_two_units_change_no_bit(self):
        # Times 2^40 larger and energies 2^20 smaller, so T is 2^60 and hbar
        # 2^20 times larger: the oracle's own power-of-two units absorb that.
        for profile, scaled, eps in (
            (CrossingProfile.linear(3.0), CrossingProfile.linear(3.0 * 2.0**60), 0.7),
            (CrossingProfile.tanh(3.0, 2.0), CrossingProfile.tanh(3.0 * 2.0**40, 2.0 * 2.0**-20),
             1.2),
        ):
            one = evolve_tdse(profile, CouplingSpec(eps), PhysicalConstants(hbar=1.3))
            other = evolve_tdse(scaled, CouplingSpec(eps * 2.0**-20),
                                PhysicalConstants(hbar=1.3 * 2.0**20))
            assert (other.log_prob, other.err_estimate) == (one.log_prob, one.err_estimate)

    @PROPERTY
    @given(st.floats(0.05, 8.0), UNIT_EXPONENTS, UNIT_EXPONENTS)
    def test_linear_sweep_in_any_units(self, x, a, b):
        time, energy, action = in_units(a, b)
        T, eps, consts = x * time / energy, CouplingSpec(energy), PhysicalConstants(hbar=action)
        closed = lz_closed_form(T, eps, consts)
        tdse = evolve_tdse(CrossingProfile.linear(T), eps, consts)
        adiab = adiabatic_reflection(CrossingProfile.linear(T), eps, consts)
        assert abs(tdse.log_prob - closed.log_prob) <= tdse.err_estimate
        assert adiab.log_prob == pytest.approx(closed.log_prob, rel=1e-10)

    @PROPERTY
    @given(st.floats(1.0, 10.0), st.floats(0.05, 0.9), UNIT_EXPONENTS, UNIT_EXPONENTS)
    def test_tanh_sweep_in_any_units(self, cost, ratio, a, b):
        time, energy, action = in_units(a, b)
        runs = []
        for profile, eps, consts in (
            (CrossingProfile.tanh(cost, 1.0), CouplingSpec(ratio), UNIT),
            (CrossingProfile.tanh(cost * time, energy), CouplingSpec(ratio * energy),
             PhysicalConstants(hbar=action)),
        ):
            runs.append([route(profile, eps, consts)
                         for route in (evolve_tdse, adiabatic_reflection)])
        for one, scaled in zip(*runs):
            assert abs(scaled.log_prob - one.log_prob) <= one.err_estimate + scaled.err_estimate
