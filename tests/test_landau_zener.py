import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from semiref import (
    ConvergenceError,
    CouplingSpec,
    CrossingProfile,
    DomainError,
    Method,
    PhysicalConstants,
    PotentialModel,
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
    u00, u01, u10, u11 = lz._propagator(profile, epsilon, 1.0, table, steps)
    upper, _ = lz._edge_states(profile, epsilon, 1.0, span[0])
    final_upper, final_lower = lz._edge_states(profile, epsilon, 1.0, span[1])
    psi = np.array([u00 * upper[0] + u01 * upper[1], u10 * upper[0] + u11 * upper[1]])
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
    def test_diabatic_limit_follows_crossing_branch(self):
        res = evolve_tdse(
            CrossingProfile.linear(1.0),
            CouplingSpec(1e-8),
            UNIT,
            t_span=(-0.01, 0.01),
        )
        assert res.prob >= 1.0 - 1e-6

    def test_linear_matches_closed_form(self, linear_tdse_runs):
        for T, res in linear_tdse_runs.items():
            target = -math.pi * T
            assert abs(res.log_prob - target) / abs(target) <= 0.05
            # The estimate bounds the actual error.
            assert abs(res.log_prob - target) <= res.err_estimate <= 100.0 * 1e-10
            assert res.method is Method.TDSE

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

    def test_edge_states_orthonormal(self):
        profile = CrossingProfile.linear(2.0)
        for t in (-40.0, 40.0, 0.3):
            upper, lower = lz._edge_states(profile, 1.0, 1.0, t)
            assert np.vdot(upper, upper).real == pytest.approx(1.0, abs=1e-15)
            assert np.vdot(lower, lower).real == pytest.approx(1.0, abs=1e-15)
            assert abs(np.vdot(upper, lower)) <= 1e-16

    def test_narrow_span_rejected(self):
        with pytest.raises(DomainError):
            evolve_tdse(
                CrossingProfile.linear(1.0),
                CouplingSpec(1.0),
                UNIT,
                t_span=(-1.0, 1.0),
            )
        with pytest.raises(DomainError):
            evolve_tdse(
                CrossingProfile.tanh(1.0, 1.0),
                CouplingSpec(0.3),
                UNIT,
                t_span=(-2.0, 2.0),
            )

    @pytest.mark.parametrize("T, epsilon", [(2.0, 1.5), (1.0, 2.0)])
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
        # The linear span is +-20 max(T, sqrt(hbar T), eps T): hbar/eps in
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
