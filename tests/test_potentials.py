import math

import numpy as np
import pytest

from semiref import (
    DomainError,
    PhysicalConstants,
    PotentialModel,
    im_v_inverse,
    v,
    v_on_imaginary_axis,
)

HO = PotentialModel.inverse_ho(1.0)
SECH2 = PotentialModel.sech2(1.0, 1.0)
LOR = PotentialModel.lorentzian(1.0, 1.0)
ALL = [HO, SECH2, LOR]


class TestConstruction:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(DomainError):
            PotentialModel.inverse_ho(0.0)
        with pytest.raises(DomainError):
            PotentialModel.sech2(-1.0, 1.0)
        with pytest.raises(DomainError):
            PotentialModel.lorentzian(1.0, math.inf)

    def test_rejects_mismatched_parameters(self):
        with pytest.raises(DomainError):
            PotentialModel(kind="inverse_ho", alpha=1.0, v0=1.0)
        with pytest.raises(DomainError):
            PotentialModel(kind="sech2", v0=1.0, a=1.0, alpha=2.0)

    def test_constants_validation(self):
        with pytest.raises(DomainError):
            PhysicalConstants(hbar=0.0)
        with pytest.raises(DomainError):
            PhysicalConstants(mass=math.nan)


class TestBarrierValue:
    def test_maximum_pinned_at_zero(self):
        for model in ALL:
            assert v(model, 0.0) == 0.0

    def test_sech2_asymptote(self):
        assert v(PotentialModel.sech2(1.0, 1.0), 1e8) == pytest.approx(-1.0, abs=1e-14)

    def test_lorentzian_point_value(self):
        assert v(PotentialModel.lorentzian(2.0, 1.0), 1.0) == pytest.approx(-1.0)

    def test_symmetric_negative_decreasing(self):
        # Strict decrease checked where the tails are still resolvable in
        # double precision; far tails only need to stay weakly ordered.
        xs = np.geomspace(1e-3, 12.0, 40)
        for model in ALL:
            left, right = v(model, -xs), v(model, xs)
            np.testing.assert_allclose(left, right, rtol=0, atol=0)
            assert np.all(right < 0.0)
            assert np.all(np.diff(right) < 0.0)
            assert v(model, 50.0) <= v(model, 12.0)

    def test_rejects_non_finite_x(self):
        with pytest.raises(DomainError):
            v(SECH2, math.inf)

    def test_total_on_huge_finite_x(self):
        # x^2 overflows double precision but the value saturates cleanly.
        assert v(LOR, 1e200) == pytest.approx(-1.0)
        assert v(SECH2, 1e200) == pytest.approx(-1.0)
        assert v(HO, 1e200) == -math.inf

    def test_lorentzian_matches_where_expression_bitwise(self):
        # Reference: the np.where form the in-place evaluation replaced,
        # overflow lane included; -0.0 at the origin must survive too.
        model = PotentialModel.lorentzian(3.0, 0.7)
        xs = np.concatenate(
            [np.linspace(-50.0, 50.0, 2001), [0.0, 1e-300, 1e200, -1e200, 1e300]]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            x2 = xs * xs
            ref = np.where(
                np.isinf(x2), -model.v0, -model.v0 * x2 / (x2 + model.a * model.a)
            )
        assert v(model, xs).tobytes() == ref.tobytes()
        for x, want in zip(xs[-5:], ref[-5:]):
            got = v(model, float(x))
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == want.tobytes()


class TestImVInverse:
    def test_inverse_ho_value(self):
        assert im_v_inverse(PotentialModel.inverse_ho(2.0), 1.0) == pytest.approx(1.0)

    def test_lorentzian_value(self):
        assert im_v_inverse(PotentialModel.lorentzian(3.0, 2.0), 1.0) == pytest.approx(
            1.0
        )

    def test_vanishes_at_zone_boundary(self):
        for model in ALL:
            assert im_v_inverse(model, 1e-30) < 1e-10

    def test_monotone_branch(self):
        xi = np.geomspace(1e-8, 1e3, 60)
        for model in ALL:
            assert np.all(np.diff(im_v_inverse(model, xi)) > 0.0)
            assert np.all(im_v_inverse(model, xi) >= 0.0)

    def test_sech2_arccos_equivalence(self):
        # The arctan branch used internally equals the arccos form.
        model = PotentialModel.sech2(2.0, 3.0)
        for xi in (1e-6, 0.1, 1.0, 25.0):
            arccos_form = model.a * math.acos(math.sqrt(model.v0 / (xi + model.v0)))
            assert im_v_inverse(model, xi) == pytest.approx(arccos_form, rel=1e-13)

    def test_domain_errors(self):
        for model in ALL:
            with pytest.raises(DomainError):
                im_v_inverse(model, 0.0)
            with pytest.raises(DomainError):
                im_v_inverse(model, -1.0)
        with pytest.raises(DomainError):
            im_v_inverse(LOR, math.inf)


class TestImaginaryAxis:
    def test_inverse_ho_value(self):
        assert v_on_imaginary_axis(HO, 2.0) == pytest.approx(2.0)

    def test_sech2_value(self):
        assert v_on_imaginary_axis(SECH2, math.pi / 4) == pytest.approx(1.0, rel=1e-12)

    def test_lorentzian_divergence_at_pole(self):
        assert v_on_imaginary_axis(LOR, 1.0 - 1e-9) > 1e8

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            v_on_imaginary_axis(LOR, 1.0)
        with pytest.raises(DomainError):
            v_on_imaginary_axis(SECH2, math.pi / 2)
        with pytest.raises(DomainError):
            v_on_imaginary_axis(HO, -0.5)

    def test_increasing_on_domain(self):
        for model in ALL:
            ys = np.linspace(1e-4, 0.95 * min(model.imag_axis_pole, 3.0), 50)
            vals = v_on_imaginary_axis(model, ys)
            assert np.all(vals >= 0.0)
            assert np.all(np.diff(vals) > 0.0)

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind.value)
    def test_series_consistency_with_real_axis(self, model):
        # Both continuations share the quadratic term: V(iy) = -V(y) + O(y^4).
        for y in (1e-2, 5e-3):
            residual = abs(v_on_imaginary_axis(model, y) + v(model, y))
            assert residual <= 10.0 * y**4

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind.value)
    def test_curvature_match_finite_difference(self, model):
        h = 1e-4
        d2_imag = (
            v_on_imaginary_axis(model, 2 * h)
            - 2 * v_on_imaginary_axis(model, h)
            + v_on_imaginary_axis(model, 0.0)
        ) / h**2
        d2_real = (v(model, h) - 2 * v(model, 0.0) + v(model, -h)) / h**2
        assert d2_imag == pytest.approx(-d2_real, rel=1e-6)
        assert d2_imag == pytest.approx(model.curvature_top, rel=1e-6)


class TestTurningPoint:
    """y0 = im_v_inverse(model, E) is the root of V(i y0) = E."""

    def test_inverse_ho(self):
        y0 = im_v_inverse(PotentialModel.inverse_ho(2.0), 1.0)
        assert y0 == pytest.approx(1.0, rel=1e-12)

    def test_lorentzian(self):
        y0 = im_v_inverse(LOR, 1.0)
        assert y0 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_sech2(self):
        y0 = im_v_inverse(PotentialModel.sech2(4.0, 1.0), 4.0)
        assert y0 == pytest.approx(math.pi / 4, rel=1e-12)

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind.value)
    @pytest.mark.parametrize("E", [1e-3, 0.5, 2.0, 50.0])
    def test_round_trip(self, model, E):
        # The two analytic continuations must agree on the turning point.
        y0 = im_v_inverse(model, E)
        assert 0.0 < y0 < model.imag_axis_pole
        assert v_on_imaginary_axis(model, y0) == pytest.approx(E, rel=1e-11)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(DomainError):
            im_v_inverse(HO, 0.0)
