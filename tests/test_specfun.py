import math

import numpy as np
import pytest
from scipy.integrate import quad

from semiref import DomainError, elliptic_b, elliptic_e, elliptic_k

# Pinned by adaptive quadrature of the defining integrals (see oracles below).
K_HALF = 1.8540746773013717
E_HALF = 1.3506438810476753


def k_by_quadrature(m: float) -> float:
    val, _ = quad(
        lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0,
        0.5 * math.pi,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def e_by_quadrature(m: float) -> float:
    val, _ = quad(
        lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0,
        0.5 * math.pi,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def b_by_quadrature(m: float) -> float:
    val, _ = quad(
        lambda t: math.cos(t) ** 2 / math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0,
        0.5 * math.pi,
        epsabs=1e-15,
        epsrel=1e-13,
    )
    return val


def test_k_at_zero():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)


def test_e_at_zero_and_one():
    assert elliptic_e(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert elliptic_e(1.0) == 1.0


def test_frozen_values_at_half():
    assert elliptic_k(0.5) == pytest.approx(K_HALF, rel=1e-14)
    assert elliptic_e(0.5) == pytest.approx(E_HALF, rel=1e-14)


@pytest.mark.parametrize("m", np.linspace(0.05, 0.95, 10))
def test_agreement_with_quadrature_oracle(m):
    assert elliptic_k(m) == pytest.approx(k_by_quadrature(m), rel=1e-10)
    assert elliptic_e(m) == pytest.approx(e_by_quadrature(m), rel=1e-10)


def test_k_log_divergence():
    assert elliptic_k(0.999999) > 7.0
    # Leading asymptote K ~ ln(16/(1-m))/2 near m = 1.
    m = 1.0 - 1e-6
    assert elliptic_k(m) == pytest.approx(0.5 * math.log(16.0 / (1.0 - m)), abs=1e-4)


@pytest.mark.parametrize("m", np.linspace(0.1, 0.9, 9))
def test_legendre_relation(m):
    lhs = (
        elliptic_e(m) * elliptic_k(1.0 - m)
        + elliptic_e(1.0 - m) * elliptic_k(m)
        - elliptic_k(m) * elliptic_k(1.0 - m)
    )
    assert abs(lhs - 0.5 * math.pi) <= 1e-12


def test_e_below_k_except_at_zero():
    assert elliptic_e(0.0) == elliptic_k(0.0)
    for m in np.linspace(0.01, 0.99, 25):
        assert elliptic_e(m) < elliptic_k(m)


def test_domain_errors():
    with pytest.raises(DomainError):
        elliptic_k(1.0)
    with pytest.raises(DomainError):
        elliptic_k(-0.1)
    with pytest.raises(DomainError):
        elliptic_e(1.0 + 1e-12)
    with pytest.raises(DomainError):
        elliptic_e(-1e-12)
    with pytest.raises(DomainError):
        elliptic_b(1.0 + 1e-12)
    with pytest.raises(DomainError):
        elliptic_b(-1e-12)


def test_b_at_zero_and_one():
    assert elliptic_b(0.0) == 0.25 * math.pi
    assert elliptic_b(5e-324) == pytest.approx(0.25 * math.pi, rel=1e-15)
    assert elliptic_b(1.0) == 1.0


@pytest.mark.parametrize(
    "m", [1e-16, 1e-10, 1e-6, 1e-3, *np.linspace(0.05, 0.95, 7), 1.0 - 1e-9]
)
def test_b_agrees_with_quadrature_oracle(m):
    # At small m, E - (1 - m) K cancels to O(m): formed that way, as the
    # bracket (1+g) E - g K at m = 1/(1+g), B(1e-10) is off by 3e-7.
    assert elliptic_b(m) == pytest.approx(b_by_quadrature(m), rel=1e-12)


def test_b_small_parameter_series():
    # B(m) = (pi/4) (1 + m/8 + 9 m^2/192 + ...).
    for m in (1e-20, 1e-12, 1e-6):
        series = 0.25 * math.pi * (1.0 + m / 8.0 + 9.0 * m * m / 192.0)
        assert elliptic_b(m) == pytest.approx(series, rel=1e-15)


@pytest.mark.parametrize("m", np.linspace(0.1, 0.9, 9))
def test_b_is_e_minus_k_over_m(m):
    assert elliptic_b(m) == pytest.approx(
        (elliptic_e(m) - (1.0 - m) * elliptic_k(m)) / m, rel=1e-13)
