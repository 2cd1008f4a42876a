"""Complete elliptic integrals via the arithmetic-geometric mean.

Arguments follow the PARAMETER convention: ``m`` is the square of the
modulus k, so

    K(m) = integral_0^{pi/2} dt / sqrt(1 - m sin^2 t),
    E(m) = integral_0^{pi/2} dt * sqrt(1 - m sin^2 t),
    B(m) = integral_0^{pi/2} dt * cos^2 t / sqrt(1 - m sin^2 t)
         = (E(m) - (1 - m) K(m)) / m.

All three come from one AGM run.  The iteration converges quadratically;
it stops once successive means agree to 1e-15 relative, i.e. machine
precision.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["elliptic_k", "elliptic_e", "elliptic_b"]

_AGM_RTOL = 1e-15


def _agm(m: float) -> tuple[float, float, float]:
    """K(m) and the sums m/2 + S and S, S = sum_{n>=1} 2^{n-1} c_n^2, of the
    AGM of 1 and sqrt(1 - m), where c_n is its n-th half difference."""
    a, b = 1.0, math.sqrt(1.0 - m)
    csum = 0.5 * m
    tail = 0.0
    pow2 = 0.5
    while abs(a - b) > _AGM_RTOL * a:
        c = 0.5 * (a - b)
        pow2 *= 2.0
        term = pow2 * c * c
        csum += term
        tail += term
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b), csum, tail


def elliptic_k(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) for 0 <= m < 1.

    K diverges logarithmically as m -> 1, hence m = 1 is rejected.
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"K(m) requires 0 <= m < 1, got {m!r}")
    return _agm(m)[0]


def elliptic_e(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m) for 0 <= m <= 1.

    Uses the AGM together with the accumulated sum of squared half
    differences: E = K * (1 - sum_n 2^{n-1} c_n^2) with c_0^2 = m.
    """
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"E(m) requires 0 <= m <= 1, got {m!r}")
    if m == 1.0:
        return 1.0
    k, csum, _ = _agm(m)
    return k * (1.0 - csum)


def elliptic_b(m: float) -> float:
    """B(m) = (E(m) - (1 - m) K(m)) / m for 0 <= m <= 1; B(0) = pi/4, B(1) = 1.

    Formed as K * (1/2 - sum_{n>=1} 2^{n-1} c_n^2 / m).  The sum is O(m^2),
    so nothing cancels at small m, where E - (1 - m) K loses log10(1/m) digits.
    """
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"B(m) requires 0 <= m <= 1, got {m!r}")
    if m == 1.0:
        return 1.0
    if m == 0.0:
        return 0.25 * math.pi
    k, _, tail = _agm(m)
    return k * (0.5 - tail / m)
