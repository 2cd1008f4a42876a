"""Symmetric barrier families and their analytic continuations.

Every model satisfies V(0) = 0 (barrier maximum pinned at the origin),
V(-x) = V(x), and V strictly decreasing for x > 0.  Each family also
exposes, in closed form, the two continuations the reflection integrals
need: the imaginary part of the inverse profile on the classically
forbidden zone, and the restriction of V to the imaginary coordinate
axis, where it is real and increasing up to the family's pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import DomainError

__all__ = [
    "PotentialKind",
    "PotentialModel",
    "PhysicalConstants",
    "v",
    "im_v_inverse",
    "v_on_imaginary_axis",
]

ArrayLike = Union[float, np.ndarray]


class PotentialKind(str, Enum):
    INVERSE_HO = "inverse_ho"
    SECH2 = "sech2"
    LORENTZIAN = "lorentzian"


def _positive_finite(name: str, value) -> float:
    if value is None or not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PhysicalConstants:
    """Semiclassical scale: Planck constant and particle mass, both > 0."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _positive_finite("hbar", self.hbar)
        _positive_finite("mass", self.mass)


@dataclass(frozen=True)
class PotentialModel:
    """A symmetric barrier with maximum V = 0 at the origin.

    Families
    --------
    inverse_ho : V(x) = -alpha x^2 / 2          (unbounded below, no flat tail)
    sech2      : V(x) = -v0 tanh^2(x/a)         (tends to -v0 as |x| -> inf)
    lorentzian : V(x) = -v0 x^2 / (x^2 + a^2)   (tends to -v0 as |x| -> inf)
    """

    kind: PotentialKind
    alpha: float | None = None
    v0: float | None = None
    a: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", PotentialKind(self.kind))
        if self.kind is PotentialKind.INVERSE_HO:
            _positive_finite("alpha", self.alpha)
            if self.v0 is not None or self.a is not None:
                raise DomainError("inverse_ho takes only alpha")
        else:
            _positive_finite("v0", self.v0)
            _positive_finite("a", self.a)
            if self.alpha is not None:
                raise DomainError(f"{self.kind.value} takes v0 and a, not alpha")

    @classmethod
    def inverse_ho(cls, alpha: float) -> "PotentialModel":
        return cls(PotentialKind.INVERSE_HO, alpha=alpha)

    @classmethod
    def sech2(cls, v0: float, a: float) -> "PotentialModel":
        return cls(PotentialKind.SECH2, v0=v0, a=a)

    @classmethod
    def lorentzian(cls, v0: float, a: float) -> "PotentialModel":
        return cls(PotentialKind.LORENTZIAN, v0=v0, a=a)

    @property
    def curvature_top(self) -> float:
        """-V''(0), the curvature at the top of the barrier."""
        if self.kind is PotentialKind.INVERSE_HO:
            return self.alpha
        return 2.0 * self.v0 / (self.a * self.a)

    @property
    def imag_axis_pole(self) -> float:
        """Smallest y > 0 where V(iy) diverges; inf when there is none."""
        if self.kind is PotentialKind.SECH2:
            return 0.5 * math.pi * self.a
        if self.kind is PotentialKind.LORENTZIAN:
            return self.a
        return math.inf


def _ret(out: np.ndarray, like) -> ArrayLike:
    if np.ndim(like) == 0:
        return float(out)
    return out


def v(model: PotentialModel, x: ArrayLike) -> ArrayLike:
    """Evaluate the barrier at real position x.

    Total on finite x; the result is <= 0 and vanishes only at x = 0.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError("x must be finite")
    # x^2 may overflow for finite x; saturation to the asymptote is the
    # intended semantics, so the overflow lanes are handled, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        if model.kind is PotentialKind.INVERSE_HO:
            out = -0.5 * model.alpha * xs * xs
        elif model.kind is PotentialKind.SECH2:
            t = np.tanh(xs / model.a)
            out = -model.v0 * t * t
        else:
            # -v0 * x^2 / (x^2 + a^2) in place, to spare grid-sized
            # temporaries on long oracle grids; x^2 = inf saturates to -v0.
            out = np.multiply(xs, xs, out=np.empty_like(xs))
            den = out + model.a * model.a
            overflow = np.isinf(out)
            out *= -model.v0
            out /= den
            out[overflow] = -model.v0
    return _ret(out, x)


def im_v_inverse(model: PotentialModel, xi: ArrayLike) -> ArrayLike:
    """Im of the inverse profile on the forbidden zone, non-negative branch.

    ``xi`` is the forbidden-zone argument E - p^2/2m and must be positive.
    The returned length grows monotonically with xi:

    inverse_ho : sqrt(2 xi / alpha)
    sech2      : a * arctan(sqrt(xi / v0))   [= a * arccos(sqrt(v0/(xi+v0)))]
    lorentzian : a * sqrt(xi / (v0 + xi))
    """
    xs = np.asarray(xi, dtype=float)
    if not np.all(xs > 0.0):
        raise DomainError("xi must be positive inside the forbidden zone")
    # xi / alpha and xi / v0 may overflow; inf is the intended saturation
    # (arctan(inf) = pi/2 for sech2).
    with np.errstate(over="ignore"):
        if model.kind is PotentialKind.INVERSE_HO:
            out = np.sqrt(2.0 * xs / model.alpha)
        elif model.kind is PotentialKind.SECH2:
            # arctan form of the arccos branch: stable as xi -> 0+.
            out = model.a * np.arctan(np.sqrt(xs / model.v0))
        else:
            if not np.all(np.isfinite(xs)):
                raise DomainError("xi must be finite for the lorentzian inverse")
            out = model.a * np.sqrt(xs / (model.v0 + xs))
    return _ret(out, xi)


def v_on_imaginary_axis(model: PotentialModel, y: ArrayLike) -> ArrayLike:
    """V evaluated at z = iy, real and increasing on the valid domain.

    inverse_ho : alpha y^2 / 2                  (y >= 0)
    sech2      : v0 tan^2(y/a)                  (0 <= y < pi a / 2)
    lorentzian : v0 y^2 / ((a - y)(a + y))      (0 <= y < a)
    """
    ys = np.asarray(y, dtype=float)
    if not np.all(ys >= 0.0):
        raise DomainError("y must be non-negative")
    pole = model.imag_axis_pole
    if np.any(ys >= pole):
        raise DomainError(f"y must stay below the pole at y = {pole:g}")
    # Products of extreme scales may overflow, or underflow to 0 in the
    # Lorentzian's denominator; the inf or nan they give is passed on, not
    # warned about.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if model.kind is PotentialKind.INVERSE_HO:
            out = 0.5 * model.alpha * ys * ys
        elif model.kind is PotentialKind.SECH2:
            t = np.tan(ys / model.a)
            out = model.v0 * t * t
        else:
            out = model.v0 * ys * ys / ((model.a - ys) * (model.a + ys))
    return _ret(out, y)
