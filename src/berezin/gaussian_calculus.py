"""Closed-form algebra of Gaussian symbols under the smoothing transform.

The symbol family

    g(z) = A * exp(-lam/4 * sum_j (z_j + conj(z_j))^2),   z in C^n,

depends only on Re(z) and is closed under the coherent-state smoothing
transform with Gaussian weight (alpha/pi)^n * exp(-alpha*|z|^2): the width
contracts as lam -> alpha*lam/(alpha + lam) and the amplitude picks up the
factor (alpha/(alpha + lam))^(n/2).  On this family the transform coincides
with the heat semigroup exp(t*Lap/4) at t = 1/alpha, where
Lap = 4 * sum_j d/dz_j d/dconj(z_j); `heat_evolve` exposes that reading.

The amplitude is carried as a free linear parameter throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Real
from operator import index
from typing import Sequence, Union

__all__ = [
    "ComplexPoint",
    "GaussianSymbol",
    "NumericContractError",
    "QuantParams",
    "as_point",
    "berezin_transform_closed",
    "evaluate",
    "gaussian_moment",
    "heat_evolve",
    "taylor_remainder",
]

PointLike = Union["ComplexPoint", complex, float, Sequence[complex]]


class NumericContractError(ValueError):
    """A numeric result is not a finite number the contract can vouch for."""


def _is_integer(k) -> bool:
    """The library's one integer test: int-like (has __index__, so numpy
    integers pass) and not bool."""
    return not isinstance(k, bool) and hasattr(k, "__index__")


def _integer(name: str, value, low: int, high: float = math.inf) -> int:
    """`operator.index(value)` for an integer in [low, high]; anything else
    (bool, float, str, out of range) raises a ValueError naming `name`."""
    if _is_integer(value) and low <= index(value) <= high:
        return index(value)
    if high < math.inf:
        rule = f"an integer in [{low}, {high}]"
    else:
        rule = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _real(name: str, value, zero: bool = False) -> float:
    """`float(value)` for a finite real number (numpy floats and integers
    pass) above 0, or at 0 when `zero`; anything else (bool, str, NaN, an
    infinity, out of range) raises a ValueError naming `name`."""
    if isinstance(value, Real) and not isinstance(value, bool):
        x = float(value)
        if math.isfinite(x) and (x > 0.0 or (zero and x == 0.0)):
            return x
    rule = "non-negative and finite" if zero else "positive and finite"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class ComplexPoint:
    """A point z in C^n with the convention z_j = x_j + i*y_j.

    The associated measure is Lebesgue area dA = prod_j dx_j dy_j.
    """

    coords: tuple

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        for c in coords:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coordinate {c!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def origin(cls, dim: int) -> "ComplexPoint":
        return cls((0j,) * dim)


def as_point(z: PointLike, dim: int | None = None) -> ComplexPoint:
    """Normalize z (scalar, sequence, or ComplexPoint) and check its dimension."""
    if isinstance(z, ComplexPoint):
        point = z
    elif isinstance(z, (int, float, complex)):
        point = ComplexPoint((complex(z),))
    else:
        point = ComplexPoint(tuple(z))
    if dim is not None and point.dim != dim:
        raise ValueError(f"dimension mismatch: point has dim {point.dim}, expected {dim}")
    return point


@dataclass(frozen=True)
class QuantParams:
    """The quantum parameter alpha = 1/h; alpha -> infinity is the classical limit."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real("alpha", self.alpha))


@dataclass(frozen=True)
class GaussianSymbol:
    """A * exp(-compression/4 * sum_j (z_j + conj(z_j))^2) on C^dim.

    Invariant under pure imaginary shifts: the value depends only on Re(z).
    """

    dim: int
    amplitude: float = 1.0
    compression: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer("dim", self.dim, 1))
        object.__setattr__(self, "amplitude", _real("amplitude", self.amplitude))
        object.__setattr__(self, "compression", _real("lambda", self.compression, zero=True))


def _real_square_sum(point: ComplexPoint) -> float:
    # sum_j (z_j + conj(z_j))^2 = sum_j (2*Re z_j)^2
    total = 0.0
    for c in point.coords:
        t = 2.0 * c.real
        total += t * t
    return total


def _half_power(x: float, n: int) -> float:
    # x**(n/2) with a single square root; exact for dyadic x at small n
    out = x ** (n // 2)
    if n % 2:
        out *= math.sqrt(x)
    return out


def evaluate(g: GaussianSymbol, z: PointLike) -> float:
    """Evaluate the symbol at z; the result is real and positive."""
    point = as_point(z, g.dim)
    return g.amplitude * math.exp(-0.25 * g.compression * _real_square_sum(point))


def berezin_transform_closed(g: GaussianSymbol, q: QuantParams) -> GaussianSymbol:
    """Closed form of the smoothing transform on the Gaussian family.

    amplitude' = amplitude * (alpha/(alpha + lam))^(n/2)
    compression' = alpha*lam/(alpha + lam)

    Linear in the amplitude; compression 0 is a fixed point.  Applied at
    alpha_1 and then at alpha_2, reciprocal widths add:
    1/lam'' = 1/lam + 1/alpha_1 + 1/alpha_2 (for lam > 0).  An amplitude'
    below the double range raises NumericContractError.
    """
    ratio = q.alpha / (q.alpha + g.compression)
    amplitude = g.amplitude * _half_power(ratio, g.dim)
    if amplitude == 0.0:
        raise NumericContractError(
            f"transformed amplitude underflows to 0 at amplitude={g.amplitude!r}, "
            f"lambda={g.compression!r}, alpha={q.alpha!r}, n={g.dim}"
        )
    return GaussianSymbol(dim=g.dim, amplitude=amplitude, compression=g.compression * ratio)


def heat_evolve(g: GaussianSymbol, q: QuantParams) -> GaussianSymbol:
    """Heat flow exp(t*Lap/4) of the symbol at time t = 1/alpha.

    On this family the flow coincides with the smoothing transform, so this
    delegates to the same arithmetic path and agrees bit-for-bit with
    `berezin_transform_closed`.
    """
    return berezin_transform_closed(g, q)


def _first_order(g: GaussianSymbol, q: QuantParams, point: ComplexPoint) -> float:
    """g + Lap(g)/(4*alpha), the transform to first order in 1/alpha, at the point:

        A * [1 + lam^2*u^2/(4*alpha) - (n/2)*(lam/alpha)] * exp(-lam*u^2/4),

    u^2 = sum_j (z_j + conj(z_j))^2.  A factor outside the double range
    raises NumericContractError naming lambda and alpha.
    """
    lam = g.compression
    a = q.alpha
    u2 = _real_square_sum(point)
    factor = 1.0 + lam * lam * u2 / (4.0 * a) - 0.5 * g.dim * lam / a
    if not math.isfinite(factor):
        raise NumericContractError(
            f"Taylor remainder is not finite (first-order factor {factor!r}) at lambda={lam!r}, alpha={a!r}"
        )
    return g.amplitude * factor * math.exp(-0.25 * lam * u2)


def taylor_remainder(g: GaussianSymbol, q: QuantParams, z: PointLike) -> float:
    """Deviation of the transform from its first order in 1/alpha at z.

    Compares (with amplitude fixed to 1) the closed-form transform against
    its first order (`_first_order`, which refuses a factor beyond the double
    range); the remainder decays as O(alpha^-2).
    """
    point = as_point(z, g.dim)
    unit = GaussianSymbol(dim=g.dim, amplitude=1.0, compression=g.compression)
    return abs(evaluate(berezin_transform_closed(unit, q), point) - _first_order(unit, q, point))


def gaussian_moment(k: int, a: float) -> float:
    """integral of x^k * exp(-a*x^2) over the real line, for k >= 0.

    For even k it is Gamma((k+1)/2) / a^((k+1)/2), formed as exp(lgamma((k+1)/2)
    - (k+1)/2 * log a) to a relative error of at most 4 eps (1 + |lgamma((k+1)/2)|
    + |(k+1)/2 * log a|), eps = 2^-52 (below 5e-14 for k <= 78, a in [1e-3, 1e3]).
    A value outside the normal double range raises NumericContractError naming
    k and a.  Odd k gives exactly 0.0, by symmetry.
    """
    k = _integer("k", k, 0)
    a = _real("a", a)
    if k % 2:
        return 0.0
    half = (k + 1) / 2
    log_value = math.lgamma(half) - half * math.log(a)
    if not math.log(sys.float_info.min) <= log_value <= math.log(sys.float_info.max):
        raise NumericContractError(
            f"Gaussian moment exp({log_value!r}) is outside the normal double range at k={k!r}, a={a!r}"
        )
    return math.exp(log_value)
