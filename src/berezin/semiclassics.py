"""Star-product algebra on polynomial symbols and the expansion check.

Polynomial observables are finite sums  sum c * z^beta * conj(z)^gamma  with
multi-indices beta, gamma in N^n.  The star product uses the normal-ordered
(Wick) realization for the Gaussian weight:

    f * g = sum_beta alpha^(-|beta|) / beta! * d_z^beta f * d_zbar^beta g,

a finite sum on polynomials; the order-j bidifferential term is
C_j(f, g) = sum_{|beta| = j} (1/beta!) d_z^beta f d_zbar^beta g, so
C_0(f, g) = f*g and the product is exactly associative with unit 1.

As d_z^beta z^b = perm(b, beta) z^(b - beta) with perm(b, k) = b!/(b-k)!, the
product, each C_j and the star product are one sum over pairs of terms: for
each beta <= min(b1, g2), c1 z^b1 zbar^g1 and c2 z^b2 zbar^g2 add the monomial-pair
coefficient c1 c2 perm(b1, beta) perm(g2, beta) alpha^(-|beta|) / beta! to
z^(b1 + b2 - beta) zbar^(g1 + g2 - beta).

The antisymmetrized first-order term satisfies

    C_1(f, g) - C_1(g, f) = (i/(2*pi)) * {f, g}

where the bracket is normalized as {f, g} = kappa * sum_j (d_z f d_zbar g
- d_zbar f d_z g) with kappa = 2*pi/i (BRACKET_NORMALIZATION); pass
scale=1j for the conventional complex-coordinates bracket.

Derivatives and products act on integer exponents exactly; round-off enters
only through the complex coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import add, sub
from typing import Mapping, Sequence

import numpy as np

from .gaussian_calculus import (
    ComplexPoint,
    GaussianSymbol,
    PointLike,
    QuantParams,
    _real_square_sum,
    as_point,
    berezin_transform_closed,
    evaluate,
)

__all__ = [
    "BRACKET_NORMALIZATION",
    "ExpansionReport",
    "PolynomialSymbol",
    "c_term",
    "expansion_check",
    "poisson_bracket",
    "quantization_condition_residual",
    "wick_star",
]

# kappa: bracket normalization making the first-order condition an identity
BRACKET_NORMALIZATION = 2.0 * math.pi / 1j


def _validate_index(index, dim: int) -> tuple:
    idx = tuple(map(int, index))
    if len(idx) != dim:
        raise ValueError(f"multi-index {idx} has length {len(idx)}, expected {dim}")
    if min(idx) < 0:
        raise ValueError(f"multi-index entries must be non-negative, got {idx}")
    return idx


@dataclass(frozen=True)
class PolynomialSymbol:
    """Immutable polynomial in (z, conj z); terms sorted lexicographically."""

    dim: int
    terms: tuple  # ((beta, gamma, coeff), ...) with complex coeff, no zeros

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        canonical = []
        for beta, gamma, coeff in self.terms:
            beta = _validate_index(beta, self.dim)
            gamma = _validate_index(gamma, self.dim)
            coeff = complex(coeff)
            if coeff != 0:
                canonical.append((beta, gamma, coeff))
        canonical.sort(key=lambda t: (t[0], t[1]))
        object.__setattr__(self, "terms", tuple(canonical))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_terms(cls, dim: int, mapping: Mapping) -> "PolynomialSymbol":
        """Build from {(beta, gamma): coeff}."""
        return cls(dim, tuple((b, g, c) for (b, g), c in mapping.items()))

    @classmethod
    def constant(cls, dim: int, value: complex) -> "PolynomialSymbol":
        zeros = (0,) * dim
        return cls(dim, ((zeros, zeros, value),))

    @classmethod
    def coordinate(cls, dim: int, axis: int = 0) -> "PolynomialSymbol":
        """The symbol z_axis."""
        beta = tuple(1 if j == axis else 0 for j in range(dim))
        return cls(dim, ((beta, (0,) * dim, 1.0),))

    @classmethod
    def conj_coordinate(cls, dim: int, axis: int = 0) -> "PolynomialSymbol":
        """The symbol conj(z_axis)."""
        gamma = tuple(1 if j == axis else 0 for j in range(dim))
        return cls(dim, (((0,) * dim, gamma, 1.0),))

    # -- queries -----------------------------------------------------------

    def terms_dict(self) -> dict:
        return {(beta, gamma): coeff for beta, gamma, coeff in self.terms}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((sum(b) + sum(g) for b, g, _ in self.terms), default=0)

    @property
    def degree_z(self) -> int:
        return max((sum(b) for b, g, _ in self.terms), default=0)

    @property
    def degree_zbar(self) -> int:
        return max((sum(g) for b, g, _ in self.terms), default=0)

    def max_coeff(self) -> float:
        return max((abs(c) for _, _, c in self.terms), default=0.0)

    # -- ring operations ----------------------------------------------------

    def _binary(self, other, sign: int) -> "PolynomialSymbol":
        if not isinstance(other, PolynomialSymbol):
            other = PolynomialSymbol.constant(self.dim, other)
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        acc = dict(self.terms_dict())
        for beta, gamma, coeff in other.terms:
            key = (beta, gamma)
            acc[key] = acc.get(key, 0j) + sign * coeff
        return PolynomialSymbol.from_terms(self.dim, acc)

    def __add__(self, other):
        return self._binary(other, +1)

    def __radd__(self, other):
        return self._binary(other, +1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def __neg__(self):
        return self.scaled(-1.0)

    def scaled(self, factor: complex) -> "PolynomialSymbol":
        return PolynomialSymbol(self.dim, tuple((b, g, factor * c) for b, g, c in self.terms))

    def __mul__(self, other):
        if not isinstance(other, PolynomialSymbol):
            return self.scaled(other)
        return _bidifferential(self, other, 1.0, 0)

    def __rmul__(self, other):
        return self.scaled(other)

    # -- calculus ------------------------------------------------------------

    def deriv_z(self, axis: int) -> "PolynomialSymbol":
        """Holomorphic derivative d/dz_axis."""
        acc: dict = {}
        for beta, gamma, coeff in self.terms:
            if beta[axis] == 0:
                continue
            new_beta = tuple(k - 1 if j == axis else k for j, k in enumerate(beta))
            key = (new_beta, gamma)
            acc[key] = acc.get(key, 0j) + coeff * beta[axis]
        return PolynomialSymbol.from_terms(self.dim, acc)

    def deriv_zbar(self, axis: int) -> "PolynomialSymbol":
        """Antiholomorphic derivative d/dconj(z_axis)."""
        acc: dict = {}
        for beta, gamma, coeff in self.terms:
            if gamma[axis] == 0:
                continue
            new_gamma = tuple(k - 1 if j == axis else k for j, k in enumerate(gamma))
            key = (beta, new_gamma)
            acc[key] = acc.get(key, 0j) + coeff * gamma[axis]
        return PolynomialSymbol.from_terms(self.dim, acc)

    # -- evaluation -----------------------------------------------------------

    def eval_many(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on broadcastable complex coordinate arrays (one per axis)."""
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinate arrays, got {len(coords)}")
        shape = np.broadcast(*coords).shape if self.dim > 1 else np.asarray(coords[0]).shape
        out = np.zeros(shape, dtype=complex)
        for beta, gamma, coeff in self.terms:
            term = np.full(shape, coeff, dtype=complex)
            for axis in range(self.dim):
                c = np.asarray(coords[axis])
                if beta[axis]:
                    term = term * c ** beta[axis]
                if gamma[axis]:
                    term = term * np.conj(c) ** gamma[axis]
            out += term
        return out

    def eval_point(self, z: PointLike) -> complex:
        point = as_point(z, self.dim)
        total = 0j
        for beta, gamma, coeff in self.terms:
            value = coeff
            for axis, c in enumerate(point.coords):
                value *= c ** beta[axis] * c.conjugate() ** gamma[axis]
            total += value
        return total

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"beta": list(beta), "gamma": list(gamma), "re": coeff.real, "im": coeff.imag}
                for beta, gamma, coeff in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PolynomialSymbol":
        terms = tuple(
            (tuple(t["beta"]), tuple(t["gamma"]), complex(t["re"], t["im"]))
            for t in data["terms"]
        )
        return cls(int(data["dim"]), terms)


def _check_dims(f: PolynomialSymbol, g: PolynomialSymbol) -> int:
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    return f.dim


def _bidifferential(
    f: PolynomialSymbol, g: PolynomialSymbol, inv_alpha: float, j: int | None = None
) -> PolynomialSymbol:
    """The monomial-pair sum with 1/alpha = inv_alpha, only |beta| = j when j is given.

    The coefficient is rounded as (c1 * perm(b1, beta)) * (c2 * perm(g2, beta)) *
    (inv_alpha^|beta| / beta!), like a chain of derivatives.
    """
    dim = _check_dims(f, g)
    cap = math.inf if j is None else j
    acc: dict = {}
    for b1, g1, c1 in f.terms:
        for b2, g2, c2 in g.terms:
            for beta in product(*(range(min(x, y, cap) + 1) for x, y in zip(b1, g2))):
                order = sum(beta)
                if j is not None and order != j:
                    continue
                p1 = p2 = factorial = 1
                for x, y, k in zip(b1, g2, beta):
                    if k:
                        p1 *= math.perm(x, k)
                        p2 *= math.perm(y, k)
                        factorial *= math.factorial(k)
                key = (tuple(map(sub, map(add, b1, b2), beta)), tuple(map(sub, map(add, g1, g2), beta)))
                acc[key] = acc.get(key, 0j) + (c1 * p1) * (c2 * p2) * (inv_alpha**order / factorial)
    return PolynomialSymbol.from_terms(dim, acc)


def c_term(f: PolynomialSymbol, g: PolynomialSymbol, j: int) -> PolynomialSymbol:
    """C_j(f, g): the monomial-pair coefficients perm(b1, beta) perm(g2, beta) / beta!, |beta| = j."""
    if not isinstance(j, int) or j < 0:
        raise ValueError(f"order must be a non-negative integer, got {j!r}")
    return _bidifferential(f, g, 1.0, j)


def wick_star(f: PolynomialSymbol, g: PolynomialSymbol, q: QuantParams) -> PolynomialSymbol:
    """Normal-ordered star product, the sum of the monomial-pair coefficients
    perm(b1, beta) perm(g2, beta) alpha^-|beta| / beta! over all beta."""
    return _bidifferential(f, g, 1.0 / q.alpha)


def poisson_bracket(
    f: PolynomialSymbol,
    g: PolynomialSymbol,
    scale: complex = BRACKET_NORMALIZATION,
) -> PolynomialSymbol:
    """{f, g} = scale * sum_j (d_z f d_zbar g - d_zbar f d_z g).

    The default scale kappa = 2*pi/i pairs with the first-order condition;
    scale=1j recovers the conventional complex-coordinates bracket.
    """
    dim = _check_dims(f, g)
    acc = PolynomialSymbol(dim, ())
    for axis in range(dim):
        acc = acc + f.deriv_z(axis) * g.deriv_zbar(axis) - f.deriv_zbar(axis) * g.deriv_z(axis)
    return acc.scaled(scale)


def quantization_condition_residual(f: PolynomialSymbol, g: PolynomialSymbol) -> float:
    """Max coefficient magnitude of C_1(f,g) - C_1(g,f) - (i/(2*pi)) {f,g}.

    Zero (to round-off) certifies the first-order compatibility of the star
    product with the bracket.
    """
    _check_dims(f, g)
    lhs = c_term(f, g, 1) - c_term(g, f, 1)
    rhs = poisson_bracket(f, g).scaled(1j / (2.0 * math.pi))
    return (lhs - rhs).max_coeff()


@dataclass(frozen=True)
class ExpansionReport:
    """Residuals of the first-order expansion over increasing alpha.

    residual(alpha) = sup over the grid of
        | alpha*(transform(g) - g) - Lap(g)/4 |,
    which decays like 1/alpha; fitted_slope is the log-log fit (None when a
    residual vanishes exactly, e.g. for constants).
    """

    alphas: tuple
    residual_norms: tuple
    fitted_slope: float | None

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        residuals = tuple(float(r) for r in self.residual_norms)
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("alphas must be strictly increasing")
        if any(r < 0 for r in residuals):
            raise ValueError("residual norms must be non-negative")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "residual_norms", residuals)


def _laplacian_quarter(g: GaussianSymbol, point: ComplexPoint) -> float:
    # (Lap g)/4 = (lam^2 u^2 - 2 n lam)/4 * g with u^2 = sum (z_j + conj z_j)^2
    lam = g.compression
    u2 = _real_square_sum(point)
    return 0.25 * (lam * lam * u2 - 2.0 * g.dim * lam) * evaluate(g, point)


def expansion_check(g: GaussianSymbol, alphas: Sequence[float], grid: Sequence[PointLike]) -> ExpansionReport:
    """Check that the transform equals identity + Lap/(4*alpha) + O(alpha^-2).

    Needs at least three strictly increasing alphas; the fitted log-log slope
    of the sup-grid residuals is -1 for compressions lam > 0.
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 3:
        raise ValueError("need at least three alpha values to fit a slope")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    points = [as_point(p, g.dim) for p in grid]
    if not points:
        raise ValueError("grid must contain at least one point")
    residuals = []
    for a in alphas:
        q = QuantParams(a)
        transformed = berezin_transform_closed(g, q)
        worst = 0.0
        for point in points:
            value = a * (evaluate(transformed, point) - evaluate(g, point))
            worst = max(worst, abs(value - _laplacian_quarter(g, point)))
        residuals.append(worst)
    slope = None
    if all(r > 0.0 for r in residuals):
        slope = float(np.polyfit(np.log(alphas), np.log(residuals), 1)[0])
    return ExpansionReport(alphas=tuple(alphas), residual_norms=tuple(residuals), fitted_slope=slope)
