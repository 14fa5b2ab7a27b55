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
z^(b1 + b2 - beta) zbar^(g1 + g2 - beta).  The sum does only the work a pair
needs: when b1 and g2 share no non-zero axis, beta = 0 is the only term (and
C_j with j >= 1 skips the pair); otherwise only the beta with |beta| = j are
enumerated.  Inside the sum each (beta, gamma) is one integer, so a product's
key is an integer sum.  Each key still receives its addends in the order of
the pairs, so the result is bit-for-bit that of adding beta by beta.

The antisymmetrized first-order term satisfies

    C_1(f, g) - C_1(g, f) = (i/(2*pi)) * {f, g}

where the bracket is normalized as {f, g} = kappa * sum_j (d_z f d_zbar g
- d_zbar f d_z g) with kappa = 2*pi/i (BRACKET_NORMALIZATION); pass
scale=1j for the conventional complex-coordinates bracket.

Derivatives and products act on integer exponents exactly; round-off enters
only through the complex coefficients.  Public constructors validate exponents
and coefficients and merge repeated terms; library results are built canonical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product
from operator import add, index, mul, sub
from typing import Mapping, Sequence

import numpy as np

from .gaussian_calculus import (
    ComplexPoint,
    GaussianSymbol,
    PointLike,
    QuantParams,
    _integer,
    _is_integer,
    _real_square_sum,
    as_point,
    berezin_transform_closed,
    evaluate,
)
from .quadrature import NumericContractError

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


def _validate_index(entries, dim: int) -> tuple:
    entries = tuple(entries)
    if not all(map(_is_integer, entries)):
        raise ValueError(f"multi-index {entries!r} must hold integers")
    idx = tuple(map(index, entries))
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
        object.__setattr__(self, "dim", _integer("dim", self.dim, 1))
        merged: dict = {}
        for beta, gamma, coeff in self.terms:
            key = (_validate_index(beta, self.dim), _validate_index(gamma, self.dim))
            merged[key] = merged[key] + complex(coeff) if key in merged else complex(coeff)
            if not cmath.isfinite(merged[key]):
                raise ValueError(f"coefficient of the term beta={key[0]}, gamma={key[1]} is not finite: {merged[key]}")
        object.__setattr__(self, "terms", self._canonical(self.dim, merged).terms)

    @classmethod
    def _canonical(cls, dim: int, acc: dict) -> "PolynomialSymbol":
        """Unvalidated but for finiteness: acc maps library-built (beta, gamma) int tuples to complex."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        # keys are unique, so sorting never compares coefficients
        terms = tuple(sorted((b, g, c) for (b, g), c in acc.items() if c))
        for b, g, c in terms:
            if not cmath.isfinite(c):
                raise NumericContractError(f"coefficient of the term beta={b}, gamma={g} is not finite: {c}")
        object.__setattr__(self, "terms", terms)
        return self

    # -- construction -----------------------------------------------------

    @classmethod
    def from_terms(cls, dim: int, mapping: Mapping) -> "PolynomialSymbol":
        """Build from {(beta, gamma): coeff}."""
        return cls(dim, tuple((b, g, c) for (b, g), c in mapping.items()))

    @classmethod
    def constant(cls, dim: int, value: complex) -> "PolynomialSymbol":
        zeros = (0,) * _integer("dim", dim, 1)
        return cls(dim, ((zeros, zeros, value),))

    @classmethod
    def coordinate(cls, dim: int, axis: int = 0) -> "PolynomialSymbol":
        """The symbol z_axis."""
        dim = _integer("dim", dim, 1)
        axis = _integer("axis", axis, 0, dim - 1)
        beta = tuple(1 if j == axis else 0 for j in range(dim))
        return cls(dim, ((beta, (0,) * dim, 1.0),))

    @classmethod
    def conj_coordinate(cls, dim: int, axis: int = 0) -> "PolynomialSymbol":
        """The symbol conj(z_axis)."""
        dim = _integer("dim", dim, 1)
        axis = _integer("axis", axis, 0, dim - 1)
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

    def _binary(self, other, op) -> "PolynomialSymbol":
        if not isinstance(other, PolynomialSymbol):
            other = PolynomialSymbol.constant(self.dim, other)
        dim = _check_dims(self, other)
        return PolynomialSymbol._canonical(dim, _fold(self.terms_dict(), other.terms_dict().items(), op))

    def __add__(self, other):
        return self._binary(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, sub)

    def __neg__(self):
        return self.scaled(-1.0)

    def scaled(self, factor: complex) -> "PolynomialSymbol":
        factor = complex(factor)
        if not cmath.isfinite(factor):
            raise ValueError(f"scale factor must be finite, got {factor}")
        return PolynomialSymbol._canonical(self.dim, {(b, g): factor * c for b, g, c in self.terms})

    def __mul__(self, other):
        if not isinstance(other, PolynomialSymbol):
            return self.scaled(other)
        return _bidifferential(self, other, 1.0, 0)

    __rmul__ = scaled

    # -- calculus ------------------------------------------------------------

    def _derivative(self, axis: int, conj: bool) -> dict:
        acc: dict = {}
        for beta, gamma, coeff in self.terms:
            exps = gamma if conj else beta
            if exps[axis]:  # distinct terms have distinct derivatives
                lowered = tuple(k - 1 if j == axis else k for j, k in enumerate(exps))
                acc[(beta, lowered) if conj else (lowered, gamma)] = coeff * exps[axis]
        return acc

    def deriv_z(self, axis: int) -> "PolynomialSymbol":
        """Holomorphic derivative d/dz_axis."""
        return PolynomialSymbol._canonical(self.dim, self._derivative(_integer("axis", axis, 0, self.dim - 1), False))

    def deriv_zbar(self, axis: int) -> "PolynomialSymbol":
        """Antiholomorphic derivative d/dconj(z_axis)."""
        return PolynomialSymbol._canonical(self.dim, self._derivative(_integer("axis", axis, 0, self.dim - 1), True))

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
        terms = tuple((t["beta"], t["gamma"], complex(t["re"], t["im"])) for t in data["terms"])
        return cls(data["dim"], terms)


def _fold(acc: dict, pairs, op) -> dict:
    """acc op (key, coeff) pairs, in order, without the keys that end at zero."""
    for key, coeff in pairs:
        acc[key] = op(acc.get(key, 0j), coeff)
    return {key: coeff for key, coeff in acc.items() if coeff}


def _check_dims(f: PolynomialSymbol, g: PolynomialSymbol) -> int:
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    return f.dim


def _bidifferential(
    f: PolynomialSymbol, g: PolynomialSymbol, inv_alpha: float, j: int | None = None
) -> PolynomialSymbol:
    """The monomial-pair sum with 1/alpha = inv_alpha, only |beta| = j when j is given.

    The coefficient is rounded as (c1 * perm(b1, beta)) * (c2 * perm(g2, beta)) *
    (inv_alpha^|beta| / beta!), like a chain of derivatives.  A pair whose b1 and
    g2 share no non-zero axis has beta = 0 only, so it adds that one addend
    (nothing when j >= 1); otherwise only the beta of order j are enumerated.
    The two coefficient factors are tabulated per term and the weight per
    min(b1, g2), from the same operands in the same order.  Inside the sum
    (beta, gamma) is one integer in base deg f + deg g + 1, so a product's key
    is k1 + k2 minus beta packed into both halves.  Distinct beta give distinct
    keys, so every key receives its addends in (f-term, g-term) order, starting
    from 0j: the result is bit-for-bit that of summing beta by beta.
    """
    dim = _check_dims(f, g)
    base = f.degree + g.degree + 1  # every exponent of f, g and the result is one digit
    places = [base**axis for axis in reversed(range(dim))]  # big-endian: keys sort like (beta, gamma)
    lift = base**dim  # beta digits sit above the gamma digits
    limit = math.inf if j is None else j

    def pack(exps) -> int:
        return sum(map(mul, exps, places))

    orders: dict = {}  # cap -> [(shift, beta)]

    def betas(cap) -> list:
        """(shift, beta) for each beta <= cap of order j; shift packs beta into both halves."""
        if cap not in orders:
            candidates = product(*(range(min(k, limit) + 1) for k in cap))
            orders[cap] = [(pack(beta) * (lift + 1), beta) for beta in candidates if j is None or sum(beta) == j]
        return orders[cap]

    def tabulate(terms, conj: bool):
        """(key, support mask, differentiated exponents, shift -> coeff * perm) per term."""
        rows = []
        for beta, gamma, c in terms:
            exps = gamma if conj else beta
            support = sum(1 << axis for axis, k in enumerate(exps) if k)
            factors = {shift: c * math.prod(map(math.perm, exps, b)) for shift, b in betas(exps)}
            rows.append((pack(beta) * lift + pack(gamma), support, exps, factors))
        return rows

    weights: dict = {}  # min(b1, g2) -> [(shift, inv_alpha^|beta| / beta!)]
    right = tabulate(g.terms, True)
    acc: dict = {}
    for k1, s1, b1, p1 in tabulate(f.terms, False):
        for k2, s2, g2, p2 in right:
            if not s1 & s2:  # no shared axis: beta = 0 alone, whose weight is 1.0
                if not j:
                    acc[k1 + k2] = acc.get(k1 + k2, 0j) + p1[0] * p2[0] * 1.0
                continue
            cap = tuple(map(min, b1, g2))
            if cap not in weights:
                weights[cap] = [(shift, inv_alpha ** sum(beta) / math.prod(map(math.factorial, beta)))
                                for shift, beta in betas(cap)]
            for shift, weight in weights[cap]:
                key = k1 + k2 - shift
                acc[key] = acc.get(key, 0j) + p1[shift] * p2[shift] * weight
    # integer order is (beta, gamma) order, so _canonical sorts terms already in order
    split = [(*divmod(key, lift), c) for key, c in sorted(acc.items())]
    digits = {h: tuple(h // p % base for p in places) for h in {h for hi, lo, _ in split for h in (hi, lo)}}
    return PolynomialSymbol._canonical(dim, {(digits[hi], digits[lo]): c for hi, lo, c in split})


def c_term(f: PolynomialSymbol, g: PolynomialSymbol, j: int) -> PolynomialSymbol:
    """C_j(f, g): the monomial-pair coefficients perm(b1, beta) perm(g2, beta) / beta!, |beta| = j."""
    return _bidifferential(f, g, 1.0, _integer("order", j, 0))


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
    acc: dict = {}
    for axis in range(dim):
        for op, df, dg in ((add, f._derivative(axis, False), g._derivative(axis, True)),
                           (sub, f._derivative(axis, True), g._derivative(axis, False))):
            pairs = (((tuple(map(add, b1, b2)), tuple(map(add, g1, g2))), c1 * c2)
                     for (b1, g1), c1 in df.items() for (b2, g2), c2 in dg.items())
            acc = _fold(acc, _fold({}, pairs, add).items(), op)
    return PolynomialSymbol._canonical(dim, acc).scaled(scale)


def quantization_condition_residual(f: PolynomialSymbol, g: PolynomialSymbol) -> float:
    """Max coefficient magnitude of C_1(f,g) - C_1(g,f) - (i/(2*pi)) {f,g}.

    Zero (to round-off) certifies the first-order compatibility of the star
    product with the bracket.
    """
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
