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
the pairs, so the result is bit-for-bit that of adding beta by beta.  A
term's factor c * perm(exps, beta) is computed when a pair first needs it, so
a small product pays only for the factors its pairs use.

The antisymmetrized first-order term satisfies

    C_1(f, g) - C_1(g, f) = (i/(2*pi)) * {f, g}

where the bracket is normalized as {f, g} = kappa * sum_j (d_z f d_zbar g
- d_zbar f d_z g) with kappa = 2*pi/i (BRACKET_NORMALIZATION), the factor
that makes the condition an identity: `quantization_condition_residual`
scales the unscaled sum by kappa and then by i/(2*pi).  (1j / kappa) * {f, g}
is the conventional complex-coordinates bracket.  The bracket runs on the same
packed keys but is its own sum, axis by axis over derivative products, not
the pair sum, so the residual of this identity compares two routes.  The
residual itself is one pass on packed keys that builds no intermediate
symbol.

Derivatives and products act on integer exponents exactly; round-off enters
only through the complex coefficients.  Public constructors validate exponents
and coefficients and merge repeated terms; library results are built canonical.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import product, repeat
from operator import add, floordiv, index, mod, mul, sub
from typing import Sequence

import numpy as np

from .gaussian_calculus import (
    GaussianSymbol,
    PointLike,
    QuantParams,
    _integer,
    _is_integer,
    as_point,
    taylor_remainder,
)
from .quadrature import NumericContractError

__all__ = [
    "BRACKET_NORMALIZATION",
    "ExpansionReport",
    "PolynomialSymbol",
    "expansion_check",
    "quantization_condition_residual",
    "wick_star",
]

# kappa: bracket normalization making the first-order condition an identity
BRACKET_NORMALIZATION = 2.0 * math.pi / 1j
# below this sup-grid first-order remainder, its relative error passes about 1e-6
REMAINDER_FLOOR = 1e6 * sys.float_info.epsilon


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
        # keys are unique, so sorting never compares coefficients
        return cls._ordered(dim, sorted((b, g, c) for (b, g), c in _finite(acc, lambda key: key).items() if c))

    @classmethod
    def _ordered(cls, dim: int, terms) -> "PolynomialSymbol":
        """Unvalidated: terms are finite, non-zero and in (beta, gamma) order."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", tuple(terms))
        return self

    # -- construction -----------------------------------------------------

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
    def degree(self) -> int:
        return max((sum(b) + sum(g) for b, g, _ in self.terms), default=0)

    @property
    def degree_z(self) -> int:
        return max((sum(b) for b, g, _ in self.terms), default=0)

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

    def eval_point(self, z: PointLike) -> complex:
        point = as_point(z, self.dim)
        total = 0j
        for beta, gamma, coeff in self.terms:
            value = coeff
            for axis, c in enumerate(point.coords):
                value *= c ** beta[axis] * c.conjugate() ** gamma[axis]
            total += value
        return total


def _fold(acc: dict, pairs, op) -> dict:
    """acc op (key, coeff) pairs, in order, without the keys that end at zero."""
    for key, coeff in pairs:
        acc[key] = op(acc.get(key, 0j), coeff)
    return {key: coeff for key, coeff in acc.items() if coeff}


def _finite(acc: dict, name) -> dict:
    """acc, whose coefficients must be finite: the error names the term
    (beta, gamma) = name(key) of the least key with a non-finite one."""
    if not all(map(cmath.isfinite, acc.values())):
        key = min(key for key, coeff in acc.items() if not cmath.isfinite(coeff))
        beta, gamma = name(key)
        raise NumericContractError(f"coefficient of the term beta={beta}, gamma={gamma} is not finite: {acc[key]}")
    return acc


def _check_dims(f: PolynomialSymbol, g: PolynomialSymbol) -> int:
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    return f.dim


class _Keys:
    """Packed keys for f, g and every term of their products and brackets.

    (beta, gamma) is one integer: the digits of beta above those of gamma,
    big-endian in base deg f + deg g + 1, which holds every exponent of f, g
    and their results.  Integer order is (beta, gamma) order, a product's key
    is k1 + k2 minus what it differentiates, and a key is unpacked only to
    build a result or to name a term.  `f` and `g` hold the (key, beta,
    gamma, coeff) rows of the two operands.
    """

    def __init__(self, f: PolynomialSymbol, g: PolynomialSymbol):
        self.dim = _check_dims(f, g)
        self.base = f.degree + g.degree + 1
        self.places = [self.base**axis for axis in reversed(range(self.dim))]
        self.lift = self.base**self.dim
        self.f, self.g = self.rows(f), self.rows(g)

    def pack(self, exps) -> int:
        return sum(map(mul, exps, self.places))

    def rows(self, p: PolynomialSymbol) -> list:
        places, lifted = self.places, [place * self.lift for place in self.places]
        return [(sum(map(mul, beta, lifted)) + sum(map(mul, gamma, places)), beta, gamma, c)
                for beta, gamma, c in p.terms]

    def digits(self, half: int) -> tuple:
        """The exponents packed in one half of a key."""
        base = self.base
        return tuple([half // p % base for p in self.places])  # a list comprehension is the faster build

    def unpack(self, key: int) -> tuple:
        return tuple(map(self.digits, divmod(key, self.lift)))

    def symbol(self, acc: dict) -> PolynomialSymbol:
        """The canonical symbol of a packed sum: its integer order is the term order."""
        keys = sorted(filter(acc.__getitem__, _finite(acc, self.unpack)))  # the non-zero terms
        his = list(map(floordiv, keys, repeat(self.lift)))
        los = list(map(mod, keys, repeat(self.lift)))
        digits = {h: self.digits(h) for h in {*his, *los}}
        terms = zip(map(digits.__getitem__, his), map(digits.__getitem__, los), map(acc.__getitem__, keys))
        return PolynomialSymbol._ordered(self.dim, terms)


def _pair_sum(keys: _Keys, left: list, right: list, inv_alpha: float, j: int | None = None) -> dict:
    """The monomial-pair sum of the rows left, right with 1/alpha = inv_alpha,
    only |beta| = j when j is given.

    The coefficient is rounded as (c1 * perm(b1, beta)) * (c2 * perm(g2, beta)) *
    (inv_alpha^|beta| / beta!), like a chain of derivatives.  A pair whose b1 and
    g2 share no non-zero axis has beta = 0 only, so it adds that one addend
    (nothing when j >= 1); otherwise only the beta of order j are enumerated.
    A term's factor c * perm(exps, beta) is computed the first time a pair
    needs it, the weight once per min(b1, g2), from the same operands in the
    same order.  Distinct beta give distinct keys, so every key receives its
    addends in (left, right) row order, starting from 0j: the result is
    bit-for-bit that of summing beta by beta.
    """
    limit = math.inf if j is None else j
    both = keys.lift + 1  # a shift packs beta into both halves
    bits = [1 << axis for axis in range(keys.dim)]
    weights: dict = {}  # min(b1, g2) -> [(shift, beta, inv_alpha^|beta| / beta!)]

    # per row (key, support mask, differentiated exponents, coeff, shift -> coeff * perm);
    # perm(exps, 0) is the integer 1, so the beta = 0 factor is c * 1
    firsts = [(key, sum(map(mul, map(bool, beta), bits)), beta, c, {0: c * 1}) for key, beta, _, c in left]
    seconds = [(key, sum(map(mul, map(bool, gamma), bits)), gamma, c, {0: c * 1}) for key, _, gamma, c in right]
    acc: dict = {}
    for k1, s1, b1, c1, p1 in firsts:
        for k2, s2, g2, c2, p2 in seconds:
            if not s1 & s2:  # no shared axis: beta = 0 alone, whose weight is 1.0
                if not j:
                    acc[k1 + k2] = acc.get(k1 + k2, 0j) + p1[0] * p2[0] * 1.0
                continue
            cap = tuple(map(min, b1, g2))
            table = weights.get(cap)
            if table is None:
                betas = product(*(range(min(k, limit) + 1) for k in cap))
                table = weights[cap] = [
                    (keys.pack(beta) * both, beta, inv_alpha ** sum(beta) / math.prod(map(math.factorial, beta)))
                    for beta in betas if j is None or sum(beta) == j
                ]
            for shift, beta, weight in table:
                if shift not in p1:
                    p1[shift] = c1 * math.prod(map(math.perm, b1, beta))
                if shift not in p2:
                    p2[shift] = c2 * math.prod(map(math.perm, g2, beta))
                key = k1 + k2 - shift
                acc[key] = acc.get(key, 0j) + p1[shift] * p2[shift] * weight
    return acc


def _bidifferential(
    f: PolynomialSymbol, g: PolynomialSymbol, inv_alpha: float, j: int | None = None
) -> PolynomialSymbol:
    keys = _Keys(f, g)
    return keys.symbol(_pair_sum(keys, keys.f, keys.g, inv_alpha, j))


def wick_star(f: PolynomialSymbol, g: PolynomialSymbol, q: QuantParams) -> PolynomialSymbol:
    """Normal-ordered star product, the sum of the monomial-pair coefficients
    perm(b1, beta) perm(g2, beta) alpha^-|beta| / beta! over all beta."""
    return _bidifferential(f, g, 1.0 / q.alpha)


def _bracket_sum(keys: _Keys) -> dict:
    """sum_axis (d_z f d_zbar g - d_zbar f d_z g) on packed keys, unscaled.

    Per axis, each derivative product is summed on its own, from 0j in
    (f-term, g-term) order, and folded into the total without its zeros,
    as derivatives multiplied term by term would be.  It shares no code with
    the pair sum, so the first-order residual compares two routes.
    """
    acc: dict = {}
    for axis, place in enumerate(keys.places):
        lowered = place * keys.lift  # d_z lowers beta's digit, d_zbar gamma's (by place)
        dz_f, dz_g = ([(k - lowered, c * b[axis]) for k, b, _, c in rows if b[axis]] for rows in (keys.f, keys.g))
        dzbar_f, dzbar_g = ([(k - place, c * gm[axis]) for k, _, gm, c in rows if gm[axis]]
                            for rows in (keys.f, keys.g))
        for op, df, dg in ((add, dz_f, dzbar_g), (sub, dzbar_f, dz_g)):
            step = _fold({}, ((k1 + k2, c1 * c2) for k1, c1 in df for k2, c2 in dg), add)
            acc = _fold(acc, step.items(), op)
    return acc


def quantization_condition_residual(f: PolynomialSymbol, g: PolynomialSymbol) -> float:
    """Max coefficient magnitude of C_1(f,g) - C_1(g,f) - (i/(2*pi)) {f,g}.

    Zero (to round-off) certifies the first-order compatibility of the star
    product with the bracket.  One pass on packed keys: each stage (C_1(f, g),
    C_1(g, f), their difference, the bracket, the bracket times kappa and
    then times i/(2*pi), the final difference) drops its zeros and refuses a
    non-finite coefficient, as the same stages on symbols would.
    """
    keys = _Keys(f, g)

    def stage(acc: dict) -> dict:
        return {key: c for key, c in _finite(acc, keys.unpack).items() if c}

    c1_fg = stage(_pair_sum(keys, keys.f, keys.g, 1.0, 1))
    c1_gf = stage(_pair_sum(keys, keys.g, keys.f, 1.0, 1))
    lhs = stage(_fold(c1_fg, c1_gf.items(), sub))
    rhs = stage(_bracket_sum(keys))
    for factor in (BRACKET_NORMALIZATION, 1j / (2.0 * math.pi)):
        rhs = stage({key: factor * c for key, c in rhs.items()})
    return max(map(abs, stage(_fold(lhs, rhs.items(), sub)).values()), default=0.0)


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


def expansion_check(g: GaussianSymbol, alphas: Sequence[float], grid: Sequence[PointLike]) -> ExpansionReport:
    """Check that the transform equals identity + Lap/(4*alpha) + O(alpha^-2).

    The residual at alpha is A * alpha * (sup-grid `taylor_remainder`).  Needs
    at least three strictly increasing alphas; the fitted log-log slope of the
    residuals is -1 for compressions lam > 0.

    The remainder is a difference of two numbers of size about 1, so below
    REMAINDER_FLOOR = 1e6 * eps its relative error passes about 1e-6.  For
    lam > 0, a supremum below that floor at some alpha raises
    NumericContractError naming lambda and alpha; lam = 0 keeps its exact
    zeros and no slope.
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
        remainder = max(taylor_remainder(g, QuantParams(a), point) for point in points)
        if g.compression > 0.0 and remainder < REMAINDER_FLOOR:
            raise NumericContractError(
                f"the first-order remainder {remainder!r} is lost to round-off at lambda={g.compression!r}, alpha={a!r}"
            )
        residuals.append(g.amplitude * a * remainder)
    slope = None
    if all(r > 0.0 for r in residuals):
        slope = float(np.polyfit(np.log(alphas), np.log(residuals), 1)[0])
    return ExpansionReport(alphas=tuple(alphas), residual_norms=tuple(residuals), fitted_slope=slope)
