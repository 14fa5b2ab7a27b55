"""Weighted Bergman (Segal-Bargmann) space machinery on C^n.

Weight, reproducing kernel, the inner-product trace functional, and the
purity index of the squared transformed symbol:

    rho(z) = (alpha/pi)^n * exp(-alpha * z . conj(z))      (total mass 1)
    K(z, w) = exp(alpha * z . conj(w))                      (reproducing)
    Tr(g)  = (alpha/pi)^n * int g(z) exp(-alpha*|z|^2) dA(z)

For the Gaussian family the trace closes: Tr(A*exp(-lam*(Re z)^2 summed))
= A * (alpha/(alpha + lam))^(n/2).  The purity index is the normalized
trace (alpha/(alpha + 3*lam))^(n/2) of the squared transformed symbol; it
tends to 1 in the classical limit alpha -> infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gaussian_calculus import (
    ComplexPoint,
    GaussianSymbol,
    NumericContractError,
    PointLike,
    QuantParams,
    _half_power,
    _integer,
    _real,
    as_point,
    berezin_transform_closed,
)
from .quadrature import QuadratureRule1D, berezin_transform_numeric, integrate
from .semiclassics import PolynomialSymbol

__all__ = [
    "TraceReport",
    "WeightSpec",
    "kernel",
    "purity_index",
    "reproducing_residual",
    "trace",
    "trace_numeric",
    "weight",
    "weight_mass_numeric",
]


@dataclass(frozen=True)
class WeightSpec:
    """Dimension and quantum parameter of the Gaussian weight rho."""

    dim: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer("dim", self.dim, 1))
        object.__setattr__(self, "alpha", _real("alpha", self.alpha))

    @property
    def quant(self) -> QuantParams:
        return QuantParams(self.alpha)


@dataclass(frozen=True)
class TraceReport:
    """Trace data of the squared transformed symbol (amplitude fixed to 1)."""

    raw_trace: float
    normalized_trace: float
    alpha: float
    lam: float
    dim: int

    def __post_init__(self):
        if not (0.0 < self.normalized_trace <= 1.0):
            raise ValueError(f"normalized trace must lie in (0, 1], got {self.normalized_trace!r}")
        if not (math.isfinite(self.raw_trace) and self.raw_trace > 0.0):
            raise ValueError(f"raw trace must be positive and finite, got {self.raw_trace!r}")


def kernel(z: PointLike, w: PointLike, q: QuantParams) -> complex:
    """Reproducing kernel K(z, w) = exp(alpha * sum_j z_j * conj(w_j)).

    Hermitian: kernel(z, w) = conj(kernel(w, z)); the diagonal is positive.
    """
    zp = as_point(z)
    wp = as_point(w, zp.dim)
    inner = sum(zc * wc.conjugate() for zc, wc in zip(zp.coords, wp.coords))
    return cmath.exp(q.alpha * inner)


def weight(z: PointLike, q: QuantParams) -> float:
    """Gaussian weight rho(z) = (alpha/pi)^n * exp(-alpha * |z|^2)."""
    point = as_point(z)
    sq = sum(c.real * c.real + c.imag * c.imag for c in point.coords)
    return (q.alpha / math.pi) ** point.dim * math.exp(-q.alpha * sq)


def weight_mass_numeric(spec: WeightSpec, order: int = 80) -> float:
    """Quadrature check of the weight's total mass (should be 1): the trace of 1."""
    return trace_numeric(GaussianSymbol(spec.dim), spec.quant, order)


def trace(g: GaussianSymbol, q: QuantParams) -> float:
    """Closed-form inner-product trace of a Gaussian symbol.

    Tr(g) = amplitude * (alpha/(alpha + lam))^(n/2); constants trace to their
    amplitude, and Tr -> g(0) as alpha -> infinity.
    """
    return g.amplitude * _half_power(q.alpha / (q.alpha + g.compression), g.dim)


def trace_numeric(g: GaussianSymbol, q: QuantParams, order: int = 80) -> float:
    """Quadrature evaluation of the trace integral (oracle for `trace`).

    The weight is the transform kernel at the origin, so Tr(g) is the
    numeric transform of g at z = 0 (2n one-dimensional sums at any n).
    """
    return berezin_transform_numeric(g, ComplexPoint.origin(g.dim), q, order).real


def _squared_transform(lam: float, q: QuantParams, dim: int) -> GaussianSymbol:
    # square of the transformed unit-amplitude Gaussian of compression lam
    transformed = berezin_transform_closed(GaussianSymbol(dim=dim, amplitude=1.0, compression=lam), q)
    amplitude = transformed.amplitude**2
    if amplitude == 0.0:
        raise NumericContractError(
            f"squared transformed amplitude underflows to 0 at lambda={lam!r}, alpha={q.alpha!r}, n={dim}"
        )
    return GaussianSymbol(dim=dim, amplitude=amplitude, compression=2.0 * transformed.compression)


def purity_index(lam: float, q: QuantParams, dim: int = 1) -> TraceReport:
    """Trace data of the squared transformed Gaussian with compression lam.

    normalized_trace = (alpha/(alpha + 3*lam))^(n/2); raw_trace is the trace
    of the squared transform computed from the transformed symbol (A = 1).
    Either one underflowing to 0 raises `NumericContractError`, naming it.
    """
    lam = _real("lambda", lam)
    raw = trace(_squared_transform(lam, q, dim), q)
    normalized = _half_power(q.alpha / (q.alpha + 3.0 * lam), dim)
    for name, value in (("raw trace", raw), ("normalized trace", normalized)):
        if value == 0.0:  # both are positive in exact arithmetic
            raise NumericContractError(f"{name} underflows to 0 at lambda={lam!r}, alpha={q.alpha!r}, n={dim}")
    return TraceReport(raw_trace=raw, normalized_trace=normalized, alpha=q.alpha, lam=lam, dim=dim)


def purity_raw_numeric(lam: float, q: QuantParams, dim: int = 1, order: int = 80) -> float:
    """Quadrature cross-check of the raw squared-transform trace."""
    return trace_numeric(_squared_transform(lam, q, dim), q, order=order)


def reproducing_residual(
    p: PolynomialSymbol,
    z: PointLike,
    q: QuantParams,
    rule: QuadratureRule1D,
) -> float:
    """| int p(w) K(z, w) rho(w) dA(w)  -  p(z) | for holomorphic p.

    The kernel reproduces holomorphic polynomials; non-holomorphic input
    (any conj-coordinate power) is rejected.  The integral over the 2n real
    coordinates of w runs through `integrate` with the weight's Gaussian as
    its node scaling, so `integrate` limits the dimension to n <= 2 (2n <= 4
    real axes), and the degree is limited to the rule's exactness budget.
    """
    if p.degree_zbar > 0:
        raise ValueError("reproducing property requires a holomorphic polynomial (no conj powers)")
    point = as_point(z, p.dim)
    n = p.dim
    if 2 * p.degree > 2 * rule.order - 1:
        raise ValueError(f"degree {p.degree} exceeds the exactness budget of an order-{rule.order} rule")
    alpha = q.alpha

    def integrand(*xy):
        w = tuple(x + 1j * y for x, y in zip(xy[:n], xy[n:]))
        phase = sum(alpha * zc * np.conj(wc) for zc, wc in zip(point.coords, w))
        return p.eval_many(w) * np.exp(phase)

    total = integrate(integrand, [rule] * (2 * n), scale=alpha) * (alpha / math.pi) ** n
    return abs(total - p.eval_point(point))
