"""Weighted Bergman (Segal-Bargmann) space machinery on C^n.

The inner-product trace functional against the Gaussian weight of unit
mass, and the purity index of the squared transformed symbol:

    Tr(g)  = (alpha/pi)^n * int g(z) exp(-alpha*|z|^2) dA(z)

For the Gaussian family the trace closes: Tr(A*exp(-lam*(Re z)^2 summed))
= A * (alpha/(alpha + lam))^(n/2).  The purity index is the normalized
trace (alpha/(alpha + 3*lam))^(n/2) of the squared transformed symbol; it
tends to 1 in the classical limit alpha -> infinity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .gaussian_calculus import (
    ComplexPoint,
    GaussianSymbol,
    NumericContractError,
    QuantParams,
    _half_power,
    _real,
    berezin_transform_closed,
)
from .quadrature import berezin_transform_numeric

__all__ = [
    "TraceReport",
    "purity_index",
    "trace",
    "trace_numeric",
]


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
    Either one underflowing to 0 or to a sub-normal raises
    `NumericContractError`, naming the smaller.
    """
    lam = _real("lambda", lam)
    raw = trace(_squared_transform(lam, q, dim), q)
    normalized = _half_power(q.alpha / (q.alpha + 3.0 * lam), dim)
    # both are positive in exact arithmetic; the smaller one is named
    name, value = min((("raw trace", raw), ("normalized trace", normalized)), key=lambda item: item[1])
    if value < sys.float_info.min:
        fault = "underflows to 0" if value == 0.0 else f"= {value!r} is sub-normal"
        raise NumericContractError(f"{name} {fault} at lambda={lam!r}, alpha={q.alpha!r}, n={dim}")
    return TraceReport(raw_trace=raw, normalized_trace=normalized, alpha=q.alpha, lam=lam, dim=dim)


def purity_raw_numeric(lam: float, q: QuantParams, dim: int = 1, order: int = 80) -> float:
    """Quadrature cross-check of the raw squared-transform trace."""
    return trace_numeric(_squared_transform(lam, q, dim), q, order=order)

