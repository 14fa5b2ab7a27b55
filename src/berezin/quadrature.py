"""Independent numerical-integration oracle.

Gauss-Hermite rules come from a Jacobi-matrix eigenproblem (Golub & Welsch,
Math. Comp. 23, 1969) of half the order, since the weight is even; one
Newton step on the normalized Hermite function psi_m refines the nodes, and
the weights are exp(-x^2) / sum_{k<m} psi_k(x)^2 (Townsend, Trogdon & Olver,
IMA J. Numer. Anal. 36, 2016).  psi_k = p_k * exp(-x^2/2) neither overflows
nor loses relative accuracy, so every weight, down to the outermost, is
accurate to a few ulps.  An order-m rule integrates t^k * exp(-t^2) exactly
for k <= 2m-1; every rule built is kept (`gauss_hermite`).

`berezin_transform_numeric` evaluates the smoothing-transform integral

    (1/K(z,z)) * int f(w) |K(z,w)|^2 rho(w) dA(w)
        = (alpha/pi)^n * int f(w) exp(-alpha*|w - z|^2) dA(w),
    rho(w) = (alpha/pi)^n exp(-alpha*|w|^2),  K(z,w) = exp(alpha * z . conj(w)).

Its kernel is a Gaussian centred at z.  The change of variables
w_j = z_j + (s_j + i*t_j)/sqrt(alpha) turns that kernel into the
Gauss-Hermite weight exp(-|s|^2 - |t|^2), so the rule sits where the
integrand lives for every z and alpha.  A GaussianSymbol depends only on
Re w, so its sum factors into 2n one-dimensional sums of m terms at any n;
a generic callable is summed on the centred tensor grid by `integrate`,
which limits it to n <= 2.  At z = 0 the kernel is the weight rho itself,
so the transform there is the trace Tr(f).  The oracle never consults the
closed-form width map.  A seeded Monte-Carlo estimator samples the same
centred Gaussian and provides a second, statistically independent route for
a GaussianSymbol, on one stream: sigma * standard_normal((n, N)), whose row
j is Re(w_j - z_j), the only part of w the symbol reads.

Sums use numpy's own reduction, a pairwise summation whose order depends
only on the array's shape, so results are reproducible run-to-run.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .gaussian_calculus import GaussianSymbol, NumericContractError, PointLike, QuantParams, _integer, _real, as_point

__all__ = [
    "MonteCarloConfig",
    "NumericContractError",
    "QuadratureRule1D",
    "berezin_transform_numeric",
    "gauss_hermite",
    "integrate",
    "monte_carlo_transform",
]

MAX_RULE_ORDER = 360
MAX_TENSOR_DIM = 4
MIN_EFFECTIVE_SAMPLES = 100  # a symbol's Monte-Carlo estimate must rest on at least this many


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes and positive weights of a Gauss-Hermite rule of given order."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValueError("nodes/weights must both have length equal to the order")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise ValueError("non-finite rule data")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sample count and seed for the Monte-Carlo oracle.

    The seed fully determines the sample stream; estimates quote at least
    10^3 samples.
    """

    samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _integer("samples", self.samples, 1000))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, 2**64 - 1))  # an unsigned 64-bit integer


def _hermite_functions(x: np.ndarray, order: int, squares: bool = False):
    """psi_{m-1}(x), psi_m(x) and, if `squares`, sum_{k<m} psi_k(x)^2 (else
    None), for m = order.

    psi_k are the normalized Hermite functions, orthonormal on the real
    line:  psi_0 = pi^(-1/4) exp(-x^2/2),
    psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1}.
    """
    previous = np.zeros_like(x)
    current = math.pi**-0.25 * np.exp(-0.5 * x * x)
    total = np.zeros_like(x) if squares else None
    for k in range(order):
        if squares:
            total += current * current
        previous, current = current, math.sqrt(2.0 / (k + 1)) * x * current - math.sqrt(k / (k + 1)) * previous
    return previous, current, total


def gauss_hermite(order: int) -> QuadratureRule1D:
    """The order-m Gauss-Hermite rule for the weight exp(-t^2).

    The squared positive nodes start as the eigenvalues of the
    floor(m/2)-square Laguerre Jacobi matrix (diagonal 2k+a+1, off-diagonal
    sqrt(k(k+a)), a = -1/2 for even m, +1/2 and the node 0 for odd m).  One
    Newton step on psi_m, with psi_m' = sqrt(2m) psi_{m-1} - x psi_m,
    refines the non-negative nodes, and a second pass of the recurrence
    sets the weights exp(-x^2 - log sum_{k<m} psi_k(x)^2) at those nodes.
    The rule is then mirrored, so nodes and weights are exactly symmetric
    about 0; the weights sum to sqrt(pi) up to round-off.

    Orders stop at 360 because every weight must be a normal double: the
    outermost weight is 8.5e-300 at m = 360, 2.4e-308 at m = 370, and
    sub-normal from m = 371 on.  At m = 512, 34 true weights lie below
    1e-308, so a rule of that order cannot be represented.

    The order is validated on every call, before the cache.  Every rule
    built is kept, so a repeated order returns the same object; all 360
    orders together hold 1.04 MB of nodes and weights.
    """
    return _build_rule(_integer("order", order, 1, MAX_RULE_ORDER))


@functools.cache  # at most MAX_RULE_ORDER rules, since the order is validated first
def _build_rule(order: int) -> QuadratureRule1D:
    half = order // 2
    a = 0.5 if order % 2 else -0.5
    k = np.arange(half, dtype=np.float64)
    jacobi = np.diag(2.0 * k + a + 1.0)
    np.fill_diagonal(jacobi[1:], np.sqrt(k[1:] * (k[1:] + a)))  # the sub-diagonal
    nodes = np.sqrt(np.linalg.eigvalsh(jacobi))  # reads the lower triangle only
    if order % 2:
        # psi_m is odd, so psi_m(0) = 0 exactly and Newton keeps this node at 0
        nodes = np.concatenate(([0.0], nodes))
    previous, current, _ = _hermite_functions(nodes, order)
    nodes = nodes - current / (math.sqrt(2.0 * order) * previous - nodes * current)
    # one step already puts the nodes within 1.2e-16 (relative, absolute
    # below 1) of 40-digit roots at the orders checked up to 360; a second
    # moves them by rounding noise only, away from where the weights are taken
    _, _, squares = _hermite_functions(nodes, order, squares=True)
    weights = np.exp(-nodes * nodes - np.log(squares))
    mirrored = slice(order % 2, None)  # the node 0 is not mirrored
    nodes = np.concatenate((-nodes[mirrored][::-1], nodes))
    weights = np.concatenate((weights[mirrored][::-1], weights))
    return QuadratureRule1D(nodes, weights, order)


def _check_finite(vals: np.ndarray, axes, head: tuple) -> None:
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = np.unravel_index(int(np.flatnonzero(bad.ravel())[0]), vals.shape)
        node = tuple(float(x) for x in head) + tuple(float(axis[i]) for axis, i in zip(axes, idx))
        raise NumericContractError(f"integrand is non-finite at node {node}")


def integrate(fn: Callable, rule: QuadratureRule1D, d: int, scale: float = 1.0):
    """Tensor quadrature of  int fn(x) * exp(-scale * |x|^2) dx  on R^d.

    The one rule sits on every one of the d axes.  `fn` must accept d
    broadcastable coordinate arrays and evaluate vectorized.  The Gaussian
    factor is handled analytically by node scaling; d <= 4.  Non-finite
    integrand values raise, naming the node, and a weighted sum beyond the
    double range raises, naming it and the scale.  One loop evaluates,
    checks and sums slabs: a d <= 2 grid is one slab of weight 1, a d in
    {3, 4} grid one slab per node of its first axis (with that node's
    weight), which bounds memory to m^(d-1) values.  Slabs and their total
    are summed by numpy's fixed-order pairwise reduction.
    """
    d = _integer("d", d, 1, MAX_TENSOR_DIM)
    scale = _real("scale", scale)
    axis = rule.nodes / math.sqrt(scale)
    norm = math.prod([1.0 / math.sqrt(scale)] * d)
    if d <= 2:
        heads, head_weights, slab_dim = [()], [1.0], d
    else:
        heads, head_weights, slab_dim = [(x0,) for x0 in axis], rule.weights, d - 1
    slab_axes = [axis] * slab_dim
    grids = np.meshgrid(*slab_axes, indexing="ij", sparse=True)
    shape = (rule.order,) * slab_dim
    slab_weights = functools.reduce(np.multiply.outer, [rule.weights] * slab_dim)
    sums = []
    for head, head_weight in zip(heads, head_weights):
        vals = np.broadcast_to(np.asarray(fn(*head, *grids)), shape)
        _check_finite(vals, slab_axes, head)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is refused below, by name
            sums.append(head_weight * (vals * slab_weights).sum())
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(sums) * norm
    if not np.isfinite(total):
        raise NumericContractError(f"weighted sum {total} is not finite at scale {scale}")
    return total


def berezin_transform_numeric(
    f: Union[GaussianSymbol, Callable],
    z: PointLike,
    q: QuantParams,
    order: int = 80,
) -> complex:
    """Evaluate the smoothing transform of f at z by Gauss-Hermite centred at z.

    With (s_k, w_k) the order-m rule and x_j = Re z_j, a GaussianSymbol
    A*exp(-lam * sum_j (Re w_j)^2) sums to

        A * prod_j (1/pi) * (sum_k w_k exp(-lam*(x_j + s_k/sqrt(alpha))^2)) * (sum_k w_k),

    2n sums of m terms, at any n; a square beyond the double range is capped
    at the largest double, so lam = 0 gives exp(-0) = 1 and an overflowing
    exponent a zero term.  A generic callable f receives n complex
    coordinate arrays, must evaluate vectorized, and is summed on the centred
    m^(2n) tensor grid; only callables are limited to n <= 2.  The order
    sets the accuracy: at lam/alpha = 4 (alpha = 0.5, z = 0, n = 1) an
    order-40 rule misses the closed form by 1.5e-7 relative, an order-80
    rule by 1.2e-14.
    """
    point = as_point(z, f.dim if isinstance(f, GaussianSymbol) else None)
    n = point.dim
    rule = gauss_hermite(order)
    spread = 1.0 / math.sqrt(q.alpha)

    if isinstance(f, GaussianSymbol):
        offsets = spread * rule.nodes
        mass = rule.weights.sum()
        value = f.amplitude
        for c in point.coords:
            with np.errstate(over="ignore"):  # an overflowing exponent is -inf, a zero term
                exponent = -f.compression * np.minimum((c.real + offsets) ** 2, sys.float_info.max)
            value *= (rule.weights * np.exp(exponent)).sum() * mass / math.pi
        return complex(value)

    if n > 2:
        raise ValueError(f"numeric transform of a callable supports n <= 2, got n = {n}")

    def centred(*st):
        return f(*(c + spread * (s + 1j * t) for c, s, t in zip(point.coords, st[:n], st[n:])))

    return complex(integrate(centred, rule, 2 * n) / math.pi**n)


def monte_carlo_transform(
    f: GaussianSymbol,
    z: PointLike,
    q: QuantParams,
    cfg: MonteCarloConfig,
) -> tuple[complex, float]:
    """Monte-Carlo estimate of the smoothing transform of the symbol f at z.

    The transform kernel (1/K(z,z)) |K(z,w)|^2 rho(w) is exactly the
    Gaussian probability density (alpha/pi)^n exp(-alpha*|w-z|^2), so the
    estimator importance-samples w from it and averages f(w): each of the
    2n real coordinates of w - z is normal with sigma = 1/sqrt(2*alpha).
    Returns (mean, standard error); a fixed seed reproduces the estimate
    bit-for-bit.

    A GaussianSymbol reads only Re w, so the one sample stream is
    X = sigma * default_rng(seed).standard_normal((n, N)), row j being
    Re(w_j - z_j).  The symbol is evaluated in place on those rows at unit
    amplitude, with the exponent -lam * min(u^2, max double) (an overflow is
    a zero sample), so every unit value lies in [0, 1]; the mean and
    standard error are then multiplied by the amplitude, and stay finite.
    A mean that underflows to 0, or that rests on fewer than
    MIN_EFFECTIVE_SAMPLES effective samples (sum f)^2 / sum f^2 (taken from
    the unit values, as it does not depend on the amplitude), raises,
    naming its amplitude, lambda and alpha.
    """
    if not isinstance(f, GaussianSymbol):
        raise ValueError(f"f must be a GaussianSymbol, got {type(f).__name__}")
    point = as_point(z, f.dim)
    sigma = math.sqrt(1.0 / (2.0 * q.alpha))
    rows = np.random.default_rng(cfg.seed).standard_normal((point.dim, cfg.samples))
    rows *= sigma
    with np.errstate(over="ignore"):  # an overflowing exponent is -inf, a zero sample
        rows += np.array([[c.real] for c in point.coords])
        np.square(rows, out=rows)
        values = rows[0]
        for row in rows[1:]:
            values += row
        np.minimum(values, sys.float_info.max, out=values)
        values *= -f.compression
    np.exp(values, out=values)
    unit_mean = float(np.mean(values))
    values -= unit_mean  # the spread is taken in this call's own buffer
    unit_stderr = math.sqrt(float(np.sum(np.square(values, out=values))) / (cfg.samples * (cfg.samples - 1)))
    mean, stderr = unit_mean * f.amplitude, unit_stderr * f.amplitude
    at = f"amplitude={f.amplitude!r}, lambda={f.compression!r}, alpha={q.alpha!r}"
    if mean == 0.0:  # every sample underflowed, or the scaled mean did
        raise NumericContractError(f"Monte-Carlo estimate underflows to 0 at {at}")
    # (sum f)^2 / sum f^2, which the amplitude leaves alone: 1 when one sample carries the sum
    effective = cfg.samples / (1.0 + (cfg.samples - 1) * (unit_stderr / unit_mean) ** 2)
    if effective < MIN_EFFECTIVE_SAMPLES:
        raise NumericContractError(
            f"Monte-Carlo estimate has effective sample size {effective:.3g} "
            f"(below {MIN_EFFECTIVE_SAMPLES}) at {at}"
        )
    return complex(mean), stderr
