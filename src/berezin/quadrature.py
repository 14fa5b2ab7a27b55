"""Independent numerical-integration oracle.

Gauss-Hermite rules come from a Jacobi-matrix eigenproblem (Golub & Welsch,
Math. Comp. 23, 1969) of half the order, since the weight is even; one
Newton step on the normalized Hermite function psi_m refines the nodes, and
the weights are exp(-x^2) / sum_{k<m} psi_k(x)^2 (Townsend, Trogdon & Olver,
IMA J. Numer. Anal. 36, 2016).  psi_k = p_k * exp(-x^2/2) neither overflows
nor loses relative accuracy, so every weight, down to the outermost, is
accurate to a few ulps.  An order-m rule integrates t^k * exp(-t^2) exactly
for k <= 2m-1; the 16 most recently used rules are cached (`gauss_hermite`).

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
centred Gaussian and provides a second, statistically independent route on
one stream, sigma * standard_normal((2, n, N)) with blocks Re(w - z) and
Im(w - z): a GaussianSymbol reads and draws block 0, a callable both.

All reductions use a fixed deterministic order (pairwise folding), so
results are reproducible run-to-run.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .gaussian_calculus import GaussianSymbol, NumericContractError, PointLike, QuantParams, _integer, as_point

__all__ = [
    "MonteCarloConfig",
    "NumericContractError",
    "QuadratureRule1D",
    "berezin_transform_numeric",
    "gauss_hermite",
    "integrate",
    "monte_carlo_transform",
    "tree_sum",
]

MAX_RULE_ORDER = 360
MAX_TENSOR_DIM = 4
RULE_CACHE_SIZE = 16


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


def tree_sum(values):
    """Deterministic pairwise reduction of a 1-D array.

    Elements i and i+half are folded together until one value remains; the
    order is a pure function of the array length, so the result is
    reproducible run-to-run (unlike parallel reductions).
    """
    a = np.ravel(np.asarray(values)).copy()
    n = a.size
    if n == 0:
        return a.dtype.type(0) if a.dtype != object else 0.0
    while n > 1:
        half = n // 2
        a[:half] = a[:half] + a[half : 2 * half]
        if n % 2:
            a[half] = a[2 * half]
            n = half + 1
        else:
            n = half
    return a[0]


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

    The order is validated on every call; the rule comes from a cache of
    the 16 most recently used orders, so a repeated order returns the same
    object.
    """
    return _build_rule(_integer("order", order, 1, MAX_RULE_ORDER))


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
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


def _normalize_scales(scale, d: int) -> np.ndarray:
    scales = np.broadcast_to(np.asarray(scale, dtype=np.float64), (d,)).copy()
    if not np.all(np.isfinite(scales)) or np.any(scales <= 0.0):
        raise ValueError(f"scales must be positive and finite, got {scale!r}")
    return scales


def _check_finite(vals: np.ndarray, axes, head: tuple = ()) -> None:
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = np.unravel_index(int(np.flatnonzero(bad.ravel())[0]), vals.shape)
        node = tuple(float(x) for x in head) + tuple(float(axis[i]) for axis, i in zip(axes, idx))
        raise NumericContractError(f"integrand is non-finite at node {node}")


def integrate(fn: Callable, rules: Sequence[QuadratureRule1D], scale=1.0):
    """Tensor quadrature of  int fn(x) * prod_i exp(-scale_i * x_i^2) dx  on R^d.

    `fn` must accept d broadcastable coordinate arrays and evaluate
    vectorized.  The Gaussian factor is handled analytically by node
    scaling; d <= 4.  Non-finite integrand values raise, naming the node.
    One loop evaluates, checks and sums slabs: a d <= 2 grid is one slab of
    weight 1, a d in {3, 4} grid one slab per node of its first axis (with
    that node's weight), which bounds memory to m^(d-1) values.
    """
    rules = list(rules)
    d = len(rules)
    if not 1 <= d <= MAX_TENSOR_DIM:
        raise ValueError(f"tensor integration supports 1 <= d <= {MAX_TENSOR_DIM}, got {d}")
    scales = _normalize_scales(scale, d)
    axes = [rule.nodes / math.sqrt(s) for rule, s in zip(rules, scales)]
    norm = math.prod(1.0 / math.sqrt(s) for s in scales)
    if d <= 2:
        heads, head_weights, first = [()], [1.0], 0
    else:
        heads, head_weights, first = [(x0,) for x0 in axes[0]], rules[0].weights, 1
    slab_axes = axes[first:]
    grids = np.meshgrid(*slab_axes, indexing="ij", sparse=True)
    shape = tuple(axis.size for axis in slab_axes)
    slab_weights = functools.reduce(np.multiply.outer, [rule.weights for rule in rules[first:]])
    sums = []
    for head, head_weight in zip(heads, head_weights):
        vals = np.broadcast_to(np.asarray(fn(*head, *grids)), shape)
        _check_finite(vals, slab_axes, head)
        sums.append(head_weight * tree_sum(vals * slab_weights))
    return tree_sum(np.array(sums)) * norm


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

    2n sums of m terms, at any n.  A generic callable f receives n complex
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
        mass = tree_sum(rule.weights)
        value = f.amplitude
        for c in point.coords:
            values = rule.weights * np.exp(-f.compression * (c.real + offsets) ** 2)
            _check_finite(values, [offsets])
            value *= tree_sum(values) * mass / math.pi
        return complex(value)

    if n > 2:
        raise ValueError(f"numeric transform of a callable supports n <= 2, got n = {n}")

    def centred(*st):
        return f(*(c + spread * (s + 1j * t) for c, s, t in zip(point.coords, st[:n], st[n:])))

    return complex(integrate(centred, [rule] * (2 * n)) / math.pi**n)


def monte_carlo_transform(
    f: Union[GaussianSymbol, Callable],
    z: PointLike,
    q: QuantParams,
    cfg: MonteCarloConfig,
) -> tuple[complex, float]:
    """Monte-Carlo estimate of the smoothing transform of f at z.

    The transform kernel (1/K(z,z)) |K(z,w)|^2 rho(w) is exactly the
    Gaussian probability density (alpha/pi)^n exp(-alpha*|w-z|^2), so the
    estimator importance-samples w from it and averages f(w): each of the
    2n real coordinates of w - z is normal with sigma = 1/sqrt(2*alpha).
    Returns (mean, standard error); a fixed seed reproduces the estimate
    bit-for-bit.

    The one sample stream is X = sigma * default_rng(seed).standard_normal((2, n, N)):
    block 0 is Re(w - z), block 1 is Im(w - z), row j coordinate j.  A
    callable receives n complex arrays w_j = z_j + X[0, j] + i*X[1, j].  A
    GaussianSymbol reads only Re w, so it draws block 0 alone, (1, n, N),
    the same numbers as the full stream's prefix, and is evaluated in place
    on its rows; a callable of the same symbol gets the same estimate.
    A non-finite value raises, naming the sample (for a symbol, Re w drawn and Im w = Im z); so
    does a mean or standard error that overflows, naming it (and a symbol's
    amplitude).
    """
    point = as_point(z, f.dim if isinstance(f, GaussianSymbol) else None)
    n = point.dim
    sigma = math.sqrt(1.0 / (2.0 * q.alpha))
    blocks = 1 if isinstance(f, GaussianSymbol) else 2
    offsets = np.random.default_rng(cfg.seed).standard_normal((blocks, n, cfg.samples))
    offsets *= sigma
    if isinstance(f, GaussianSymbol):
        rows = offsets[0]
        rows += np.array([[c.real] for c in point.coords])
        np.square(rows, out=rows)
        values = rows[0]
        for row in rows[1:]:
            values += row
        values *= -f.compression
        np.exp(values, out=values)
        values *= f.amplitude
    else:
        values = np.asarray(f(*(c + offsets[0, j] + 1j * offsets[1, j] for j, c in enumerate(point.coords))))
    if not np.all(np.isfinite(values)):
        raise NumericContractError(f"integrand is non-finite at sample {_sample(point, sigma, cfg, blocks, values)}")
    with np.errstate(over="ignore"):  # an overflowing sum is refused below, by name
        mean = np.mean(values)
        stderr = math.sqrt(float(np.sum(np.abs(values - mean) ** 2)) / (cfg.samples * (cfg.samples - 1)))
    if not (cmath.isfinite(mean) and math.isfinite(stderr)):
        what = f"estimate {complex(mean)!r}" if not cmath.isfinite(mean) else f"standard error {stderr!r}"
        at = f" at amplitude={f.amplitude!r}" if isinstance(f, GaussianSymbol) else ""
        raise NumericContractError(f"Monte-Carlo {what} is not finite{at}")
    return complex(mean), stderr


def _sample(point, sigma: float, cfg: MonteCarloConfig, blocks: int, values: np.ndarray) -> tuple:
    """The first sample w at which `values` is non-finite, drawn again from
    the seed (a symbol's rows were overwritten; with one block, Im w = Im z)."""
    bad = int(np.flatnonzero(~np.isfinite(np.ravel(values)))[0])
    shifts = sigma * np.random.default_rng(cfg.seed).standard_normal((blocks, point.dim, cfg.samples))[:, :, bad]
    return tuple(c + complex(*shift) for c, shift in zip(point.coords, shifts.T))
