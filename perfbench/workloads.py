"""The two in-process workloads: `oracles` and `star-algebra`.

Each workload draws the inputs of rotation r from the stream
numpy.random.default_rng([seed, r]); the program receives only those
generated inputs.  Every program function is looked up on its module at
call time, so the traced phase sees the wrapped functions.  Only public
`berezin` names are used.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

import berezin
from berezin import bergman_space, oscillator, quadrature, semiclassics
from harness import Op, random_point
from reference import (
    coefficient_rel_diff,
    first_order_scale,
    hermite_moment,
    monomial_star,
    oscillator_levels,
    rel_err,
    trace_value,
    transform_value,
)

WARMUP_STREAM = 2**32  # rotation index of the warm-up inputs, never a timed rotation


# -- oracles -------------------------------------------------------------------

LADDER_FIRST = 5
LADDER_BAND = 63  # four bands of 63 orders cover 5..256
LADDER_BANDS = 4
WARMUP_ORDER = 2  # never in the ladder, so warm-up builds no timed rule
MOMENT_MAX_DEGREE = 80


def _transform_op(kind, n, order, alpha, lam, amp, z, known_fault=False) -> Op:
    q = berezin.QuantParams(alpha)
    g = berezin.GaussianSymbol(dim=n, amplitude=amp, compression=lam)
    want = transform_value(n, amp, lam, alpha, z)

    def check(value):
        return [
            ("quadrature.transform.rel_err", rel_err(value.real, want), 1e-9),
            ("transform.imag", abs(value.imag) / want, 1e-9),
        ]

    return Op(kind, lambda: quadrature.berezin_transform_numeric(g, z, q, order=order), check, known_fault)


def _trace_op(n, order, alpha, lam, amp) -> Op:
    q = berezin.QuantParams(alpha)
    g = berezin.GaussianSymbol(dim=n, amplitude=amp, compression=lam)
    want = trace_value(n, amp, lam, alpha)
    return Op(
        f"trace-n{n}",
        lambda: bergman_space.trace_numeric(g, q, order=order),
        lambda value: [("bergman_space.trace.rel_err", rel_err(value, want), 1e-9)],
    )


def _monte_carlo_op(alpha, lam, amp, z, mc_seed) -> Op:
    q = berezin.QuantParams(alpha)
    g = berezin.GaussianSymbol(dim=1, amplitude=amp, compression=lam)
    cfg = berezin.MonteCarloConfig(samples=100_000, seed=mc_seed)
    want = transform_value(1, amp, lam, alpha, [z])

    def check(result):
        estimate, stderr = result
        return [("monte_carlo.stderrs", abs(estimate - want) / stderr, 5.0)]

    return Op("monte-carlo", lambda: quadrature.monte_carlo_transform(g, z, q, cfg), check)


def _uncertainty_op(lam, amp) -> Op:
    return Op(
        "uncertainty",
        lambda: oscillator.uncertainty_quadrature(lam, amp),
        lambda report: [("uncertainty.ratio", abs(report.ratio - 1.0), 1e-8)],
    )


def _spectrum_op(h) -> Op:
    spec = berezin.OscillatorSpec(dim=1, h=h)
    grid = berezin.GridSpec(half_width=10.0, points=4001)
    want = oscillator_levels(h, 4)

    def check(values):
        return [("oscillator.spectrum.abs_err", max(abs(float(v) - w) for v, w in zip(values, want)), 1e-3)]

    return Op("spectrum", lambda: oscillator.spectrum(spec, grid, levels=4), check)


def _rule_op(order) -> Op:
    def check(rule):
        worst = 0.0
        for k in range(0, min(2 * order - 1, MOMENT_MAX_DEGREE), 2):
            moment = math.fsum(rule.weights * rule.nodes**k)
            worst = max(worst, rel_err(moment, hermite_moment(k)))
        return [("rule.moment_rel_err", worst, 1e-12)]

    return Op("gauss-hermite", lambda: quadrature.gauss_hermite(order), check)


class Oracles:
    """Quadrature oracles on Gaussian symbols, 13 operations per rotation.

    Inputs: alpha in [0.5, 5], lambda in [0.5, 2], amplitude in [0.5, 2],
    |z_j| <= 0.7.  The moment ladder builds four rules per rotation, one from
    each band of orders 5..67, 68..130, 131..193, 194..256, in a seeded order
    that repeats no order within 63 rotations.  The last operation is the
    off-centre transform (n=1, alpha=50, z=2, m=80), a known fault.
    """

    name = "oracles"

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, WARMUP_STREAM, 1])
        self.ladder = [rng.permutation(LADDER_BAND) for _ in range(LADDER_BANDS)]

    def _ops(self, rng, orders) -> list:
        def draw():
            return rng.uniform(0.5, 5.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)

        ops = []
        for n in (1, 2):
            alpha, lam, amp = draw()
            ops.append(_transform_op(f"transform-n{n}-m80", n, 80, alpha, lam, amp, random_point(rng, n)))
        for n, order in ((1, 80), (2, 60), (3, 80)):
            ops.append(_trace_op(n, order, *draw()))
        alpha, lam, amp = draw()
        ops.append(_monte_carlo_op(alpha, lam, amp, random_point(rng, 1)[0], int(rng.integers(2**32))))
        ops.append(_uncertainty_op(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)))
        ops.append(_spectrum_op(rng.uniform(0.5, 1.5)))
        ops.extend(_rule_op(order) for order in orders)
        ops.append(_transform_op("transform-off-centre", 1, 80, 50.0, 1.0, 1.0, [2.0 + 0j], known_fault=True))
        return ops

    def rotation(self, r: int) -> list:
        orders = [
            LADDER_FIRST + band * LADDER_BAND + int(perm[r % LADDER_BAND]) for band, perm in enumerate(self.ladder)
        ]
        return self._ops(np.random.default_rng([self.seed, r]), orders)

    def warmup(self) -> list:
        return self._ops(np.random.default_rng([self.seed, WARMUP_STREAM]), [WARMUP_ORDER])


# -- star-algebra ------------------------------------------------------------------

# (dim, degree, terms, pairs per rotation).  Two pairs of each larger shape
# keep a rotation heavy enough that 20 s hold fewer than 1000 operations on
# a fast machine, so the tail stays at p95.
STAR_SHAPES = ((1, 3, 4, 1), (2, 6, 20, 2), (3, 6, 30, 2))
TRIPLE_DEGREE = 3
TRIPLE_TERMS = 4
SHAPE_STREAM = 2**32 + 1  # seed-independent stream of exponent sets


def _exponent_pool(dim: int, degree: int) -> list:
    """All (beta, gamma) with |beta| + |gamma| <= degree, in a fixed order."""
    return [
        (beta, gamma)
        for beta in product(range(degree + 1), repeat=dim)
        for gamma in product(range(degree + 1), repeat=dim)
        if sum(beta) + sum(gamma) <= degree
    ]


class StarAlgebra:
    """Exact polynomial algebra in `semiclassics`, 13 operations per rotation.

    Per rotation: a star product and a first-order residual for one
    (1, 3, 4) pair and for two pairs each of the (2, 6, 20) and (3, 6, 30)
    (dim, degree, terms) shapes, one associativity triple for each of dim 1
    and 2 (degree 3, 4 terms) and the commutator [z, zbar] = 1/alpha.
    Exponent pairs are drawn without replacement from all pairs of total
    degree <= degree; coefficients are uniform in the unit square, alpha in
    [0.5, 5].
    """

    name = "star-algebra"

    def __init__(self, seed: int):
        self.seed = seed
        self.pools = {(dim, degree): _exponent_pool(dim, degree) for dim, degree, _, _ in STAR_SHAPES}
        for dim in (1, 2):
            self.pools[(dim, TRIPLE_DEGREE)] = _exponent_pool(dim, TRIPLE_DEGREE)

    def _poly(self, shapes, rng, dim: int, degree: int, terms: int):
        pool = self.pools[(dim, degree)]
        chosen = shapes.choice(len(pool), size=terms, replace=False)
        coeffs = rng.uniform(-1.0, 1.0, size=(terms, 2))
        listed = [(*pool[int(i)], complex(re, im)) for i, (re, im) in zip(chosen, coeffs)]
        return listed, semiclassics.PolynomialSymbol(dim, tuple(listed))

    def rotation(self, r: int) -> list:
        # The exponent sets, which set an operation's cost, depend on the
        # rotation index alone, so runs with any seed time the same mix of
        # shapes; the seed draws the coefficients and alpha.
        shapes = np.random.default_rng([SHAPE_STREAM, r])
        rng = np.random.default_rng([self.seed, r])
        alpha = float(rng.uniform(0.5, 5.0))
        q = berezin.QuantParams(alpha)
        ops = []
        for dim, degree, terms, pairs in STAR_SHAPES:
            for _ in range(pairs):
                (f_terms, f), (g_terms, g) = (self._poly(shapes, rng, dim, degree, terms) for _ in range(2))
                want = monomial_star(f_terms, g_terms, alpha)
                ops.append(Op(
                    f"wick-star-{dim}d",
                    lambda f=f, g=g: semiclassics.wick_star(f, g, q),
                    lambda p, want=want: [("semiclassics.wick_star.rel_err", coefficient_rel_diff(p.terms_dict(), want), 1e-12)],
                ))
                scale = first_order_scale(f_terms, g_terms)
                ops.append(Op(
                    f"first-order-{dim}d",
                    lambda f=f, g=g: semiclassics.quantization_condition_residual(f, g),
                    lambda residual, scale=scale: [("first_order.residual", residual / scale, 1e-14)],
                ))
        for dim in (1, 2):
            f, g, h = (self._poly(shapes, rng, dim, TRIPLE_DEGREE, TRIPLE_TERMS)[1] for _ in range(3))

            def associate(f=f, g=g, h=h):
                star = semiclassics.wick_star
                return star(star(f, g, q), h, q), star(f, star(g, h, q), q)

            ops.append(Op(
                f"associativity-{dim}d",
                associate,
                lambda pair: [("associativity.rel_diff", coefficient_rel_diff(pair[0].terms_dict(), pair[1].terms_dict()), 1e-12)],
            ))
        z = semiclassics.PolynomialSymbol.coordinate(1)
        zbar = semiclassics.PolynomialSymbol.conj_coordinate(1)
        want_commutator = {((0,), (0,)): complex(1.0 / alpha)}
        ops.append(Op(
            "commutator",
            lambda: semiclassics.wick_star(z, zbar, q) - semiclassics.wick_star(zbar, z, q),
            lambda c: [("commutator.exact", float(c.terms_dict() != want_commutator), 0.0)],
        ))
        return ops

    def warmup(self) -> list:
        return self.rotation(WARMUP_STREAM)


IN_PROCESS = {Oracles.name: Oracles, StarAlgebra.name: StarAlgebra}
