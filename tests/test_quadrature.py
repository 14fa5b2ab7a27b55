"""Quadrature oracle: rule construction, tensor integration, transform, MC."""

import functools
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from berezin import (
    GaussianSymbol,
    MonteCarloConfig,
    QuantParams,
    berezin_transform_closed,
    berezin_transform_numeric,
    evaluate,
    gauss_hermite,
    gaussian_moment,
    integrate,
    monte_carlo_transform,
    trace_numeric,
)
from berezin.quadrature import MAX_RULE_ORDER, NumericContractError, _build_rule

SQRT_PI = math.sqrt(math.pi)


class TestGaussHermite:
    def test_order_one(self):
        rule = gauss_hermite(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-15)

    def test_order_two(self):
        rule = gauss_hermite(2)
        assert rule.nodes.tolist() == pytest.approx([-0.7071067811865476, 0.7071067811865476], rel=1e-14)
        assert rule.weights.tolist() == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], rel=1e-14)

    def test_order_five_eighth_moment(self):
        rule = gauss_hermite(5)
        numeric = float(np.sum(rule.weights * rule.nodes**8))
        assert numeric == pytest.approx(gaussian_moment(8, 1.0), rel=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 7, 16, 64, 80, MAX_RULE_ORDER])
    def test_invariants(self, order):
        rule = gauss_hermite(order)
        assert np.all(rule.nodes + rule.nodes[::-1] == 0.0)  # exact symmetry
        assert np.all(rule.weights > 0.0)
        assert float(np.sum(rule.weights)) == pytest.approx(SQRT_PI, abs=1e-12)

    @pytest.mark.parametrize("order", [2, 5, 10, 40])
    def test_exactness_to_degree(self, order):
        rule = gauss_hermite(order)
        for k in range(0, 2 * order - 1, 2):
            numeric = float(np.sum(rule.weights * rule.nodes**k))
            assert numeric == pytest.approx(gaussian_moment(k, 1.0), rel=1e-12)
        for k in range(1, 2 * order - 1, 2):
            numeric = float(np.sum(rule.weights * rule.nodes**k))
            scale = gaussian_moment(k + 1, 1.0)
            assert abs(numeric) <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("order", [128, 256, MAX_RULE_ORDER])
    def test_exactness_in_log_space_at_high_order(self, order):
        # the outer terms reach 1e-300 and t^k reaches 1e+1000, so the moment
        # is summed as a max-shifted sum of exp(log w + k log|t|)
        rule = gauss_hermite(order)
        log_weights = np.log(rule.weights)
        off_centre = rule.nodes != 0.0
        log_nodes = np.log(np.abs(rule.nodes[off_centre]))
        for k in range(0, 2 * order - 1, 2):
            terms = log_weights if k == 0 else log_weights[off_centre] + k * log_nodes
            top = float(terms.max())
            log_moment = top + math.log(float(np.sum(np.exp(terms - top))))
            assert abs(math.expm1(log_moment - math.lgamma((k + 1) / 2))) <= 1e-12, k

    def test_order_bounds(self):
        # validated before the cache: 80.0 and True hash like the cached 80 and 1
        gauss_hermite(80)
        gauss_hermite(1)
        for order in (0, MAX_RULE_ORDER + 1, 80.0, True, "80"):
            with pytest.raises(ValueError, match="order"):
                gauss_hermite(order)

    def test_repeat_call_returns_the_same_rule(self):
        assert gauss_hermite(80) is gauss_hermite(80)

    @pytest.mark.parametrize("order", [np.int64(80), np.int32(80), np.uint16(80)])
    def test_numpy_integer_order_is_the_cached_rule(self, order):
        rule = gauss_hermite(order)
        assert rule is gauss_hermite(80)
        assert type(rule.order) is int

    def test_every_order_is_kept(self):
        # the order is validated first, so the memo holds at most one rule per order
        _build_rule.cache_clear()
        first = [gauss_hermite(order) for order in range(1, MAX_RULE_ORDER + 1)]
        info = _build_rule.cache_info()
        assert (info.currsize, info.misses) == (MAX_RULE_ORDER, MAX_RULE_ORDER)
        again = [gauss_hermite(order) for order in range(1, MAX_RULE_ORDER + 1)]
        assert _build_rule.cache_info().misses == MAX_RULE_ORDER
        assert all(rule is kept for rule, kept in zip(again, first))

    @pytest.mark.parametrize("order", [7, 80, 255, 256])
    def test_matches_independent_reference(self, order):
        # two 40-digit Newton steps on the physicists' H_m from the double
        # nodes, and w = 2^(m-1) m! sqrt(pi) / (m^2 H_{m-1}(x)^2)
        mp = pytest.importorskip("mpmath")
        rule = gauss_hermite(order)
        with mp.workdps(40):
            scale = mp.mpf(2) ** (order - 1) * mp.factorial(order) * mp.sqrt(mp.pi) / order**2
            for node, weight in zip(rule.nodes[order // 2 :], rule.weights[order // 2 :]):
                x = mp.mpf(float(node))
                for _ in range(2):
                    below, h = mp.mpf(1), 2 * x  # H_0, H_1
                    for k in range(1, order):
                        below, h = h, 2 * x * h - 2 * k * below
                    x -= h / (2 * order * below)  # H_m' = 2m H_{m-1}
                # H_{m-1} is taken at the previous iterate, about 1e-30 from x
                reference = scale / below**2
                assert abs(node - x) <= 4e-16 * max(1, abs(x)), (order, node)
                assert abs(weight - reference) <= 1e-12 * reference, (order, node)

    def test_rule_is_read_only(self):
        rule = gauss_hermite(4)
        with pytest.raises(ValueError):
            rule.nodes[0] = 1.0


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: np.ones_like(x), gauss_hermite(10), 1) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_second_moment(self):
        value = integrate(lambda x: x * x, gauss_hermite(10), 1)
        assert value == pytest.approx(SQRT_PI / 2, rel=1e-14)

    def test_two_dim_product(self):
        value = integrate(lambda x, y: x * x * y * y, gauss_hermite(12), 2)
        assert value == pytest.approx(math.pi / 4, rel=1e-13)

    def test_scale(self):
        value = integrate(lambda x: x * x, gauss_hermite(20), 1, scale=2.0)
        assert value == pytest.approx(gaussian_moment(2, 2.0), rel=1e-13)

    def test_numpy_scales_accepted(self):
        rule = gauss_hermite(20)
        expected = integrate(lambda x, y: x * x + y, rule, 2, scale=2.0)
        for scale in (np.float64(2.0), np.float32(2.0), np.int64(2), 2):
            assert integrate(lambda x, y: x * x + y, rule, 2, scale=scale).hex() == expected.hex()

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, True, "2", None], ids=str)
    def test_scales_validated(self, scale):
        with pytest.raises(ValueError, match=re.escape(f"scale must be positive and finite, got {scale!r}")):
            integrate(lambda x: x, gauss_hermite(4), 1, scale=scale)

    def test_overflowing_weighted_sum_refused(self):
        # every value is finite, the sum times 1/sqrt(scale) is not; no warning
        with pytest.raises(NumericContractError, match=re.escape("weighted sum inf is not finite at scale 0.0001")):
            integrate(lambda x: np.full_like(x, 1e308), gauss_hermite(20), 1, scale=1e-4)

    def test_overflowing_slab_sums_refused(self):
        # d = 3 sums one slab per node of the first axis; their total overflows
        def huge(x, y, z):
            return np.full(np.broadcast_shapes(x.shape, y.shape, z.shape), 1e308)

        with pytest.raises(NumericContractError, match=re.escape("is not finite at scale 1.0")):
            integrate(huge, gauss_hermite(6), 3)

    def test_separable_equals_product(self):
        rule = gauss_hermite(16)
        tensor = integrate(lambda x, y: x**2 * y**4, rule, 2)
        product = integrate(lambda x: x**2, rule, 1) * integrate(lambda y: y**4, rule, 1)
        assert tensor == pytest.approx(product, rel=1e-12)

    def test_four_dim_chunked(self):
        value = integrate(lambda a, b, c, d: a * a * np.ones_like(b + c + d), gauss_hermite(8), 4)
        assert value == pytest.approx(SQRT_PI**3 * SQRT_PI / 2, rel=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match=re.escape("d must be an integer in [1, 4], got 5")):
            integrate(lambda *a: 1.0, gauss_hermite(2), 5)

    @pytest.mark.parametrize("d", [0, 2.0, True, "2"], ids=repr)
    def test_dimension_validated(self, d):
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer in [1, 4], got {d!r}")):
            integrate(lambda *a: 1.0, gauss_hermite(2), d)

    def test_non_finite_names_node(self):
        def bad(x):
            with np.errstate(divide="ignore"):
                return np.asarray(1.0 / x)

        with pytest.raises(ValueError, match="non-finite at node"):
            integrate(bad, gauss_hermite(3), 1)  # odd order has a node at 0

    def test_complex_integrand(self):
        value = integrate(lambda x: np.exp(1j * x), gauss_hermite(30), 1)
        assert complex(value) == pytest.approx(SQRT_PI * math.exp(-0.25), rel=1e-13)

    def test_complex_slab_sums(self):
        # d = 3 sums complex slabs and their total: both parts survive the reduction
        value = integrate(lambda x, y, z: np.exp(1j * (x + y + z)), gauss_hermite(30), 3)
        assert isinstance(value, complex)
        assert value == pytest.approx((SQRT_PI * math.exp(-0.25)) ** 3, rel=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sum_matches_fsum(self, d):
        # a signed, oscillating integrand: the weighted sum is within O(eps log n)
        # of the correctly rounded sum of the same terms, relative to their magnitude
        def wiggle(*xs):
            return np.cos(sum((7.0 + 3.0 * i) * x + x * x for i, x in enumerate(xs)))

        rule = gauss_hermite(9 + d)
        grids = np.meshgrid(*[rule.nodes] * d, indexing="ij")
        weights = functools.reduce(np.multiply.outer, [rule.weights] * d)
        terms = (weights * wiggle(*grids)).ravel()
        exact = math.fsum(terms)
        assert abs(integrate(wiggle, rule, d) - exact) <= 1e-14 * math.fsum(np.abs(terms))


class TestTransformNumeric:
    def test_constant_callable(self):
        q = QuantParams(1.5)
        for z in (0j, 0.4 + 0.2j):
            value = berezin_transform_numeric(lambda w: np.ones_like(w.real), z, q, order=60)
            assert value.real == pytest.approx(1.0, abs=1e-12)
            assert abs(value.imag) < 1e-14

    def test_gaussian_reference(self):
        # lam=1, alpha=1 at the origin: sqrt(1/2)  [frozen]
        value = berezin_transform_numeric(GaussianSymbol(1, 1.0, 1.0), 0j, QuantParams(1.0), order=80)
        assert value.real == pytest.approx(0.7071067811865476, rel=1e-9)

    def test_gaussian_off_origin(self):
        # lam=2, alpha=3 at z=0.4+0.1i -> closed value 0.6392799514357761  [frozen]
        value = berezin_transform_numeric(GaussianSymbol(1, 1.0, 2.0), 0.4 + 0.1j, QuantParams(3.0), order=80)
        assert value.real == pytest.approx(0.6392799514357761, rel=1e-9)

    def test_generic_callable_matches_symbol_path(self):
        symbol = GaussianSymbol(1, 1.0, 1.5)
        q = QuantParams(2.0)
        z = 0.3 - 0.2j
        fast = berezin_transform_numeric(symbol, z, q, order=60)
        generic = berezin_transform_numeric(
            lambda w: np.exp(-1.5 * np.real(w) ** 2), z, q, order=60
        )
        assert generic == pytest.approx(fast, rel=1e-12)

    def test_two_dim(self):
        symbol = GaussianSymbol(2, 1.0, 2.0)
        q = QuantParams(2.0)
        z = (0.2 + 0.1j, -0.3 + 0.4j)
        closed = evaluate(berezin_transform_closed(symbol, q), z)
        value = berezin_transform_numeric(symbol, z, q, order=40)
        assert value.real == pytest.approx(closed, rel=1e-9)

    def test_two_dim_generic_callable(self):
        q = QuantParams(1.0)
        z = (0.2 + 0j, 0.1 - 0.3j)
        value = berezin_transform_numeric(
            lambda w1, w2: np.ones(np.broadcast(w1, w2).shape), z, q, order=24
        )
        assert value.real == pytest.approx(1.0, abs=1e-11)

    def test_refinement_never_hurts(self):
        symbol = GaussianSymbol(1, 1.0, 2.0)
        q = QuantParams(0.5)
        z = 0.5 + 0.3j
        reference = evaluate(berezin_transform_closed(symbol, q), z)
        errors = [
            abs(berezin_transform_numeric(symbol, z, q, order=m).real - reference)
            for m in (10, 20, 40, 80)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= max(coarse, 1e-12)

    def test_dimension_cap(self):
        # the cap binds callables only; a GaussianSymbol is summed separably
        with pytest.raises(ValueError, match="n <= 2"):
            berezin_transform_numeric(lambda *w: 1.0, (0j, 0j, 0j), QuantParams(1.0))

    def test_symbol_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            berezin_transform_numeric(GaussianSymbol(2, 1.0, 1.0), 0j, QuantParams(1.0))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha", [1e-308, 1e-310])
    def test_overflowing_nodes_keep_the_constant(self, alpha, n):
        # the rule spread 1/sqrt(alpha) squares to inf; the exponent is -0 * max,
        # not 0 * inf = NaN, so the constant comes back (warnings are errors here)
        value = berezin_transform_numeric(GaussianSymbol(n, 1.0, 0.0), (0j,) * n, QuantParams(alpha))
        assert value == pytest.approx(1.0, rel=1e-15)
        assert trace_numeric(GaussianSymbol(n, 1.0, 0.0), QuantParams(alpha)) == pytest.approx(1.0, rel=1e-15)

    def test_overflowing_exponent_is_a_zero_term(self):
        # at alpha = 1e-320 the squared nodes overflow and so would lambda times
        # them; both are formed under the same errstate, so no warning escapes.
        # The rule then misses the symbol (under-resolution, no estimate yet).
        value = berezin_transform_numeric(GaussianSymbol(1, 1.0, 2.0), 0j, QuantParams(1e-320))
        assert value == 0j


# (Re z, Im z, alpha, lam) per coordinate, for the brute-force comparison
BRUTE_FORCE_CASES = [
    (np.array([0.0]), np.array([0.0]), 1.0, 1.0),
    (np.array([0.3]), np.array([-0.2]), 2.0, 0.5),
    (np.array([0.2, -0.3]), np.array([0.1, 0.4]), 2.0, 2.0),
    (np.array([0.5, 0.0]), np.array([0.0, 0.6]), 0.7, 0.0),
]


class TestCentredTransform:
    @pytest.mark.parametrize(
        "alpha,z",
        [
            (50.0, (2 + 0j,)),
            (50.0, (20 + 0j,)),
            (500.0, (1 + 0j,)),
            (500.0, (20 + 0j,)),
            (50.0, (2 + 0j, -1.5 + 3j)),
            (50.0, (2 + 0j, -1.5 + 3j, 0.7 - 0.4j)),
        ],
    )
    def test_large_alpha_times_z_squared(self, alpha, z):
        # the coherent-state kernel sits far from the origin; the rule follows it
        symbol = GaussianSymbol(len(z), 1.0, 1.0)
        q = QuantParams(alpha)
        closed = evaluate(berezin_transform_closed(symbol, q), z)
        value = berezin_transform_numeric(symbol, z, q, order=80)
        assert value.real == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert value.imag == 0.0

    def test_generic_callable_matches_symbol_off_centre(self):
        symbol = GaussianSymbol(2, 1.0, 1.0)
        q = QuantParams(50.0)
        z = (2 + 0j, -1.5 + 3j)
        fast = berezin_transform_numeric(symbol, z, q, order=24)
        generic = berezin_transform_numeric(
            lambda w1, w2: np.exp(-(np.real(w1) ** 2 + np.real(w2) ** 2)), z, q, order=24
        )
        assert generic.real == pytest.approx(fast.real, rel=1e-12)
        assert abs(generic.imag) <= 1e-12 * fast.real

    @pytest.mark.parametrize("zre,zim,alpha,lam", BRUTE_FORCE_CASES)
    def test_factorized_sum_matches_brute_force(self, zre, zim, alpha, lam):
        # independent re-computation: dense centred meshgrid on R^(2n) + fsum
        rule = gauss_hermite(12)
        n = zre.shape[0]
        grids = np.meshgrid(*([rule.nodes / math.sqrt(alpha)] * (2 * n)), indexing="ij")
        wgrids = np.meshgrid(*([rule.weights] * (2 * n)), indexing="ij")
        values = np.exp(-lam * sum((zre[j] + grids[j]) ** 2 for j in range(n)))
        for wg in wgrids:
            values = values * wg
        brute = math.fsum(values.ravel().tolist()) / math.pi**n
        z = tuple(complex(x, y) for x, y in zip(zre, zim))
        fast = berezin_transform_numeric(GaussianSymbol(n, 1.0, lam), z, QuantParams(alpha), order=12)
        assert fast.real == pytest.approx(brute, rel=1e-13)

    def test_deterministic(self):
        q = QuantParams(1.5)
        symbol = GaussianSymbol(1, 1.0, 1.0)
        first = berezin_transform_numeric(symbol, 0.3 + 0.1j, q, order=60)
        assert berezin_transform_numeric(symbol, 0.3 + 0.1j, q, order=60) == first
        generic = lambda w: np.exp(-np.real(w) ** 2)  # noqa: E731
        first = berezin_transform_numeric(generic, 0.3 + 0.1j, q, order=60)
        assert berezin_transform_numeric(generic, 0.3 + 0.1j, q, order=60) == first
        # an n = 2 callable sums a four-axis grid slab by slab: the same bits in two processes
        probe = (
            "import numpy as np; from berezin import QuantParams, berezin_transform_numeric as t; "
            "v = t(lambda w1, w2: np.exp(-np.real(w1) ** 2 - np.abs(w2) ** 2), (0.3 + 0.1j, -0.2j), "
            "QuantParams(1.5), order=24); print(v.real.hex(), v.imag.hex())"
        )
        runs = [subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True) for _ in range(2)]
        assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout


class TestMonteCarlo:
    def test_constant_has_zero_stderr(self):
        cfg = MonteCarloConfig(samples=2000, seed=5)
        estimate, stderr = monte_carlo_transform(
            lambda w: np.ones_like(w.real), 0.3 + 0.5j, QuantParams(1.0), cfg
        )
        assert estimate == 1.0
        assert stderr == 0.0

    def test_gaussian_within_three_stderr(self):
        cfg = MonteCarloConfig(samples=100_000, seed=42)
        estimate, stderr = monte_carlo_transform(GaussianSymbol(1, 1.0, 1.0), 0j, QuantParams(1.0), cfg)
        assert stderr > 0.0
        assert abs(estimate.real - 0.7071067811865476) <= 3.0 * stderr

    def test_symbol_spread_is_taken_in_place(self):
        # one 100 000-sample symbol call holds its (1, 1, N) draw and little else:
        # the squared deviations reuse that buffer, so the peak stays below two buffers
        cfg = MonteCarloConfig(samples=100_000, seed=4)
        g, q = GaussianSymbol(1, 1.0, 1.0), QuantParams(1.0)
        monte_carlo_transform(g, 0.3j, q, cfg)
        tracemalloc.start()
        try:
            monte_carlo_transform(g, 0.3j, q, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * cfg.samples

    def test_seed_determinism(self):
        cfg = MonteCarloConfig(samples=5000, seed=99)
        first = monte_carlo_transform(GaussianSymbol(1, 1.0, 1.0), 0.2 + 0j, QuantParams(2.0), cfg)
        second = monte_carlo_transform(GaussianSymbol(1, 1.0, 1.0), 0.2 + 0j, QuantParams(2.0), cfg)
        assert first == second

    @pytest.mark.parametrize(
        "f,z,alpha,samples,seed,expected",
        [
            # (estimate, stderr) reprs; a symbol draws block 0 of the stream, a callable both blocks
            (GaussianSymbol(1, 1.0, 1.0), 0.4 - 0.3j, 2.0, 1000, 7,
             "((0.7602302661877455+0j), 0.007506696832493651)"),
            (GaussianSymbol(2, 1.5, 0.5), (0.3 + 0.2j, -0.6 + 0.1j), 1.0, 2000, 8,
             "((0.8607724060262995+0j), 0.008997053049438998)"),
            (GaussianSymbol(3, 0.5, 2.0), (0.1 + 0j, -0.2 + 0.5j, 0.7 - 0.4j), 3.0, 1500, 9,
             "((0.11916485359993972+0j), 0.00299802234647109)"),
            # the callable case pins the stream's Im block, sigma * standard_normal((2, n, N))[1]
            (lambda w: np.exp(-1.5 * np.real(w) ** 2 + 0.5j * np.imag(w)), 0.3 - 0.2j, 2.0, 1000, 10,
             "((0.6878144821020382-0.07052585476393163j), 0.010188784411168874)"),
        ],
        ids=["symbol-n1", "symbol-n2", "symbol-n3", "callable"],
    )
    def test_seeded_results_pinned(self, f, z, alpha, samples, seed, expected):
        result = monte_carlo_transform(f, z, QuantParams(alpha), MonteCarloConfig(samples=samples, seed=seed))
        assert repr(result) == expected

    def test_symbol_stream_is_n_real_rows(self):
        # the documented stream, rebuilt from its definition: a symbol draws
        # block 0 of sigma * standard_normal((2, n, N)) as (1, n, N), the
        # same numbers as (n, N), and row j is Re(w_j - z_j); the unit symbol's
        # mean and standard error are then multiplied by the amplitude
        f, z, q, samples, seed = GaussianSymbol(2, 1.5, 0.5), (0.3 + 0.2j, -0.6 + 0.1j), QuantParams(1.0), 2000, 8
        rows = math.sqrt(1.0 / (2.0 * q.alpha)) * np.random.default_rng(seed).standard_normal((2, samples))
        values = np.exp(-f.compression * ((z[0].real + rows[0]) ** 2 + (z[1].real + rows[1]) ** 2))
        mean = np.mean(values)
        stderr = math.sqrt(float(np.sum((values - mean) ** 2)) / (samples * (samples - 1)))
        result = monte_carlo_transform(f, z, q, MonteCarloConfig(samples=samples, seed=seed))
        assert repr(result) == repr((complex(mean * f.amplitude), stderr * f.amplitude))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_callable_symbol_reads_the_symbol_stream(self, n):
        # one stream: the callable's Re w block is the symbol's rows, so the
        # two estimates differ only by round-off in the complex mean
        f = GaussianSymbol(n, 1.7, 0.8)
        z = tuple(complex(0.3 * j - 0.2, 0.1 * j + 0.4) for j in range(n))
        q, cfg = QuantParams(1.5), MonteCarloConfig(samples=3000, seed=11 + n)

        def callable_symbol(*w):
            return f.amplitude * np.exp(-f.compression * sum(np.real(c) ** 2 for c in w))

        symbol_mean, symbol_stderr = monte_carlo_transform(f, z, q, cfg)
        callable_mean, callable_stderr = monte_carlo_transform(callable_symbol, z, q, cfg)
        assert callable_mean.imag == 0.0
        assert callable_mean.real == pytest.approx(symbol_mean.real, rel=1e-15)
        assert callable_stderr == pytest.approx(symbol_stderr, rel=1e-15)

    def test_non_finite_sample_names_the_sample(self):
        # a callable that is non-finite past a radius fails at the first such
        # sample, named from both blocks of the stream
        cfg = MonteCarloConfig(samples=1000, seed=1)
        z = (0.5 + 0.2j, -0.3j)
        blocks = math.sqrt(0.5) * np.random.default_rng(1).standard_normal((2, 2, 1000))
        w = [c + blocks[0, j] + 1j * blocks[1, j] for j, c in enumerate(z)]
        bad = int(np.flatnonzero(np.abs(w[0]) + np.abs(w[1]) > 3.0)[0])
        assert bad > 0
        sample = tuple(c + complex(blocks[0, j, bad], blocks[1, j, bad]) for j, c in enumerate(z))
        with pytest.raises(NumericContractError, match=re.escape(f"non-finite at sample {sample}")):
            monte_carlo_transform(lambda w1, w2: np.where(np.abs(w1) + np.abs(w2) > 3.0, np.inf, 1.0), z,
                                  QuantParams(1.0), cfg)
        # a callable that is non-finite everywhere fails at the first sample,
        # column 0 of both blocks
        first = math.sqrt(0.5) * np.random.default_rng(1).standard_normal((2, 1, 1000))[:, 0, 0]
        sample = 0.5 + complex(first[0], first[1])
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericContractError, match=re.escape(f"non-finite at sample {(sample,)}")):
                monte_carlo_transform(lambda w: 1.0 / (w.real - w.real), 0.5 + 0j, QuantParams(1.0), cfg)

    @pytest.mark.parametrize(
        "amplitude,compression,cfg",
        [
            (1e305, 0.0, MonteCarloConfig(100_000, 3)),  # the sum of the scaled values would overflow
            (1e160, 1.0, MonteCarloConfig(100_000, 3)),  # so would their squared deviations
            (1e200, 1.0, MonteCarloConfig(1000, 0)),
        ],
        ids=["mean", "stderr", "1e200"],
    )
    def test_large_amplitude_is_estimated(self, amplitude, compression, cfg):
        # the unit symbol is averaged and the amplitude multiplies the result once
        g, q = GaussianSymbol(1, amplitude, compression), QuantParams(1.0)
        estimate, stderr = monte_carlo_transform(g, 0j, q, cfg)
        closed = evaluate(berezin_transform_closed(g, q), 0j)
        if compression == 0.0:
            assert (estimate, stderr) == (amplitude, 0.0)
        else:
            assert 0.0 < stderr < 0.02 * closed
            assert abs(estimate - closed) <= 4.0 * stderr

    def test_underflowing_symbol_estimate_is_refused(self):
        # sigma = 7.2e126, so every sample's exponent is about -1e46 and the mean
        # of the positive symbol is 0, against a closed value of 6.7e-107
        g, q, z = GaussianSymbol(2, 1.7369e-60, 2.4972e-207), QuantParams(9.59e-254), (1.71, 1.71)
        assert evaluate(berezin_transform_closed(g, q), z) == pytest.approx(6.67021904533077e-107, rel=1e-12, abs=0.0)
        refused = "Monte-Carlo estimate underflows to 0 at amplitude=1.7369e-60, lambda=2.4972e-207, alpha=9.59e-254"
        with pytest.raises(NumericContractError, match="^" + re.escape(refused) + "$"):
            monte_carlo_transform(g, z, q, MonteCarloConfig(samples=1000, seed=0))

    @pytest.mark.parametrize("compression", [1e10, 1e11])
    def test_estimate_carried_by_one_sample_is_refused(self, compression):
        # sigma = 0.71 against a symbol of width 1e-5: one sample carries the mean,
        # 9.7e-7 +- 9.7e-7 at lambda = 1e10 and 7.4e-16 +- 7.4e-16 at 1e11, billions
        # of standard errors from the closed value 1/sqrt(1 + lambda)
        g, q = GaussianSymbol(1, 1.0, compression), QuantParams(1.0)
        assert evaluate(berezin_transform_closed(g, q), 0j) == pytest.approx(1.0 / math.sqrt(1.0 + compression))
        refused = (
            f"Monte-Carlo estimate has effective sample size 1 (below 100) at "
            f"amplitude=1.0, lambda={compression!r}, alpha=1.0"
        )
        with pytest.raises(NumericContractError, match="^" + re.escape(refused) + "$"):
            monte_carlo_transform(g, 0j, q, MonteCarloConfig(samples=100_000, seed=0))

    def test_narrow_symbol_on_enough_samples_is_estimated(self):
        # lambda = 1e6 leaves about 144 effective samples, above the floor of 100
        g, q = GaussianSymbol(1, 1.0, 1e6), QuantParams(1.0)
        estimate, stderr = monte_carlo_transform(g, 0j, q, MonteCarloConfig(samples=100_000, seed=0))
        assert abs(estimate - evaluate(berezin_transform_closed(g, q), 0j)) <= 4.0 * stderr

    @pytest.mark.parametrize(
        "compression,alpha,refused",
        [
            # sigma = 7.1e149: lambda * (Re w)^2 overflows, so every sample is 0
            (1e10, 1e-300, "Monte-Carlo estimate underflows to 0 at amplitude=1.0, lambda=10000000000.0, alpha=1e-300"),
        ],
        ids=["underflow"],
    )
    def test_overflow_inside_the_symbol_is_refused_by_name(self, compression, alpha, refused):
        # no numpy warning comes first: warnings are errors here
        g, q = GaussianSymbol(1, 1.0, compression), QuantParams(alpha)
        with pytest.raises(NumericContractError, match="^" + re.escape(refused) + "$"):
            monte_carlo_transform(g, 0j, q, MonteCarloConfig(samples=100_000, seed=0))

    @pytest.mark.parametrize("alpha", [1e-308, 1e-310])
    @pytest.mark.parametrize("z", [0j, (0.5 + 0.2j, -0.3j)], ids=["n1", "n2"])
    def test_overflowing_square_keeps_the_constant(self, z, alpha):
        # sigma >= 7.1e153, so some squares overflow; min(u^2, max) * -0 is -0,
        # not NaN, and every sample of the constant symbol is 1
        g = GaussianSymbol(1 if z == 0j else len(z), 1.0, 0.0)
        assert monte_carlo_transform(g, z, QuantParams(alpha), MonteCarloConfig(1000, 0)) == (1 + 0j, 0.0)

    def test_zero_callable_estimate_is_zero(self):
        cfg = MonteCarloConfig(samples=1000, seed=0)
        assert monte_carlo_transform(lambda w: np.zeros(w.shape), 0j, QuantParams(1.0), cfg) == (0j, 0.0)

    def test_overflowing_callable_estimate_is_refused(self):
        cfg = MonteCarloConfig(samples=100_000, seed=3)
        with pytest.raises(NumericContractError, match=r"Monte-Carlo estimate \(inf\+0j\) is not finite$"):
            monte_carlo_transform(lambda w: np.full(w.shape, 1e305), 0j, QuantParams(1.0), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match=">= 1000"):
            MonteCarloConfig(samples=10, seed=0)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 18446744073709551615\]"):
            MonteCarloConfig(samples=1000, seed=-1)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 18446744073709551615\]"):
            MonteCarloConfig(samples=1000, seed=2**64)

