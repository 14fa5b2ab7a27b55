"""Quadrature oracle: rule construction, tensor integration, transform, MC."""

import math
import re

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
)
from berezin.quadrature import MAX_RULE_ORDER, RULE_CACHE_SIZE, NumericContractError, _build_rule, tree_sum

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

    def test_cache_is_bounded(self):
        for order in range(1, MAX_RULE_ORDER + 1):
            gauss_hermite(order)
        assert 6 <= _build_rule.cache_info().currsize <= RULE_CACHE_SIZE

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
        assert integrate(lambda x: np.ones_like(x), [gauss_hermite(10)]) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_second_moment(self):
        value = integrate(lambda x: x * x, [gauss_hermite(10)])
        assert value == pytest.approx(SQRT_PI / 2, rel=1e-14)

    def test_two_dim_product(self):
        value = integrate(lambda x, y: x * x * y * y, [gauss_hermite(12)] * 2)
        assert value == pytest.approx(math.pi / 4, rel=1e-13)

    def test_scale(self):
        value = integrate(lambda x: x * x, [gauss_hermite(20)], scale=2.0)
        assert value == pytest.approx(gaussian_moment(2, 2.0), rel=1e-13)

    def test_per_axis_scales(self):
        value = integrate(lambda x, y: x * x * np.ones_like(y), [gauss_hermite(20)] * 2, scale=(2.0, 0.5))
        expected = gaussian_moment(2, 2.0) * gaussian_moment(0, 0.5)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_separable_equals_product(self):
        rules = [gauss_hermite(16)] * 2
        tensor = integrate(lambda x, y: x**2 * y**4, rules)
        product = integrate(lambda x: x**2, rules[:1]) * integrate(lambda y: y**4, rules[:1])
        assert tensor == pytest.approx(product, rel=1e-12)

    def test_four_dim_chunked(self):
        rules = [gauss_hermite(8)] * 4
        value = integrate(lambda a, b, c, d: a * a * np.ones_like(b + c + d), rules)
        assert value == pytest.approx(SQRT_PI**3 * SQRT_PI / 2, rel=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="1 <= d <= 4"):
            integrate(lambda *a: 1.0, [gauss_hermite(2)] * 5)

    def test_non_finite_names_node(self):
        def bad(x):
            with np.errstate(divide="ignore"):
                return np.asarray(1.0 / x)

        with pytest.raises(ValueError, match="non-finite at node"):
            integrate(bad, [gauss_hermite(3)])  # odd order has a node at 0

    def test_complex_integrand(self):
        value = integrate(lambda x: np.exp(1j * x), [gauss_hermite(30)])
        assert complex(value) == pytest.approx(SQRT_PI * math.exp(-0.25), rel=1e-13)


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

    def test_overflowing_nodes_raise(self):
        # at alpha=1e-310 the rule spread 1/sqrt(alpha) squares to inf, and 0*inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite at node"):
                berezin_transform_numeric(GaussianSymbol(1, 1.0, 0.0), 0j, QuantParams(1e-310))


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
        assert value.real == pytest.approx(closed, rel=1e-12)
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
             "((0.8607724060262995+0j), 0.008997053049438996)"),
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
        # same numbers as (n, N), and row j is Re(w_j - z_j)
        f, z, q, samples, seed = GaussianSymbol(2, 1.5, 0.5), (0.3 + 0.2j, -0.6 + 0.1j), QuantParams(1.0), 2000, 8
        rows = math.sqrt(1.0 / (2.0 * q.alpha)) * np.random.default_rng(seed).standard_normal((2, samples))
        values = f.amplitude * np.exp(-f.compression * ((z[0].real + rows[0]) ** 2 + (z[1].real + rows[1]) ** 2))
        mean = np.mean(values)
        stderr = math.sqrt(float(np.sum((values - mean) ** 2)) / (samples * (samples - 1)))
        result = monte_carlo_transform(f, z, q, MonteCarloConfig(samples=samples, seed=seed))
        assert repr(result) == repr((complex(mean), stderr))

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
        # at alpha=1e-310 a sample's square overflows, and 0 * inf is NaN
        cfg = MonteCarloConfig(samples=1000, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericContractError, match=r"non-finite at sample \(\("):
                monte_carlo_transform(GaussianSymbol(1, 1.0, 0.0), 0j, QuantParams(1e-310), cfg)
        # at alpha=1e-308 the samples are finite (sigma = 7.1e153) but some
        # squares are not; the message names the first such sample, its Re w
        # drawn and its Im w that of the centre
        rows = math.sqrt(1.0 / 2e-308) * np.random.default_rng(1).standard_normal((2, 1000))
        with np.errstate(over="ignore"):
            bad = int(np.flatnonzero(np.isinf((0.5 + rows[0]) ** 2 + rows[1] ** 2))[0])
        sample = (0.5 + 0.2j + rows[0, bad], -0.3j + rows[1, bad])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericContractError, match=re.escape(f"non-finite at sample {sample}")):
                monte_carlo_transform(GaussianSymbol(2, 1.0, 0.0), (0.5 + 0.2j, -0.3j), QuantParams(1e-308), cfg)
        # a callable that is non-finite everywhere fails at the first sample,
        # column 0 of both blocks
        first = math.sqrt(0.5) * np.random.default_rng(1).standard_normal((2, 1, 1000))[:, 0, 0]
        sample = 0.5 + complex(first[0], first[1])
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericContractError, match=re.escape(f"non-finite at sample {(sample,)}")):
                monte_carlo_transform(lambda w: 1.0 / (w.real - w.real), 0.5 + 0j, QuantParams(1.0), cfg)

    @pytest.mark.parametrize(
        "amplitude,compression,refused",
        [
            (1e305, 0.0, r"estimate \(inf\+0j\) is not finite at amplitude=1e\+305"),  # the mean's sum overflows
            (1e160, 1.0, r"standard error inf is not finite at amplitude=1e\+160"),  # squared deviations overflow
        ],
        ids=["mean", "stderr"],
    )
    def test_overflowing_estimate_is_refused(self, amplitude, compression, refused):
        cfg = MonteCarloConfig(samples=100_000, seed=3)
        with pytest.raises(NumericContractError, match="Monte-Carlo " + refused):
            monte_carlo_transform(GaussianSymbol(1, amplitude, compression), 0j, QuantParams(1.0), cfg)

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


class TestTreeSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(3)
        for size in (1, 2, 7, 100, 1023):
            values = rng.uniform(-1, 1, size=size)
            assert tree_sum(values) == pytest.approx(math.fsum(values), rel=1e-13, abs=1e-15)

    def test_deterministic(self):
        values = np.random.default_rng(0).normal(size=10_001)
        assert tree_sum(values) == tree_sum(values)

    def test_empty(self):
        assert tree_sum(np.array([])) == 0.0

    def test_preserves_dtype(self):
        assert isinstance(tree_sum(np.array([1.0, 2.0])), np.float64)
        assert tree_sum(np.array([1.0 + 1j, 2.0 - 0.5j])) == 3.0 + 0.5j
