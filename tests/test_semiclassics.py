"""Star product, bidifferential terms, bracket condition, expansion check."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berezin import (
    BRACKET_NORMALIZATION,
    GaussianSymbol,
    PolynomialSymbol,
    QuantParams,
    expansion_check,
    quantization_condition_residual,
    wick_star,
)
from berezin import semiclassics
from berezin.quadrature import NumericContractError
from berezin.verify import _random_polynomial

Z = PolynomialSymbol.coordinate(1)
ZBAR = PolynomialSymbol.conj_coordinate(1)
ONE = PolynomialSymbol.constant(1, 1.0)


def coeffs_close(p, q, tol=1e-12):
    return (p - q).max_coeff() <= tol


def c_j(f, g, j):
    """C_j(f, g), the order-j term of the pair sum."""
    return semiclassics._bidifferential(f, g, 1.0, j)


def bracket(f, g):
    """{f, g}, the bracket sum on packed keys scaled by kappa."""
    keys = semiclassics._Keys(f, g)
    return keys.symbol(semiclassics._bracket_sum(keys)).scaled(BRACKET_NORMALIZATION)


def star_by_derivatives(f, g, alpha):
    total = PolynomialSymbol(f.dim, ())
    for beta in itertools.product(range(f.degree_z + 1), repeat=f.dim):
        df, dg = f, g
        for axis, count in enumerate(beta):
            for _ in range(count):
                df, dg = df.deriv_z(axis), dg.deriv_zbar(axis)
        weight = alpha ** -sum(beta) / math.prod(math.factorial(k) for k in beta)
        total = total + (df * dg).scaled(weight)
    return total


def bracket_by_derivatives(f, g):
    total = PolynomialSymbol(f.dim, ())
    for axis in range(f.dim):
        total = total + f.deriv_z(axis) * g.deriv_zbar(axis) - f.deriv_zbar(axis) * g.deriv_z(axis)
    return total.scaled(BRACKET_NORMALIZATION)


def star_by_pairs(f, g, inv_alpha, j=None):
    """Reference: the monomial-pair sum beta by beta, every beta <= min(b1, g2) of each pair."""
    dim = semiclassics._check_dims(f, g)
    cap = math.inf if j is None else j
    acc = {}
    for b1, g1, c1 in f.terms:
        for b2, g2, c2 in g.terms:
            for beta in itertools.product(*(range(min(x, y, cap) + 1) for x, y in zip(b1, g2))):
                order = sum(beta)
                if j is not None and order != j:
                    continue
                p1, p2 = math.prod(map(math.perm, b1, beta)), math.prod(map(math.perm, g2, beta))
                factorial = math.prod(map(math.factorial, beta))
                key = (tuple(x + y - k for x, y, k in zip(b1, b2, beta)), tuple(x + y - k for x, y, k in zip(g1, g2, beta)))
                acc[key] = acc.get(key, 0j) + (c1 * p1) * (c2 * p2) * (inv_alpha**order / factorial)
    return PolynomialSymbol._canonical(dim, acc)


def residual_by_parts(f, g):
    """Reference: the first-order residual composed of symbol operations."""
    return (c_j(f, g, 1) - c_j(g, f, 1) - bracket(f, g).scaled(1j / (2.0 * math.pi))).max_coeff()


def assert_pair_sum_bits(f, g, alpha):
    """f * g, wick_star and C_j at j = 0..3 equal star_by_pairs bit for bit."""
    assert coefficient_bits(f * g) == coefficient_bits(star_by_pairs(f, g, 1.0, 0))
    assert coefficient_bits(wick_star(f, g, QuantParams(alpha))) == coefficient_bits(star_by_pairs(f, g, 1.0 / alpha))
    for j in range(4):
        assert coefficient_bits(c_j(f, g, j)) == coefficient_bits(star_by_pairs(f, g, 1.0, j))


def coefficient_bits(p):
    return [(beta, gamma, c.real.hex(), c.imag.hex()) for beta, gamma, c in p.terms]


@st.composite
def polynomials(draw, dim=1, degree=2):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    return _random_polynomial(rng, dim, degree=degree, terms=3)


class TestPolynomialSymbol:
    def test_canonicalization_drops_zeros_and_sorts(self):
        p = PolynomialSymbol(1, (((2,), (0,), 1.0), ((0,), (1,), 0.0), ((1,), (0,), 2.0)))
        assert p.terms == (((1,), (0,), 2.0 + 0j), ((2,), (0,), 1.0 + 0j))
        keys = [(beta, gamma) for beta, gamma, _ in (Z * Z + (1 + 2j) * ZBAR * Z).terms]
        assert keys == sorted(keys)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="length"):
            PolynomialSymbol(2, (((1,), (0, 0), 1.0),))
        with pytest.raises(ValueError, match="non-negative"):
            PolynomialSymbol(1, (((-1,), (0,), 1.0),))

    @pytest.mark.parametrize("entry", [1.5, 2.0, True, "2", np.float64(1.0)], ids=["1.5", "2.0", "True", "str", "np.float64"])
    def test_non_integral_exponents_rejected(self, entry):
        with pytest.raises(ValueError, match=re.escape(f"multi-index ({entry!r},) must hold integers")):
            PolynomialSymbol(1, (((entry,), (0,), 1.0),))
        with pytest.raises(ValueError, match="must hold integers"):
            PolynomialSymbol(1, (([0], [entry], 1.0 + 0j),))

    def test_numpy_integer_exponents_accepted(self):
        p = PolynomialSymbol(2, (((np.int64(2), np.int32(0)), (np.uint8(1), 0), 1.0),))
        assert p.terms == (((2, 0), (1, 0), 1.0 + 0j),)
        assert all(type(k) is int for beta, gamma, _ in p.terms for k in beta + gamma)

    def test_duplicate_terms_merged(self):
        doubled = PolynomialSymbol(1, (((1,), (0,), 1.0), ((0,), (1,), 0.5), ((1,), (0,), 2.0)))
        assert doubled.terms_dict() == {((0,), (1,)): 0.5 + 0j, ((1,), (0,)): 3.0 + 0j}
        assert doubled == 3.0 * Z + 0.5 * ZBAR
        assert doubled + 0 == doubled
        assert (doubled - 3.0 * Z - 0.5 * ZBAR).terms == ()
        assert PolynomialSymbol(1, (((1,), (0,), 1.0), ((1,), (0,), -1.0))).terms == ()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_coefficients_rejected(self, bad):
        for terms in ((((0,), (0,), 2.0), ((1,), (0,), bad)), (((1,), (0,), bad), ((0,), (0,), 2.0))):
            with pytest.raises(ValueError, match=r"beta=\(1,\), gamma=\(0,\) is not finite"):
                PolynomialSymbol(1, terms)
        with pytest.raises(ValueError, match="not finite"):
            PolynomialSymbol(1, (((0,), (0,), 1e308), ((0,), (0,), 1e308)))
        with pytest.raises(ValueError, match="finite"):
            Z * bad

    Z1_PLUS_Z2_SQUARED = PolynomialSymbol(2, (((1, 0), (0, 0), 1.0), ((0, 2), (0, 0), 1.0)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PolynomialSymbol.coordinate(1, 5),
            lambda: PolynomialSymbol.conj_coordinate(2, -1),
            lambda: PolynomialSymbol.coordinate(2, True),
            lambda: TestPolynomialSymbol.Z1_PLUS_Z2_SQUARED.deriv_z(-1),
            lambda: Z.deriv_zbar(1),
            lambda: Z.deriv_z(0.0),
        ],
        ids=["coordinate", "conj_coordinate", "bool", "deriv_z", "deriv_zbar", "float"],
    )
    def test_axis_out_of_range_rejected(self, build):
        with pytest.raises(ValueError, match=r"axis must be an integer in \[0, "):
            build()

    def test_numpy_integer_axis_accepted(self):
        z2 = PolynomialSymbol.coordinate(2, np.int64(1))
        assert z2.terms == (((0, 1), (0, 0), 1.0 + 0j),)
        assert z2.deriv_z(np.int32(1)) == PolynomialSymbol.constant(2, 1.0)

    @pytest.mark.parametrize("dim", [1.9, 2.0, True, "2"])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            PolynomialSymbol(dim, (([0, 0], [1, 0], 1.0 + 0j),))

    def test_numpy_integer_dim_accepted(self):
        p = PolynomialSymbol(np.int64(1), (((1,), (0,), 1.0),))
        assert type(p.dim) is int and p == Z

    def test_overflowing_results_refused(self):
        f = PolynomialSymbol(1, (((2,), (1,), 1e200), ((0,), (0,), 2.0)))
        g = PolynomialSymbol(1, (((1,), (2,), 1e200), ((1,), (0,), 1.0)))
        with pytest.raises(NumericContractError, match=r"term beta=\(\d+,\), gamma=\(\d+,\) is not finite"):
            wick_star(f, g, QuantParams(1.0))
        with pytest.raises(NumericContractError, match="is not finite"):
            quantization_condition_residual(f, g)
        with pytest.raises(NumericContractError, match="is not finite"):
            f.scaled(1e200)
        big = f.scaled(1.5e108)
        with pytest.raises(NumericContractError, match="is not finite"):
            big + big

    def test_results_are_not_revalidated(self, monkeypatch):
        rng = np.random.default_rng(31)
        f, g = (_random_polynomial(rng, 3, degree=6, terms=30) for _ in range(2))
        calls = []
        validate = semiclassics._validate_index

        def counting(entries, dim):
            calls.append(dim)
            return validate(entries, dim)

        monkeypatch.setattr(semiclassics, "_validate_index", counting)
        wick_star(f, g, QuantParams(1.3))
        quantization_condition_residual(f, g)
        assert calls == []
        PolynomialSymbol(3, f.terms)
        assert len(calls) == 2 * len(f.terms)

    def test_degrees(self):
        p = Z * Z * ZBAR + ZBAR
        assert p.degree == 3
        assert p.degree_z == 2

    def test_arithmetic(self):
        p = 2.0 * Z + ZBAR - Z
        assert p.terms_dict() == {((1,), (0,)): 1.0 + 0j, ((0,), (1,)): 1.0 + 0j}
        assert (p - p).terms == ()

    def test_derivatives(self):
        p = Z * Z * ZBAR
        assert p.deriv_z(0).terms_dict() == {((1,), (1,)): 2.0 + 0j}
        assert p.deriv_zbar(0).terms_dict() == {((2,), (0,)): 1.0 + 0j}
        assert ONE.deriv_z(0).terms == ()

    def test_eval_point(self):
        p = Z * ZBAR  # |z|^2
        assert p.eval_point(0.3 + 0.4j) == pytest.approx(0.25, rel=1e-15)


class TestWickStar:
    def test_z_star_zbar(self):
        out = wick_star(Z, ZBAR, QuantParams(1.0))
        assert out == Z * ZBAR + ONE

    def test_zbar_star_z_has_no_correction(self):
        assert wick_star(ZBAR, Z, QuantParams(1.0)) == Z * ZBAR

    def test_number_symbol_squared(self):
        n_sym = Z * ZBAR
        out = wick_star(n_sym, n_sym, QuantParams(2.0))
        expected = Z * Z * ZBAR * ZBAR + 0.5 * (Z * ZBAR)
        assert out == expected

    def test_unit_two_sided(self):
        q = QuantParams(1.7)
        for p in (Z, ZBAR, Z * Z * ZBAR + 3.0 * ONE):
            assert wick_star(ONE, p, q) == p
            assert wick_star(p, ONE, q) == p

    def test_commutator_is_inverse_alpha(self):
        for alpha in (1.0, 2.0, 3.0):
            q = QuantParams(alpha)
            commutator = wick_star(Z, ZBAR, q) - wick_star(ZBAR, Z, q)
            assert commutator == PolynomialSymbol.constant(1, 1.0 / alpha)

    def test_c_term_sum_reconstructs_star(self):
        # independent route: sum_beta alpha^-|beta| / beta! d^beta f dbar^beta g built
        # from repeated public first derivatives, not from the monomial-pair coefficient
        rng = np.random.default_rng(21)
        q = QuantParams(1.3)
        for dim in (1, 2, 3) * 10:
            f = _random_polynomial(rng, dim, degree=3)
            g = _random_polynomial(rng, dim, degree=3)
            reference = star_by_derivatives(f, g, q.alpha)
            tol = 1e-13 * reference.max_coeff()
            assert coeffs_close(wick_star(f, g, q), reference, tol=tol)

    @given(data=polynomials(dim=1, degree=3), other=polynomials(dim=1, degree=3))
    @settings(max_examples=50, derandomize=True)
    def test_truncation_at_zero_is_product(self, data, other):
        product = data * other
        assert c_j(data, other, 0) == product
        for z in np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 2)) @ (1.0, 1j):
            expected = data.eval_point(z) * other.eval_point(z)
            assert product.eval_point(z) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_associativity_seeded(self):
        rng = np.random.default_rng(5)
        q = QuantParams(1.7)
        worst = 0.0
        for _ in range(25):
            dim = int(rng.integers(1, 3))
            f = _random_polynomial(rng, dim, degree=3)
            g = _random_polynomial(rng, dim, degree=3)
            h = _random_polynomial(rng, dim, degree=3)
            left = wick_star(wick_star(f, g, q), h, q)
            right = wick_star(f, wick_star(g, h, q), q)
            worst = max(worst, (left - right).max_coeff())
        assert worst <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            wick_star(Z, PolynomialSymbol.coordinate(2), QuantParams(1.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            Z * PolynomialSymbol.conj_coordinate(2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            quantization_condition_residual(PolynomialSymbol.coordinate(3), ZBAR)


class TestMonomialPairSum:
    def test_matches_pair_reference_bit_for_bit(self):
        # 1008 seeded pairs: degrees up to 4 at dims 1-3, then twelve (dim, degree,
        # terms) = (3, 6, 30) pairs, the largest shape of the star-algebra benchmark
        rng = np.random.default_rng(41)
        shapes = [(dim, degree, terms) for dim in (1, 2, 3) for degree, terms in ((1, 2), (2, 3), (3, 4), (4, 8))]
        for _ in range(83):
            for dim, degree, terms in shapes:
                f = _random_polynomial(rng, dim, degree=degree, terms=terms)
                g = _random_polynomial(rng, dim, degree=int(rng.integers(0, degree + 1)), terms=terms)
                assert_pair_sum_bits(f, g, float(rng.uniform(0.3, 7.0)))
        for _ in range(12):
            f, g = (_random_polynomial(rng, 3, degree=6, terms=30) for _ in range(2))
            assert_pair_sum_bits(f, g, float(rng.uniform(0.5, 5.0)))

    def test_edge_cases_match_reference(self):
        zero = PolynomialSymbol(2, ())
        z1 = PolynomialSymbol.coordinate(2, 0)
        for f, g in ((zero, zero), (zero, z1), (z1, zero)):
            assert_pair_sum_bits(f, g, 1.3)
            assert wick_star(f, g, QuantParams(1.3)).terms == ()
        # constants pack in base 1
        a, b = PolynomialSymbol.constant(3, 0.3 - 2j), PolynomialSymbol.constant(3, -1.7 + 0.1j)
        assert_pair_sum_bits(a, b, 0.9)
        assert (a * b).terms == (((0, 0, 0), (0, 0, 0), (0.3 - 2j) * (-1.7 + 0.1j)),)
        # one axis, degree 40: perm(40, beta) reaches 40!
        f = PolynomialSymbol(2, (((40, 0), (0, 0), 0.5 + 0.25j), ((3, 0), (2, 0), -1.0)))
        g = PolynomialSymbol(2, (((0, 0), (40, 0), 1.0 - 0.5j), ((1, 0), (7, 0), 0.75j)))
        assert_pair_sum_bits(f, g, 2.5)
        assert_pair_sum_bits(g, f, 2.5)
        assert wick_star(f, g, QuantParams(2.5)).terms_dict()[((0, 0), (0, 0))] != 0


class TestCTerm:
    def test_order_one_pair(self):
        assert c_j(Z, ZBAR, 1) == ONE

    def test_order_two_squares(self):
        out = c_j(Z * Z, ZBAR * ZBAR, 2)
        assert out == PolynomialSymbol.constant(1, 2.0)

    def test_two_dim_mixed(self):
        z1, z2 = PolynomialSymbol.coordinate(2, 0), PolynomialSymbol.coordinate(2, 1)
        zb1, zb2 = PolynomialSymbol.conj_coordinate(2, 0), PolynomialSymbol.conj_coordinate(2, 1)
        out = c_j(z1 * z2, zb1 * zb2, 2)
        assert out == PolynomialSymbol.constant(2, 1.0)


class TestPoissonBracket:
    def test_coordinate_pair(self):
        assert bracket(Z, ZBAR) == PolynomialSymbol.constant(1, -2j * math.pi)

    def test_antisymmetry_and_self(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = _random_polynomial(rng, 1, degree=3)
            g = _random_polynomial(rng, 1, degree=3)
            assert bracket(f, f).terms == ()
            assert coeffs_close(bracket(f, g) + bracket(g, f), PolynomialSymbol(1, ()), 1e-13)

    def test_quadratic_case(self):
        assert bracket(Z * Z, ZBAR) == (-4j * math.pi) * Z

    def test_matches_derivative_reference_bit_for_bit(self):
        # thirty degree-4 pairs at dims 1-3, then six (3, 6, 30) pairs
        rng = np.random.default_rng(13)
        shapes = [(dim, 4, 8) for dim in (1, 2, 3) * 10] + [(3, 6, 30)] * 6
        for dim, degree, terms in shapes:
            f = _random_polynomial(rng, dim, degree=degree, terms=terms)
            g = _random_polynomial(rng, dim, degree=degree, terms=terms)
            assert coefficient_bits(bracket(f, g)) == coefficient_bits(bracket_by_derivatives(f, g))

    def test_is_not_the_pair_sum(self, monkeypatch):
        rng = np.random.default_rng(23)
        f, g = (_random_polynomial(rng, 3, degree=4, terms=10) for _ in range(2))
        expected = coefficient_bits(bracket(f, g))

        def refuse(*args):
            raise AssertionError("the bracket went through the pair sum")

        monkeypatch.setattr(semiclassics, "_pair_sum", refuse)
        assert coefficient_bits(bracket(f, g)) == expected

    def test_conventional_scale(self):
        assert bracket(Z, ZBAR).scaled(1j / BRACKET_NORMALIZATION) == PolynomialSymbol.constant(1, 1j)
        assert BRACKET_NORMALIZATION == -2j * math.pi


class TestQuantizationCondition:
    def test_coordinate_pair(self):
        assert quantization_condition_residual(Z, ZBAR) <= 1e-15

    def test_self_pair(self):
        p = Z * Z * ZBAR + 2.0 * Z
        assert quantization_condition_residual(p, p) <= 1e-15

    def test_matches_composition_bit_for_bit(self):
        # 600 seeded pairs: dims 1-3, degrees 0-6, 1-30 terms each
        rng = np.random.default_rng(17)
        for _ in range(600):
            dim = int(rng.integers(1, 4))
            f, g = (_random_polynomial(rng, dim, int(rng.integers(0, 7)), int(rng.integers(1, 31))) for _ in range(2))
            assert quantization_condition_residual(f, g).hex() == residual_by_parts(f, g).hex()

    def test_verify_pairs_match_composition_bit_for_bit(self):
        rng = np.random.default_rng(7)  # the pairs `verify --seed 7` draws
        for _ in range(100):
            dim = int(rng.integers(1, 3))
            f, g = _random_polynomial(rng, dim), _random_polynomial(rng, dim)
            assert quantization_condition_residual(f, g).hex() == residual_by_parts(f, g).hex()

    @staticmethod
    def assert_outcome_of_composition(f, g):
        try:
            expected = residual_by_parts(f, g).hex()
        except NumericContractError as error:
            with pytest.raises(NumericContractError, match=re.escape(str(error))):
                quantization_condition_residual(f, g)
        else:
            assert quantization_condition_residual(f, g).hex() == expected

    @pytest.mark.parametrize("size", [1e305, 3e306, 3e307, 1e308, 1.5e308])
    def test_refusals_match_composition(self, size):
        # large coefficients overflow at different stages: C_1, the difference,
        # the bracket, its two scalings or the final difference
        rng = np.random.default_rng(int(size / 1e300))
        for dim in (1, 2, 3):
            f = _random_polynomial(rng, dim, 3, 6).scaled(size)
            g = _random_polynomial(rng, dim, 3, 6)
            self.assert_outcome_of_composition(f, g)
            self.assert_outcome_of_composition(g, f)

    def test_bracket_overflow_refused_where_c1_is_finite(self):
        # C_1(f, g) adds the constant's addends axis 2, 1, 0: -x + x + x = x; the
        # bracket adds them axis by axis, and x + x overflows; C_1(g, f) = 0
        x = 1.5e308
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        f = PolynomialSymbol(3, tuple((beta, (0, 0, 0), sign * x) for beta, sign in zip(axes, (1, 1, -1))))
        g = PolynomialSymbol(3, tuple(((0, 0, 0), gamma, 1.0) for gamma in axes))
        assert c_j(f, g, 1).terms == (((0, 0, 0), (0, 0, 0), complex(x)),)
        message = "beta=(0, 0, 0), gamma=(0, 0, 0) is not finite: (inf+0j)"
        with pytest.raises(NumericContractError, match=re.escape(message)):
            quantization_condition_residual(f, g)
        self.assert_outcome_of_composition(f, g)

    def test_builds_no_symbol(self, monkeypatch):
        rng = np.random.default_rng(3)
        f, g = (_random_polynomial(rng, 2, degree=4, terms=10) for _ in range(2))
        expected = quantization_condition_residual(f, g)

        def refuse(*args):
            raise AssertionError("the residual built a PolynomialSymbol")

        monkeypatch.setattr(PolynomialSymbol, "_ordered", refuse)
        assert quantization_condition_residual(f, g) == expected

    def test_hundred_seeded_pairs(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(1, 3))
            f = _random_polynomial(rng, dim, degree=3)
            g = _random_polynomial(rng, dim, degree=3)
            worst = max(worst, quantization_condition_residual(f, g))
        assert worst <= 1e-14


class TestExpansionCheck:
    def test_constant_symbol_vanishes(self):
        report = expansion_check(GaussianSymbol(1, 1.0, 0.0), (10.0, 100.0, 1000.0), (0j, 0.3 + 0j))
        assert report.residual_norms == (0.0, 0.0, 0.0)
        assert report.fitted_slope is None

    def test_slope_minus_one(self):
        report = expansion_check(
            GaussianSymbol(1, 1.0, 1.0), (10.0, 100.0, 1000.0), (0j, 0.3 + 0j, 0.7 + 0j)
        )
        assert report.fitted_slope == pytest.approx(-1.0, abs=0.1)

    def test_pointwise_convergence_envelope(self):
        # |transform(g) - g| -> 0 at rate lam*(lam*u2_max/4 + n/2)/alpha on the grid
        from berezin import QuantParams, berezin_transform_closed, evaluate

        g = GaussianSymbol(1, 1.0, 1.0)
        grid = (0j, 0.3 + 0j, 0.7 + 0j)
        lam, n = 1.0, 1
        u2_max = max(4.0 * z.real**2 for z in grid)
        envelope_scale = lam * (lam * u2_max / 4.0 + n / 2.0)
        for alpha in (10.0, 100.0, 1000.0):
            transformed = berezin_transform_closed(g, QuantParams(alpha))
            deviation = max(abs(evaluate(transformed, z) - evaluate(g, z)) for z in grid)
            assert deviation <= envelope_scale / alpha * 1.05

    def test_needs_three_alphas(self):
        with pytest.raises(ValueError, match="three"):
            expansion_check(GaussianSymbol(1, 1.0, 1.0), (10.0, 100.0), (0j,))

    def test_needs_increasing_alphas(self):
        with pytest.raises(ValueError, match="increasing"):
            expansion_check(GaussianSymbol(1, 1.0, 1.0), (10.0, 10.0, 100.0), (0j,))
        # refused before any residual or fit: a fit on equal abscissae warns (RankWarning)
        with pytest.raises(ValueError, match="increasing"):
            expansion_check(GaussianSymbol(1, 1.0, 1.0), (10.0, 10.0, 10.0), (0j, 0.3 + 0j))

    def test_residual_is_amplitude_times_alpha_times_sup_taylor_remainder(self):
        from berezin import taylor_remainder

        grid = (0j, 0.3 + 0j, 0.7 + 0j)
        g = GaussianSymbol(2, 40.0, 1.5)
        report = expansion_check(g, (10.0, 100.0, 1000.0), [(z, z) for z in grid])
        for alpha, residual in zip(report.alphas, report.residual_norms):
            sup = max(taylor_remainder(g, QuantParams(alpha), (z, z)) for z in grid)
            assert residual == 40.0 * alpha * sup

    def test_frozen_residuals(self):
        report = expansion_check(
            GaussianSymbol(1, 1.0, 1.0), (10.0, 100.0, 1000.0), (0j, 0.3 + 0j, 0.7 + 0j)
        )
        frozen = (0.03462589245592396, 0.0037190209989157452, 0.00037468777314142443)
        assert report.residual_norms == pytest.approx(frozen, rel=1e-9)
        assert report.fitted_slope == pytest.approx(-0.9828657272262038, rel=1e-9)

    def test_needs_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            expansion_check(GaussianSymbol(1, 1.0, 1.0), (10.0, 100.0, 1000.0), ())
