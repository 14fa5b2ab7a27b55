"""Closed-form symbol algebra: evaluation, width map, heat identity, moments.

Expected values marked "frozen" were computed independently (direct scalar
substitution, and adaptive 2-D quadrature for the transform itself) before
being asserted here.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berezin import (
    ComplexPoint,
    GaussianSymbol,
    GridSpec,
    MonteCarloConfig,
    OscillatorSpec,
    PolynomialSymbol,
    QuantParams,
    berezin_transform_closed,
    berezin_transform_numeric,
    evaluate,
    gauss_hermite,
    gaussian_moment,
    heat_evolve,
    purity_index,
    spectrum,
    taylor_remainder,
    trace_numeric,
    uncertainty_quadrature,
    uncertainty_report,
)
from berezin.gaussian_calculus import NumericContractError, _first_order, as_point

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestEvaluate:
    def test_zero_compression_is_constant(self):
        g = GaussianSymbol(dim=1, amplitude=1.0, compression=0.0)
        for z in (0j, 1.5 - 2j, -0.3 + 0.9j):
            assert evaluate(g, z) == 1.0

    def test_origin(self):
        g = GaussianSymbol(dim=1, amplitude=1.0, compression=1.0)
        assert evaluate(g, 0j) == 1.0

    def test_frozen_point(self):
        # (2*Re z)^2 = 1 at z = 0.5+0.7i, so the value is exp(-1/4)  [frozen]
        g = GaussianSymbol(dim=1, amplitude=1.0, compression=1.0)
        assert evaluate(g, 0.5 + 0.7j) == pytest.approx(0.7788007830714049, rel=1e-15)

    def test_imaginary_shift_invariance(self):
        g = GaussianSymbol(dim=2, amplitude=2.0, compression=1.5)
        z = ComplexPoint((0.4 + 0.1j, -0.2 + 0.9j))
        shifted = ComplexPoint((0.4 - 3.7j, -0.2 + 0.05j))
        assert evaluate(g, z) == evaluate(g, shifted)

    def test_positive_everywhere(self):
        g = GaussianSymbol(dim=1, amplitude=0.5, compression=3.0)
        for x in np.linspace(-4, 4, 17):
            assert evaluate(g, complex(x, x / 2)) > 0.0

    def test_dimension_mismatch(self):
        g = GaussianSymbol(dim=2, amplitude=1.0, compression=1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate(g, 1.0 + 0j)

    def test_empty_point(self):
        with pytest.raises(ValueError, match="a point needs at least one coordinate"):
            as_point([])

    def test_non_finite_coordinates(self):
        with pytest.raises(ValueError, match="non-finite"):
            ComplexPoint((complex("inf"), 0j))
        with pytest.raises(ValueError, match="non-finite"):
            ComplexPoint((complex(0, float("nan")),))

    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            GaussianSymbol(dim=0, amplitude=1.0, compression=0.0)
        with pytest.raises(ValueError):
            GaussianSymbol(dim=1, amplitude=0.0, compression=0.0)
        with pytest.raises(ValueError):
            GaussianSymbol(dim=1, amplitude=1.0, compression=-0.5)
        with pytest.raises(ValueError):
            QuantParams(0.0)


class TestTransformClosed:
    def test_reference_case(self):
        # lam=1, alpha=1 -> amplitude sqrt(1/2), width 1/2  [frozen]
        out = berezin_transform_closed(GaussianSymbol(1, 1.0, 1.0), QuantParams(1.0))
        assert out.amplitude == pytest.approx(0.7071067811865476, rel=1e-15)
        assert out.compression == pytest.approx(0.5, rel=1e-15)

    def test_constant_fixed_point_exact(self):
        out = berezin_transform_closed(GaussianSymbol(1, 1.0, 0.0), QuantParams(3.0))
        assert out.amplitude == 1.0
        assert out.compression == 0.0

    def test_classical_limit_case(self):
        out = berezin_transform_closed(GaussianSymbol(1, 1.0, 1.0), QuantParams(1e4))
        assert out.compression == pytest.approx(0.9999000099990001, rel=1e-14)
        assert out.amplitude == pytest.approx(0.9999500037496876, rel=1e-14)

    @given(lam=positive, alpha=positive)
    @settings(max_examples=200, derandomize=True)
    def test_monotone_contraction(self, lam, alpha):
        out = berezin_transform_closed(GaussianSymbol(1, 1.0, lam), QuantParams(alpha))
        assert 0.0 < out.compression < min(alpha, lam)

    def test_classical_limit_bound(self):
        lam = 1.7
        for k in range(2, 7):
            alpha = 10.0**k
            out = berezin_transform_closed(GaussianSymbol(1, 1.0, lam), QuantParams(alpha))
            assert abs(out.compression - lam) <= lam * lam / alpha
            assert abs(out.amplitude - 1.0) <= lam / alpha

    @pytest.mark.parametrize("amplitude,lam,alpha,dim", [(1e-300, 1e300, 1e-300, 1), (1.0, 1.0, 1e-250, 3)])
    def test_underflowing_amplitude_raises(self, amplitude, lam, alpha, dim):
        with pytest.raises(NumericContractError, match="transformed amplitude underflows to 0"):
            berezin_transform_closed(GaussianSymbol(dim, amplitude, lam), QuantParams(alpha))

    @given(lam=positive, alpha=positive, factor=positive)
    @settings(max_examples=200, derandomize=True)
    def test_linearity(self, lam, alpha, factor):
        g = GaussianSymbol(1, 1.0, lam)
        q = QuantParams(alpha)
        left = berezin_transform_closed(GaussianSymbol(1, factor, lam), q)
        transformed = berezin_transform_closed(g, q)
        right = GaussianSymbol(1, transformed.amplitude * factor, transformed.compression)
        assert left.compression == right.compression
        assert left.amplitude == pytest.approx(right.amplitude, rel=1e-15)


class TestHeatEvolve:
    def test_bitwise_agreement_grid(self):
        for lam in (0.5, 1.0, 2.0):
            for alpha in (0.5, 1.0, 5.0):
                for dim in (1, 2):
                    g = GaussianSymbol(dim, 1.0, lam)
                    q = QuantParams(alpha)
                    a = heat_evolve(g, q)
                    b = berezin_transform_closed(g, q)
                    assert a.amplitude == b.amplitude
                    assert a.compression == b.compression

    def test_constant_unchanged(self):
        g = GaussianSymbol(1, 2.5, 0.0)
        out = heat_evolve(g, QuantParams(7.0))
        assert out == g

    def test_two_dim_case(self):
        # n=2, lam=2, alpha=2: amplitude factor (1/2)^1, width 1  [frozen]
        out = heat_evolve(GaussianSymbol(2, 1.0, 2.0), QuantParams(2.0))
        assert out.amplitude == pytest.approx(0.5, rel=1e-15)
        assert out.compression == pytest.approx(1.0, rel=1e-15)


class TestTaylorRemainder:
    def test_zero_compression(self):
        g = GaussianSymbol(1, 1.0, 0.0)
        for alpha in (1.0, 10.0, 100.0):
            assert taylor_remainder(g, QuantParams(alpha), 0.7 - 0.2j) == 0.0

    def test_quarters_per_doubling(self):
        g = GaussianSymbol(1, 1.0, 1.0)
        remainders = [taylor_remainder(g, QuantParams(a), 0j) for a in (10.0, 20.0, 40.0)]
        for coarse, fine in zip(remainders, remainders[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.15)

    def test_frozen_value(self):
        g = GaussianSymbol(1, 1.0, 1.0)
        remainder = taylor_remainder(g, QuantParams(100.0), 0.3 + 0j)
        assert remainder < 1e-3
        assert remainder == pytest.approx(2.216482368599948e-05, rel=1e-9)  # frozen

    def test_overflowing_first_order_factor_raises(self):
        # lam^2 overflows; the factor (inf) times exp(-...) = 0 was a quiet NaN
        with pytest.raises(NumericContractError, match=r"lambda=1e\+172, alpha=5e\+255"):
            taylor_remainder(GaussianSymbol(1, 1.0, 1e172), QuantParams(5e255), 0.3)

    @pytest.mark.parametrize("dim,z", [(1, 0j), (1, 0.7 - 0.2j), (2, (0.3 + 0j, -0.45 + 0.6j))])
    def test_first_order_is_symbol_plus_quarter_laplacian_over_alpha(self, dim, z):
        # g + Lap(g)/(4*alpha), with Lap(g)/4 = (lam^2*u^2 - 2*n*lam)/4 * g
        g, q, point = GaussianSymbol(dim, 2.5, 1.5), QuantParams(40.0), as_point(z, dim)
        u2 = sum((2.0 * c.real) ** 2 for c in point.coords)
        quarter_laplacian = 0.25 * (1.5**2 * u2 - 2.0 * dim * 1.5) * evaluate(g, point)
        assert _first_order(g, q, point) == pytest.approx(evaluate(g, point) + quarter_laplacian / 40.0, rel=1e-14)

    def test_remainder_is_the_gap_to_the_first_order(self):
        g, q, point = GaussianSymbol(2, 1.0, 0.8), QuantParams(12.0), as_point((0.3 + 0.1j, -0.2j), 2)
        closed = evaluate(berezin_transform_closed(g, q), point)
        assert taylor_remainder(g, q, point) == abs(closed - _first_order(g, q, point))

    def test_first_order_refuses_an_overflowing_factor(self):
        with pytest.raises(NumericContractError, match=r"lambda=1e\+172, alpha=5e\+255"):
            _first_order(GaussianSymbol(1, 1.0, 1e172), QuantParams(5e255), as_point(0.3))

    def test_amplitude_ignored(self):
        q = QuantParams(25.0)
        small = taylor_remainder(GaussianSymbol(1, 1.0, 1.0), q, 0.4 + 0j)
        large = taylor_remainder(GaussianSymbol(1, 40.0, 1.0), q, 0.4 + 0j)
        assert small == large

    def test_loglog_slope(self):
        g = GaussianSymbol(1, 1.0, 1.0)
        alphas = (10.0, 100.0, 1000.0)
        sups = [
            max(taylor_remainder(g, QuantParams(a), z) for z in (0j, 0.3 + 0j, 0.7 + 0j))
            for a in alphas
        ]
        slope = np.polyfit(np.log(alphas), np.log(sups), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.1)


class TestTransformCompose:
    # applied twice, the closed transform adds reciprocal widths: 1/lam'' = 1/lam + 1/alpha_1 + 1/alpha_2

    def test_two_unit_steps(self):
        g = GaussianSymbol(1, 1.0, 1.0)
        out = berezin_transform_closed(berezin_transform_closed(g, QuantParams(1.0)), QuantParams(1.0))
        assert out.compression == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_zero_compression(self):
        g = GaussianSymbol(1, 1.0, 0.0)
        out = berezin_transform_closed(berezin_transform_closed(g, QuantParams(2.0)), QuantParams(5.0))
        assert out.compression == 0.0
        assert out.amplitude == 1.0

    def test_matches_single_flow_at_summed_time(self):
        # two steps at alpha=2 equal one step at alpha=1 (t = 1/2 + 1/2)  [frozen]
        g = GaussianSymbol(1, 1.0, 2.0)
        out = berezin_transform_closed(berezin_transform_closed(g, QuantParams(2.0)), QuantParams(2.0))
        single = berezin_transform_closed(g, QuantParams(1.0))
        assert out.compression == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert out.amplitude == pytest.approx(0.5773502691896257, rel=1e-14)
        assert out.compression == pytest.approx(single.compression, rel=1e-14)
        assert out.amplitude == pytest.approx(single.amplitude, rel=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("lam,a1,a2", [(1.0, 1.0, 1.0), (2.0, 0.5, 3.0)])
    def test_second_step_matches_quadrature(self, dim, lam, a1, a2):
        # the second step taken by quadrature on the closed first step
        once = berezin_transform_closed(GaussianSymbol(dim, 1.0, lam), QuantParams(a1))
        z = (0.4 - 0.2j, -0.3 + 0.5j, 0.6 + 0.1j)[:dim]
        twice = evaluate(berezin_transform_closed(once, QuantParams(a2)), z)
        assert berezin_transform_numeric(once, z, QuantParams(a2)).real == pytest.approx(twice, rel=1e-9)

    @given(lam=positive, a1=positive, a2=positive)
    @settings(max_examples=200, derandomize=True)
    def test_reciprocal_additivity(self, lam, a1, a2):
        g = GaussianSymbol(1, 1.0, lam)
        out = berezin_transform_closed(berezin_transform_closed(g, QuantParams(a1)), QuantParams(a2))
        assert 1.0 / out.compression == pytest.approx(1.0 / lam + 1.0 / a1 + 1.0 / a2, rel=1e-12)


class TestGaussianMoment:
    def test_normalization(self):
        assert gaussian_moment(0, 2.0) == pytest.approx(1.2533141373155001, rel=1e-15)

    def test_second_moment(self):
        assert gaussian_moment(2, 1.0) == pytest.approx(0.8862269254527579, rel=1e-15)

    def test_fourth_moment(self):
        assert gaussian_moment(4, 1.0) == pytest.approx(1.329340388179137, rel=1e-15)

    def test_odd_vanishes(self):
        assert gaussian_moment(3, 1.0) == 0.0
        assert gaussian_moment(1, 1e-300) == 0.0
        with pytest.raises(ValueError, match="a must be positive"):  # a is still validated
            gaussian_moment(3, 0.0)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            gaussian_moment(2, 0.0)
        with pytest.raises(ValueError):
            gaussian_moment(2, -1.0)

    def test_matches_quadrature(self):
        rule = gauss_hermite(40)
        for a in (0.5, 1.0, 2.0):
            for k in range(0, 12, 2):
                numeric = float(np.sum(rule.weights * (rule.nodes / math.sqrt(a)) ** k)) / math.sqrt(a)
                assert numeric == pytest.approx(gaussian_moment(k, a), rel=1e-12)

    @staticmethod
    def reference(k, a):
        """Gamma((k+1)/2) / a^((k+1)/2) at 50 digits."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            half = mp.mpf(k + 1) / 2
            return mp.gamma(half) / mp.mpf(a) ** half

    @staticmethod
    def bound(k, a):
        """The documented relative bound, 4 eps (1 + |lgamma((k+1)/2)| + |(k+1)/2 * log a|)."""
        half = (k + 1) / 2
        return 4.0 * 2.0**-52 * (1.0 + abs(math.lgamma(half)) + abs(half * math.log(a)))

    def relative_error(self, k, a):
        reference = self.reference(k, a)
        return float(abs((gaussian_moment(k, a) - reference) / reference))

    def test_matches_mpmath_table(self):
        worst = 0.0
        for k in range(0, 79, 2):
            for a in (1e-3, 0.5, 1.0, 2.0, 1e3):
                error = self.relative_error(k, a)
                assert error <= self.bound(k, a), (k, a)
                worst = max(worst, error)
        assert worst <= 5e-14

    @pytest.mark.parametrize(
        "k,a,expected",
        [
            # 50-digit values; the double-factorial product returned inf at (340, 1)
            # and raised a bare OverflowError at (300, 1e3)
            (340, 1.0, 5.5620924145599996107e305),
            (300, 1e3, 1.4739605841092377131e-190),
        ],
        ids=["340-1", "300-1e3"],
    )
    def test_large_orders_are_normal_doubles(self, k, a, expected):
        assert gaussian_moment(k, a) == pytest.approx(expected, rel=4e-14, abs=0.0)
        assert self.relative_error(k, a) <= 4e-14

    @pytest.mark.parametrize(
        "k,a",
        [
            (4, 1e-200),  # 1.3e500; a bare ZeroDivisionError before
            (6, 1e150),  # 3.3e-525; a bare OverflowError before
            (400, 1.0),  # 5.6e373
            (2, 1e206),  # 8.9e-310, sub-normal
        ],
    )
    def test_out_of_range_is_refused_by_name(self, k, a):
        reference = self.reference(k, a)
        assert not 2.2250738585072014e-308 <= reference <= 1.7976931348623157e308
        with pytest.raises(NumericContractError, match=re.escape(f"outside the normal double range at k={k}, a={a!r}")):
            gaussian_moment(k, a)

    @given(half_k=st.integers(min_value=0, max_value=2000), log_a=st.floats(min_value=-300.0, max_value=300.0))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_agrees_or_refuses_across_the_domain(self, half_k, log_a):
        k, a = 2 * half_k, 10.0**log_a
        bound = self.bound(k, a)
        reference = self.reference(k, a)
        try:
            value = gaussian_moment(k, a)
        except NumericContractError as error:
            assert f"k={k}, a={a!r}" in str(error)
            assert reference < 2.2250738585072014e-308 * (1.0 + bound) or reference > 1.7976931348623157e308 * (1.0 - bound)
        else:
            assert float(abs((value - reference) / reference)) <= bound


# every integer parameter goes through gaussian_calculus._integer: bool,
# float and str are refused; numpy integers are accepted and stored as int
INTEGER_PARAMETERS = {
    "GaussianSymbol.dim": (2, lambda k: GaussianSymbol(dim=k).dim),
    "gauss_hermite.order": (20, lambda k: gauss_hermite(k).order),
    "MonteCarloConfig.samples": (1000, lambda k: MonteCarloConfig(samples=k, seed=0).samples),
    "MonteCarloConfig.seed": (3, lambda k: MonteCarloConfig(samples=1000, seed=k).seed),
    "OscillatorSpec.dim": (2, lambda k: OscillatorSpec(dim=k).dim),
    "GridSpec.points": (500, lambda k: GridSpec(6.0, k).points),
    "spectrum.levels": (2, lambda k: spectrum(OscillatorSpec(), GridSpec(6.0, 500), k).size),
    "PolynomialSymbol.dim": (2, lambda k: PolynomialSymbol(k, ()).dim),
    "PolynomialSymbol.constant": (2, lambda k: PolynomialSymbol.constant(k, 1.0).dim),
    "gaussian_moment.k": (2, lambda k: gaussian_moment(k, 1.0)),
    "trace_numeric.order": (20, lambda k: trace_numeric(GaussianSymbol(1), QuantParams(1.0), k)),
}


class TestIntegerParameters:
    @pytest.mark.parametrize("name", INTEGER_PARAMETERS)
    @pytest.mark.parametrize("make", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_accepted(self, name, make):
        value, build = INTEGER_PARAMETERS[name]
        result = build(make(value))
        assert result == build(value)
        assert type(result) is type(build(value))

    @pytest.mark.parametrize("name", INTEGER_PARAMETERS)
    @pytest.mark.parametrize("kind", ["bool", "float", "str"])
    def test_non_integer_refused(self, name, kind):
        value, build = INTEGER_PARAMETERS[name]
        bad = {"bool": True, "float": float(value), "str": str(value)}[kind]
        with pytest.raises(ValueError):
            build(bad)


# every real parameter goes through gaussian_calculus._real: (valid value,
# call returning what is stored or computed, name in the refusal, 0 allowed)
REAL_PARAMETERS = {
    "QuantParams.alpha": (2.0, lambda x: QuantParams(x).alpha, "alpha", False),
    "GaussianSymbol.amplitude": (2.0, lambda x: GaussianSymbol(1, x).amplitude, "amplitude", False),
    "GaussianSymbol.compression": (0.5, lambda x: GaussianSymbol(1, 1.0, x).compression, "lambda", True),
    "OscillatorSpec.h": (0.5, lambda x: OscillatorSpec(h=x).h, "h", False),
    "GridSpec.half_width": (6.0, lambda x: GridSpec(x, 500).half_width, "half_width", False),
    "purity_index.lam": (0.5, lambda x: purity_index(x, QuantParams(1.0)).lam, "lambda", False),
    "gaussian_moment.a": (2.0, lambda x: gaussian_moment(2, x), "a", False),
    "uncertainty_report.lam": (0.5, lambda x: uncertainty_report(x).lam, "lambda", False),
    "uncertainty_report.amplitude": (2.0, lambda x: uncertainty_report(1.0, x).amplitude, "K", False),
    "uncertainty_quadrature.lam": (0.5, lambda x: uncertainty_quadrature(x).lam, "lambda", False),
    "uncertainty_quadrature.amplitude": (2.0, lambda x: uncertainty_quadrature(1.0, x).amplitude, "K", False),
}


class TestRealParameters:
    @pytest.mark.parametrize("name", REAL_PARAMETERS)
    @pytest.mark.parametrize("make", [np.float64, np.float32])
    def test_numpy_float_accepted(self, name, make):
        value, build, _, _ = REAL_PARAMETERS[name]
        result = build(make(value))
        assert result == build(value)
        assert type(result) is float

    @pytest.mark.parametrize("name", REAL_PARAMETERS)
    @pytest.mark.parametrize("bad", [True, math.nan, math.inf, -math.inf, -1.0, 0.0, "1.0"], ids=repr)
    def test_refused_by_name(self, name, bad):
        _, build, param, zero_allowed = REAL_PARAMETERS[name]
        if bad == 0.0 and zero_allowed and not isinstance(bad, bool):
            assert build(bad) == 0.0
            return
        rule = "non-negative and finite" if zero_allowed else "positive and finite"
        with pytest.raises(ValueError, match=rf"^{re.escape(param)} must be {rule}, got "):
            build(bad)
