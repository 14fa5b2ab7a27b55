"""The weight's unit mass, the trace, and the purity index."""

import re

import pytest

from berezin import (
    ComplexPoint,
    GaussianSymbol,
    QuantParams,
    berezin_transform_closed,
    berezin_transform_numeric,
    purity_index,
    trace,
    trace_numeric,
)
from berezin.bergman_space import purity_raw_numeric
from berezin.gaussian_calculus import NumericContractError


class TestWeight:
    @pytest.mark.parametrize("dim,alpha", [(1, 2.0), (1, 0.5), (2, 1.0), (3, 0.7)])
    def test_total_mass(self, dim, alpha):
        mass = trace_numeric(GaussianSymbol(dim), QuantParams(alpha), order=60)
        assert mass == pytest.approx(1.0, abs=1e-12)


class TestTrace:
    def test_constants_trace_to_amplitude(self):
        for alpha in (0.5, 1.0, 7.0):
            assert trace(GaussianSymbol(1, 1.0, 0.0), QuantParams(alpha)) == 1.0
            assert trace(GaussianSymbol(3, 2.5, 0.0), QuantParams(alpha)) == 2.5

    def test_reference_case_matches_quadrature(self):
        # closed value (1/2)^(1/2)  [frozen, cross-checked by adaptive quadrature]
        g = GaussianSymbol(1, 1.0, 1.0)
        q = QuantParams(1.0)
        closed = trace(g, q)
        assert closed == pytest.approx(0.7071067811865476, rel=1e-15)
        assert trace_numeric(g, q, order=80) == pytest.approx(closed, rel=1e-9)

    def test_classical_limit(self):
        g = GaussianSymbol(1, 2.0, 1.0)
        assert trace(g, QuantParams(1e8)) == pytest.approx(2.0, rel=1e-7)

    def test_two_dim_quadrature(self):
        g = GaussianSymbol(2, 1.5, 0.7)
        q = QuantParams(3.0)
        assert trace_numeric(g, q, order=60) == pytest.approx(trace(g, q), rel=1e-9)

    def test_three_dim_factorized_quadrature(self):
        g = GaussianSymbol(3, 1.0, 1.2)
        q = QuantParams(2.0)
        assert trace_numeric(g, q, order=80) == pytest.approx(trace(g, q), rel=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("alpha,lam", [(0.5, 0.25), (0.5, 2.0), (2.0, 1.0), (8.0, 0.5)])
    def test_closed_matches_quadrature(self, dim, alpha, lam):
        g = GaussianSymbol(dim, 1.5, lam)
        q = QuantParams(alpha)
        assert trace_numeric(g, q) == pytest.approx(trace(g, q), rel=1e-9)

    def test_underflowing_trace_is_refused_as_the_transform_is(self):
        # amplitude * (alpha/(alpha + lam))^(n/2) = 1e-300 * 1e-310 underflows to 0
        g, q = GaussianSymbol(1, 1e-300, 1e300), QuantParams(1e-10)
        named = "transformed amplitude underflows to 0 at amplitude=1e-300, lambda=1e+300, alpha=1e-10, n=1"
        for refused in (berezin_transform_closed, trace):
            with pytest.raises(NumericContractError, match="^" + re.escape(named) + "$"):
                refused(g, q)

    def test_numeric_trace_is_transform_at_origin(self):
        for g in (GaussianSymbol(1, 1.0, 1.0), GaussianSymbol(2, 1.5, 0.7), GaussianSymbol(3, 1.0, 1.2)):
            q = QuantParams(2.0)
            origin = ComplexPoint.origin(g.dim)
            assert trace_numeric(g, q) == berezin_transform_numeric(g, origin, q).real


class TestPurity:
    def test_reference_half(self):
        report = purity_index(1.0, QuantParams(1.0), dim=1)
        assert report.normalized_trace == 0.5

    def test_inverse_powers_of_two(self):
        assert purity_index(1.0, QuantParams(1.0), dim=2).normalized_trace == 0.25
        assert purity_index(1.0, QuantParams(1.0), dim=3).normalized_trace == 0.125

    def test_classical_limit(self):
        report = purity_index(1.0, QuantParams(1e6), dim=1)
        assert abs(report.normalized_trace - 1.0) <= 2e-6
        assert report.normalized_trace == pytest.approx(0.999998500003375, rel=1e-12)

    def test_raw_trace_consistency(self):
        # normalized = raw / (alpha/(alpha+lam))^(n/2)
        for lam, alpha, dim in ((1.0, 1.0, 1), (0.5, 2.0, 2), (2.0, 5.0, 3)):
            report = purity_index(lam, QuantParams(alpha), dim=dim)
            factor = (alpha / (alpha + lam)) ** (dim / 2)
            assert report.raw_trace / factor == pytest.approx(report.normalized_trace, rel=1e-12)

    def test_raw_trace_matches_quadrature(self):
        for lam, alpha in ((1.0, 1.0), (0.5, 2.0), (2.0, 5.0)):
            q = QuantParams(alpha)
            report = purity_index(lam, q, dim=1)
            assert purity_raw_numeric(lam, q, dim=1, order=80) == pytest.approx(report.raw_trace, rel=1e-9)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("lam,alpha", [(1.0, 1.0), (0.5, 2.0), (2.0, 5.0)])
    def test_raw_trace_matches_quadrature_in_higher_dimensions(self, dim, lam, alpha):
        q = QuantParams(alpha)
        report = purity_index(lam, q, dim=dim)
        assert purity_raw_numeric(lam, q, dim=dim) == pytest.approx(report.raw_trace, rel=1e-9)

    def test_monotonicity_and_bounds(self):
        alphas = (0.5, 1.0, 2.0, 8.0, 64.0)
        lams = (0.25, 1.0, 4.0)
        for lam in lams:
            values = [purity_index(lam, QuantParams(a), dim=1).normalized_trace for a in alphas]
            assert all(0.0 < v <= 1.0 for v in values)
            assert values == sorted(values)  # increasing in alpha
        for alpha in alphas:
            values = [purity_index(lam, QuantParams(alpha), dim=1).normalized_trace for lam in lams]
            assert values == sorted(values, reverse=True)  # decreasing in lam

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="positive"):
            purity_index(0.0, QuantParams(1.0), dim=1)
        with pytest.raises(ValueError, match="positive"):
            purity_index(-1.0, QuantParams(1.0), dim=1)

    @pytest.mark.parametrize(
        "lam,alpha,dim,name",
        [
            (1.5e303, 1e-20, 1, "normalized trace"),  # alpha/(alpha + 3*lam) underflows
            (1e308, 1e-15, 1, "normalized trace"),
            (3.180676881644171e-76, 6.310039627625464e-238, 2, "raw trace"),
            (1.6618174485480565e28, 3.0305445838481446e-80, 3, "raw trace"),
        ],
    )
    def test_underflowing_trace_is_contract_error(self, lam, alpha, dim, name):
        refused = f"{name} underflows to 0 at lambda={lam!r}, alpha={alpha!r}, n={dim}"
        with pytest.raises(NumericContractError, match="^" + re.escape(refused) + "$"):
            purity_index(lam, QuantParams(alpha), dim=dim)

    def test_sub_normal_trace_is_contract_error(self):
        # the raw trace 5.2993e-319 keeps a few significant bits; the quadrature
        # check against it read a 9.3e-6 deviation
        refused = "raw trace = 5.2993e-319 is sub-normal at lambda=3.05884e-54, alpha=3.8568e-213, n=2"
        with pytest.raises(NumericContractError, match="^" + re.escape(refused) + "$"):
            purity_index(3.05884e-54, QuantParams(3.8568e-213), dim=2)

