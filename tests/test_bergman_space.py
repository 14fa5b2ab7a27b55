"""Weight, kernel, reproducing property, trace, and purity index."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from berezin import (
    ComplexPoint,
    GaussianSymbol,
    PolynomialSymbol,
    QuantParams,
    TraceReport,
    WeightSpec,
    berezin_transform_numeric,
    gauss_hermite,
    kernel,
    purity_index,
    reproducing_residual,
    trace,
    trace_numeric,
    weight,
)
from berezin.bergman_space import purity_raw_numeric, weight_mass_numeric
from berezin.gaussian_calculus import NumericContractError


class TestKernel:
    def test_origin(self):
        assert kernel(0j, 0j, QuantParams(3.0)) == 1.0

    def test_real_points(self):
        assert kernel(1.0 + 0j, 1.0 + 0j, QuantParams(2.0)) == pytest.approx(7.38905609893065, rel=1e-15)

    def test_imaginary_points(self):
        # z = w = i: z*conj(w) = 1, so the value is e  [frozen]
        value = kernel(1j, 1j, QuantParams(1.0))
        assert value == pytest.approx(2.718281828459045, rel=1e-15)
        assert value.imag == 0.0

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(11)
        q = QuantParams(1.3)
        for _ in range(50):
            z = complex(*rng.uniform(-1, 1, 2))
            w = complex(*rng.uniform(-1, 1, 2))
            assert kernel(z, w, q) == pytest.approx(kernel(w, z, q).conjugate(), rel=1e-15)

    def test_diagonal_positive(self):
        rng = np.random.default_rng(12)
        q = QuantParams(0.7)
        for _ in range(50):
            z = (complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2)))
            diagonal = kernel(z, z, q)
            assert diagonal.imag == 0.0
            assert diagonal.real > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel((1j, 0j), 1j, QuantParams(1.0))


class TestWeight:
    def test_normalizing_alpha(self):
        assert weight(0j, QuantParams(math.pi)) == 1.0

    def test_frozen_value(self):
        assert weight(1.0 + 0j, QuantParams(1.0)) == pytest.approx(0.11709966304863834, rel=1e-15)

    @pytest.mark.parametrize("dim,alpha", [(1, 2.0), (1, 0.5), (2, 1.0), (3, 0.7)])
    def test_total_mass(self, dim, alpha):
        mass = weight_mass_numeric(WeightSpec(dim=dim, alpha=alpha), order=60)
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

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            TraceReport(raw_trace=0.1, normalized_trace=1.5, alpha=1.0, lam=1.0, dim=1)


class TestReproducing:
    def test_constant(self):
        residual = reproducing_residual(
            PolynomialSymbol.constant(1, 1.0), 0.5 + 0.2j, QuantParams(1.0), gauss_hermite(80)
        )
        assert residual < 1e-12

    def test_linear_monomial(self):
        p = PolynomialSymbol.coordinate(1)
        residual = reproducing_residual(p, 1.0 + 1.0j, QuantParams(1.0), gauss_hermite(80))
        assert residual < 1e-8

    def test_quadratic_monomial(self):
        p = PolynomialSymbol.coordinate(1) * PolynomialSymbol.coordinate(1)
        residual = reproducing_residual(p, 0.3 + 0j, QuantParams(2.0), gauss_hermite(80))
        assert residual < 1e-8

    def test_degree_four(self):
        z = PolynomialSymbol.coordinate(1)
        p = z * z * z * z
        residual = reproducing_residual(p, 0.5 - 0.3j, QuantParams(1.0), gauss_hermite(80))
        assert residual < 1e-8

    def test_two_dim_degree_two(self):
        z1 = PolynomialSymbol.coordinate(2, 0)
        z2 = PolynomialSymbol.coordinate(2, 1)
        for p in (z1 * z2, z1 * z1, z2):
            residual = reproducing_residual(p, (0.2 + 0.1j, -0.3 + 0.2j), QuantParams(1.5), gauss_hermite(40))
            assert residual < 1e-8

    def test_three_dim_refused_by_integrate(self):
        z3 = PolynomialSymbol.coordinate(3, 2)
        with pytest.raises(ValueError, match="1 <= d <= 4, got 6"):
            reproducing_residual(z3, (0j, 0j, 0.1j), QuantParams(1.0), gauss_hermite(10))

    def test_two_dim_memory_bounded(self):
        # the m^4 grid is summed in m^3 chunks, never held whole
        z1 = PolynomialSymbol.coordinate(2, 0)
        z2 = PolynomialSymbol.coordinate(2, 1)
        rule = gauss_hermite(40)
        tracemalloc.start()
        try:
            reproducing_residual(z1 * z2, (0.2 + 0.1j, -0.3 + 0.2j), QuantParams(1.5), rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6

    def test_rejects_non_holomorphic(self):
        p = PolynomialSymbol.conj_coordinate(1)
        with pytest.raises(ValueError, match="holomorphic"):
            reproducing_residual(p, 0j, QuantParams(1.0), gauss_hermite(20))

    def test_rejects_budget_overflow(self):
        z = PolynomialSymbol.coordinate(1)
        with pytest.raises(ValueError, match="budget"):
            reproducing_residual(z * z * z * z, 0j, QuantParams(1.0), gauss_hermite(2))
