"""Oscillator spectrum and the uncertainty equality."""

import math
import random
import re
import sys
from decimal import Decimal

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from berezin import (
    GridSpec,
    OscillatorSpec,
    UncertaintyReport,
    oscillator,
    spectrum,
    uncertainty_quadrature,
    uncertainty_report,
    verify,
)
from berezin.oscillator import _collocation_levels, _unit_levels
from berezin.quadrature import NumericContractError

GRID = GridSpec(half_width=10.0, points=2000)
FINE_GRID = GridSpec(half_width=10.0, points=4001)  # halves the spacing


def sturm_bisection_levels(diagonal, off_diagonal, levels):
    """The lowest `levels` eigenvalues of a symmetric tridiagonal matrix: bisection on
    Sturm counts from the Gershgorin interval down to adjacent doubles, no seeds, no Newton."""
    rows = list(zip(diagonal.tolist(), [0.0] + (off_diagonal * off_diagonal).tolist()))

    def below(x):
        pivot, count = 1.0, 0
        for a, b2 in rows:
            pivot = (a - x - b2 / pivot) or -sys.float_info.min
            count += pivot < 0.0
        return count

    radius = float(np.abs(diagonal).max() + 2.0 * np.abs(off_diagonal).max())
    values = []
    for j in range(levels):
        lo, hi = -radius, radius
        while lo < (x := 0.5 * (lo + hi)) < hi:
            lo, hi = (x, hi) if below(x) <= j else (lo, x)
        values.append(lo)
    return np.array(values)


class TestSpectrum:
    def test_unit_h_levels(self):
        values = spectrum(OscillatorSpec(dim=1, h=1.0), GRID, levels=4)
        assert np.max(np.abs(values - np.array([1.0, 3.0, 5.0, 7.0]))) < 1e-3

    def test_half_h_levels(self):
        values = spectrum(OscillatorSpec(dim=1, h=0.5), GRID, levels=2)
        assert np.max(np.abs(values - np.array([0.5, 2.5]))) < 1e-3

    def test_two_dim_ground_energy(self):
        values = spectrum(OscillatorSpec(dim=2, h=1.0), GRID, levels=1)
        assert values[0] == pytest.approx(2.0, abs=2e-3)

    def test_second_order_convergence(self):
        spec = OscillatorSpec(dim=1, h=1.0)
        exact = np.array([1.0, 3.0, 5.0, 7.0])
        coarse = np.abs(spectrum(spec, GRID, levels=4) - exact)
        fine = np.abs(spectrum(spec, FINE_GRID, levels=4) - exact)
        ratios = coarse / fine
        assert np.all(np.abs(ratios - 4.0) < 0.5)

    @pytest.mark.parametrize("h", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_hermite_function_rayleigh_quotient_is_the_level(self, h, j):
        # psi_j = H_j(x) exp(-x^2/2) is the eigenstate of energy 2j + h; its Rayleigh
        # quotient under the same difference operator is a second route to level j
        x, dx = GRID.coordinates()
        psi = hermval(x, [0] * j + [1]) * np.exp(-x * x / 2.0)
        padded = np.concatenate(([0.0], psi, [0.0]))  # Dirichlet ends
        applied = x * x * psi - (padded[:-2] - 2.0 * psi + padded[2:]) / dx**2 + (h - 1.0) * psi
        quotient = psi @ applied / (psi @ psi)
        level = spectrum(OscillatorSpec(1, h), GRID, 4)[j]
        assert quotient == pytest.approx(level, rel=1e-8)
        assert abs(quotient - (2 * j + h)) < 1e-3

    def test_coarse_grid_warns(self):
        with pytest.warns(UserWarning, match="resolution"):
            values = spectrum(OscillatorSpec(), GridSpec(half_width=10.0, points=400), levels=2)
        assert values.shape == (2,)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            spectrum(OscillatorSpec(), GRID, levels=0)
        with pytest.raises(ValueError):
            spectrum(OscillatorSpec(), GRID, levels=11)

    @pytest.mark.parametrize("half_width", [1e200, 1e-200])
    @pytest.mark.filterwarnings("ignore:grid .* is below the spectral-claim resolution")
    def test_grid_beyond_the_double_range_is_named(self, half_width):
        # the spacing squares to infinity, or to 0, in 2 / dx^2
        named = f"half_width={half_width!r}, points=2000"
        with pytest.raises(NumericContractError, match=re.escape(named)):
            spectrum(OscillatorSpec(1, 1.0), GridSpec(half_width, 2000), 4)

    @pytest.mark.parametrize("half_width", [1e-80, 1e-150])
    @pytest.mark.filterwarnings("ignore:grid .* is below the spectral-claim resolution")
    def test_tiny_box_levels_are_the_difference_laplacian_levels(self, half_width):
        # x^2 is below 1e-300 of 1/dx^2 here, and b^2 = 1/dx^4 is beyond the double range
        # unless the solve scales the block; the levels are those of the three-point
        # Laplacian, 4/dx^2 sin^2(k pi / (2(N + 1))), to about eps * 4/dx^2 absolute
        grid = GridSpec(half_width, 2000)
        _, dx = grid.coordinates()
        k = np.arange(1, 5)
        box = 4.0 / dx**2 * np.sin(k * np.pi / (2 * (grid.points + 1))) ** 2
        np.testing.assert_allclose(spectrum(OscillatorSpec(), grid, 4), box, rtol=1e-9)

    def test_non_finite_levels_are_named(self, monkeypatch):
        # the levels dim * (2j + h) overflow at dim 2
        with pytest.raises(NumericContractError, match=re.escape("dim=2, h=1e+308, half_width=10.0, points=2000")):
            spectrum(OscillatorSpec(2, 1e308), GRID, 2)
        # a solve that returns a non-finite value is refused, not returned
        _unit_levels.cache_clear()  # a kept solve of GRID would bypass the patched solver
        monkeypatch.setattr(oscillator, "_block_levels", lambda *args: [1.0, np.nan])
        with pytest.raises(NumericContractError, match=re.escape("half_width=10.0, points=2000")):
            spectrum(OscillatorSpec(), GRID, 2)

    def test_more_levels_than_points_are_named(self):
        # the operator on 3 points has 3 levels; the refusal names both numbers
        with pytest.raises(ValueError, match=re.escape("levels=4 exceeds the grid's points=3")):
            spectrum(OscillatorSpec(), GridSpec(10.0, 3), 4)

    @pytest.mark.parametrize("points", [3, 4, 5, 6, 400, 2000, 4001])
    @pytest.mark.filterwarnings("ignore:grid .* is below the spectral-claim resolution")
    def test_split_solve_matches_the_full_operator(self, points):
        # the reference solves all N rows, unsplit: dense eigvalsh where N^3 is cheap,
        # plain Sturm-count bisection beyond
        grid = GridSpec(10.0, points)
        x, dx = grid.coordinates()
        for h in (0.5, 1.0, 1.3):
            diagonal = x * x + 2.0 / dx**2 + (h - 1.0)
            off_diagonal = np.full(points - 1, -1.0 / dx**2)
            if points <= 400:
                full = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
            else:
                full = sturm_bisection_levels(diagonal, off_diagonal, 10)
            for levels in range(1, min(10, points) + 1):
                split = spectrum(OscillatorSpec(1, h), grid, levels)
                assert np.max(np.abs(split - full[:levels]) / np.abs(full[:levels])) <= 1e-10, (h, levels)

    @pytest.mark.parametrize("points", [2000, 4001])
    def test_one_call_solves_two_half_blocks(self, monkeypatch, points):
        solve, rows = oscillator._block_levels, []

        def counting(diagonal, *args):
            rows.append(len(diagonal))
            return solve(diagonal, *args)

        _unit_levels.cache_clear()  # a kept solve would bypass the counting solver
        monkeypatch.setattr(oscillator, "_block_levels", counting)
        spectrum(OscillatorSpec(), GridSpec(10.0, points), 4)
        assert rows == [(points + 1) // 2, points // 2]
        rows.clear()
        spectrum(OscillatorSpec(3, 0.7), GridSpec(10.0, points), 4)  # another h and dim shift the kept levels
        assert rows == []
        spectrum(OscillatorSpec(), GridSpec(10.0, points), 1)  # the ground level is even
        assert rows == [(points + 1) // 2]

    def test_cold_call_equals_warm_call(self):
        _unit_levels.cache_clear()
        cold = spectrum(OscillatorSpec(1, 0.8), GRID, 4)
        assert np.array_equal(cold, spectrum(OscillatorSpec(1, 0.8), GRID, 4))

    @pytest.mark.parametrize("h", [1e-3, 0.5, 1.3, 1e6])
    def test_levels_are_the_unit_levels_shifted_and_scaled(self, h):
        unit = spectrum(OscillatorSpec(1, 1.0), GRID, 4)
        assert np.array_equal(spectrum(OscillatorSpec(2, h), GRID, 4), 2 * (unit + (h - 1.0)))

    def test_kept_solve_on_a_coarse_grid_still_warns(self):
        coarse = GridSpec(10.0, 400)
        with pytest.warns(UserWarning, match="resolution"):
            spectrum(OscillatorSpec(), coarse, 2)
        with pytest.warns(UserWarning, match="resolution") as record:
            spectrum(OscillatorSpec(1, 0.5), coarse, 2)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.filterwarnings("ignore:grid .* is below the spectral-claim resolution")
    def test_memo_is_bounded(self):
        bound = _unit_levels.cache_info().maxsize
        for points in range(10, 10 + 2 * bound):
            spectrum(OscillatorSpec(), GridSpec(10.0, points), 2)
            assert _unit_levels.cache_info().currsize <= bound
        assert _unit_levels.cache_info().currsize == bound

    def test_non_finite_solve_is_not_kept(self, monkeypatch):
        _unit_levels.cache_clear()
        monkeypatch.setattr(oscillator, "_block_levels", lambda *args: [np.inf])
        for _ in range(2):
            with pytest.raises(NumericContractError, match=re.escape("half_width=10.0, points=2000")):
                spectrum(OscillatorSpec(), GRID, 2)
        assert _unit_levels.cache_info().currsize == 0

    @pytest.mark.parametrize("seeds", ["zeros", "reversed", "nan", "shifted"])
    @pytest.mark.filterwarnings("ignore:grid .* is below the spectral-claim resolution")
    def test_levels_do_not_depend_on_the_seeds(self, monkeypatch, seeds):
        # seeds far off leave the work to the counts' brackets and to bisection, and
        # each level is still the largest double whose count is j; a nan seed lies
        # outside every bracket, so Newton starts at 0
        grids = [GridSpec(10.0, points) for points in (3, 4, 5, 6)] + [GRID]
        cases = [(grid, levels) for grid in grids for levels in range(1, min(10, grid.points) + 1)]
        _unit_levels.cache_clear()
        expected = [_unit_levels(grid, levels) for grid, levels in cases]
        good = _collocation_levels()
        wrong = {
            "zeros": np.zeros_like(good),
            "reversed": good[::-1].copy(),
            "nan": np.full_like(good, np.nan),
            "shifted": good + 1.0,
        }[seeds]
        monkeypatch.setattr(oscillator, "_collocation_levels", lambda: wrong)
        _unit_levels.cache_clear()
        for (grid, levels), want in zip(cases, expected):
            assert np.array_equal(_unit_levels(grid, levels), want), (grid, levels)

    @pytest.mark.parametrize(
        "grid, levels, pinned",
        [
            (
                GRID,
                10,
                "0x1.ffff2e7e35fffp-1 0x1.7ffefa1d70fffp+1 0x1.3ffeab8c307ffp+2 0x1.bffd7147ad7ffp+2 "
                "0x1.1ffde72057bffp+3 0x1.5ffce13b5b3ffp+3 0x1.9ffba6f4a03ffp+3 0x1.dffa384be6c00p+3 "
                "0x1.0ffc4aa077600p+4 0x1.2ffb5ee9bbe00p+4",
            ),
            (
                FINE_GRID,
                10,
                "0x1.ffffcb9f90000p-1 0x1.7fffbe877c000p+1 0x1.3fffaae352000p+2 0x1.bfff5c52a2000p+2 "
                "0x1.1fff79c8d3000p+3 0x1.5fff38502d000p+3 0x1.9ffee9bf59000p+3 0x1.dffe8e1654fffp+3 "
                "0x1.0fff12aa8d7ffp+4 0x1.2ffed7bdd3800p+4",
            ),
            (
                GridSpec(10.0, 5),
                5,
                "0x1.6da7840e442ffp-3 0x1.694ecaa508f45p+3 0x1.695abbef8ba6cp+3 0x1.64ff5c2144050p+5 "
                "0x1.64ff5c219f51ap+5",
            ),
        ],
        ids=["2000-10", "4001-10", "5-5"],
    )
    def test_levels_are_pinned_to_the_bit(self, grid, levels, pinned):
        # frozen values: a level is fixed by the counts alone, so a change to how the
        # solve brackets or steps toward it must not move a bit
        _unit_levels.cache_clear()
        assert [float(v).hex() for v in _unit_levels(grid, levels)] == pinned.split()

    @pytest.mark.parametrize("grid, levels, most", [(FINE_GRID, 4, 94), (GRID, 10, 205)], ids=["4001-4", "2000-10"])
    def test_cold_solve_pass_count(self, monkeypatch, grid, levels, most):
        # every pass walks the rows of a block once, so the count stands in for the time
        passes = 0

        def counting(solve):
            def counted(*args):
                nonlocal passes
                passes += 1
                return solve(*args)

            return counted

        for name in ("_negative_pivots", "_newton_pass"):
            monkeypatch.setattr(oscillator, name, counting(getattr(oscillator, name)))
        _unit_levels.cache_clear()
        _unit_levels(grid, levels)
        assert passes <= most

    @pytest.mark.parametrize("half_width, points, levels", [(1e154, 3, 2), (1.3e154, 3, 3), (1e100, 5, 3)])
    @pytest.mark.filterwarnings("ignore:grid .* is below the spectral-claim resolution")
    def test_non_positive_level_is_named(self, half_width, points, levels):
        # x^2 - d^2/dx^2 is positive definite; on these grids the scaled block's smallest
        # entries underflow and level 0 comes out as negative round-off
        _unit_levels.cache_clear()
        named = f"not positive and finite, at half_width={half_width!r}, points={points!r}"
        for _ in range(2):
            with pytest.raises(NumericContractError, match=re.escape(named)):
                spectrum(OscillatorSpec(), GridSpec(half_width, points), levels)
        assert _unit_levels.cache_info().currsize == 0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(half_width=10.0, points=2)
        with pytest.raises(ValueError):
            GridSpec(half_width=0.0, points=100)


class TestCollocation:
    @pytest.mark.parametrize("j", range(10))
    def test_level_is_2j_plus_1(self, j):
        assert _collocation_levels()[j] == pytest.approx(2 * j + 1, rel=1e-12)

    def test_verify_check_fails_without_the_signs(self, monkeypatch):
        # dropping only the factor (-1)^(j-k) conjugates D1 by diag((-1)^j) and keeps
        # every level; dropping every sign, antisymmetry included, does not
        derivative = oscillator._fourier_derivative
        checks = verify.run_suites("spectrum")
        assert all(c.passed for c in checks)
        monkeypatch.setattr(oscillator, "_fourier_derivative", lambda *args: np.abs(derivative(*args)))
        _collocation_levels.cache_clear()
        _unit_levels.cache_clear()
        try:
            broken = verify.run_suites("spectrum")
        finally:
            _collocation_levels.cache_clear()
            _unit_levels.cache_clear()
        collocation = [c for c in broken if c.name.startswith("collocation")]
        assert len(collocation) == 2 and not any(c.passed for c in collocation)
        # the finite-difference levels, seeded by the broken ones, do not move
        finite_difference = [c for c in checks if not c.name.startswith("collocation")]
        assert [c for c in broken if c not in collocation] == finite_difference


class TestUncertainty:
    def test_reference_values(self):
        report = uncertainty_report(1.0, 1.0)
        assert report.var_x == pytest.approx(2.5066282746310002, rel=1e-14)  # sqrt(2*pi)
        assert report.var_p == pytest.approx(0.6266570686577501, rel=1e-14)
        assert report.rhs == pytest.approx(1.5707963267948966, rel=1e-14)  # pi/2
        assert report.var_x * report.var_p == pytest.approx(report.rhs, rel=1e-13)
        assert abs(report.ratio - 1.0) <= 1e-12

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("amplitude", [0.5, 1.0, 3.0])
    def test_equality_for_all_parameters(self, lam, amplitude):
        report = uncertainty_report(lam, amplitude)
        assert abs(report.ratio - 1.0) <= 1e-12
        numeric = uncertainty_quadrature(lam, amplitude)
        assert abs(numeric.ratio - 1.0) <= 1e-8
        assert numeric.var_x == pytest.approx(report.var_x, rel=1e-9)
        assert numeric.var_p == pytest.approx(report.var_p, rel=1e-9)
        assert numeric.rhs == pytest.approx(report.rhs, rel=1e-9)

    def test_amplitude_scaling(self):
        base = uncertainty_report(0.7, 1.0)
        scaled = uncertainty_report(0.7, 2.0)
        assert scaled.var_x == pytest.approx(4.0 * base.var_x, rel=1e-14)
        assert scaled.rhs == pytest.approx(16.0 * base.rhs, rel=1e-14)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-13)

    def test_compression_trade_off(self):
        lams = (0.1, 0.5, 1.0, 2.0, 10.0)
        var_x = [uncertainty_report(lam).var_x for lam in lams]
        var_p = [uncertainty_report(lam).var_p for lam in lams]
        assert var_x == sorted(var_x, reverse=True)
        assert var_p == sorted(var_p)

    def test_tight_compression_limit(self):
        # var_x * var_p -> K^4 * pi / 4 as lam -> infinity
        report = uncertainty_report(1e8, 1.0)
        assert report.var_x * report.var_p == pytest.approx(math.pi / 4.0, rel=1e-7)

    def test_normalized_variances(self):
        report = uncertainty_report(1.0, 2.0)
        assert report.var_x_normalized == pytest.approx(1.0, rel=1e-13)  # (1+lam)/(2*lam)
        assert report.var_p_normalized == pytest.approx(0.25, rel=1e-13)  # lam/(2*(1+lam))

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            uncertainty_report(0.0)
        with pytest.raises(ValueError):
            uncertainty_report(-1.0)
        with pytest.raises(ValueError):
            uncertainty_report(1.0, 0.0)

    def test_report_invariant(self):
        # a ratio below 1 is a failed check for the caller to report, not a malformed report
        report = UncertaintyReport(lam=1.0, amplitude=1.0, var_x=1.0, var_p=1.0, rhs=2.0, ratio=0.5, norm_sq=1.0)
        assert report.ratio == 0.5
        with pytest.raises(ValueError, match="var_x must be non-negative and finite"):
            UncertaintyReport(lam=1.0, amplitude=1.0, var_x=math.nan, var_p=1.0, rhs=2.0, ratio=0.5, norm_sq=1.0)

    @pytest.mark.parametrize(
        "compute,lam,amplitude,moment",
        [
            (uncertainty_report, 1e-300, 1.0, "var_x = inf"),  # r^(3/2) overflows
            (uncertainty_report, 1e-206, 1.0, "var_x = inf"),
            (uncertainty_report, 1.0, 1e160, "var_x = inf"),
            (uncertainty_quadrature, 1.0, 1e-90, "rhs = 0.0"),  # K^4 underflows
            (uncertainty_report, 1.0, 1e-80, "rhs = 1.5706e-320"),  # K^4 is sub-normal
            (uncertainty_quadrature, 1.0, 1e-80, "rhs = 1.5706e-320"),
            (uncertainty_report, 1e-200, 1e-105, "var_p = 8.8622692545277e-311"),  # K^2 * sqrt(lam) is sub-normal
            (uncertainty_quadrature, 1e-200, 1e-105, "var_p = 8.8622692545277e-311"),
            # var_p (8.9e-331, 8.9e-327) rounds to exactly 0
            (uncertainty_quadrature, 1e-200, 1e-115, "var_p = 0.0"),
            (uncertainty_report, 1e-300, 1e-88, "var_p = 0.0"),
        ],
    )
    def test_moment_beyond_double_range_raises(self, compute, lam, amplitude, moment):
        with pytest.raises(NumericContractError, match=re.escape(moment) + ".*lambda="):
            compute(lam, amplitude)

    @pytest.mark.parametrize(
        "lam,amplitude",
        [
            (1e-200, 1e-100),  # K^4 = 1e-400 underflowed to 0 before r = 1e200 multiplied it
            (1.5455666555109156e-145, 1.797165575674341e-81),  # K^4 kept a few bits: the ratio read 0.553
        ],
    )
    def test_tiny_amplitude_and_compression_keep_a_normal_rhs(self, lam, amplitude):
        closed, numeric = uncertainty_report(lam, amplitude), uncertainty_quadrature(lam, amplitude)
        # K^4 pi r / 4 in decimal arithmetic, whose exponent range holds K^4
        exact = float(Decimal(math.pi / 4.0) * Decimal(amplitude) ** 4 * (1 + Decimal(lam)) / Decimal(lam))
        assert closed.rhs == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert closed.rhs == pytest.approx(numeric.rhs, rel=1e-15, abs=0.0)
        assert abs(closed.ratio - 1.0) <= 1e-15

    def test_huge_lambda_has_finite_moments(self):
        # r = (1 + lam)/lam rounds to 1, where (1 + lam)^(3/2) / lam^(3/2) was inf/inf
        for lam in (1e275, 1e300, 1.7e308):
            closed, numeric = uncertainty_report(lam), uncertainty_quadrature(lam)
            assert abs(closed.ratio - 1.0) <= 1e-15
            assert abs(numeric.ratio - 1.0) <= 1e-15
            assert closed.var_x == pytest.approx(numeric.var_x, rel=1e-14)
            assert closed.var_x == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("lam", [1e-160, 1e-162, 5e-180, 1e-204])
    def test_tiny_lambda_quadrature_keeps_var_p(self, lam):
        # a = lam/(1+lam) squared is sub-normal below lam ~ 1e-154 and 0 below
        # ~ 1e-162, so var_p is formed as a * (a * second moment)
        closed, numeric = uncertainty_report(lam), uncertainty_quadrature(lam)
        assert abs(numeric.ratio - 1.0) <= 1e-15
        assert numeric.var_p == pytest.approx(closed.var_p, rel=1e-15, abs=0.0)
        assert numeric.var_x == pytest.approx(closed.var_x, rel=1e-15)

    def test_product_of_variances_beyond_the_range_keeps_the_ratio(self):
        # rhs is 5 ulps below the largest double, and var_x * var_p overflowed
        # before the division by rhs, so the ratio read inf
        closed = uncertainty_report(2.016698894383496, 1.1122020562173477e77)
        numeric = uncertainty_quadrature(2.016698894383496, 1.1122020562173477e77)
        assert closed.rhs == 1.7976931348623147e308
        assert abs(closed.ratio - 1.0) <= 1e-15
        assert abs(numeric.ratio - 1.0) <= 1e-15

    def test_rhs_at_the_top_of_the_range_agrees_or_refuses(self):
        # K a few ulps either side of the largest K whose rhs = K^4 pi r / 4 is finite
        rng = random.Random(0)
        passed = 0
        for _ in range(2000):
            lam = 10.0 ** rng.uniform(-3.0, 3.0)
            amplitude = (4.0 * lam / (math.pi * (1.0 + lam))) ** 0.25 * sys.float_info.max**0.25
            steps = rng.randint(-8, 2)
            for _ in range(abs(steps)):
                amplitude = math.nextafter(amplitude, math.copysign(math.inf, steps))
            try:
                checks = verify.uncertainty_checks(lam, amplitude)[-1]
            except NumericContractError as exc:
                assert "is out of the double range" in str(exc)
                continue
            assert all(check.passed for check in checks), (lam, amplitude)
            passed += 1
        assert passed > 1000

    def test_tiny_compression_and_amplitude_keep_var_p(self):
        # K^2 * a = 8.4e-334 underflowed to 0, so var_p read 0 and the ratio 0
        closed = uncertainty_report(5.474803068585877e-187, 1.2353896420602611e-73)
        numeric = uncertainty_quadrature(5.474803068585877e-187, 1.2353896420602611e-73)
        assert numeric.var_p == pytest.approx(closed.var_p, rel=1e-15, abs=0.0)
        assert abs(numeric.ratio - 1.0) <= 1e-15

