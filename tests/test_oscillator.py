"""Oscillator spectrum, ladder/commutator identities, uncertainty equality."""

import math
import random
import re
import sys
from decimal import Decimal

import numpy as np
import pytest

from berezin import (
    GridSpec,
    OscillatorSpec,
    UncertaintyReport,
    commutator_residual,
    eigenstate_residual,
    ground_state_residual,
    ladder_identity_residual,
    spectrum,
    uncertainty_quadrature,
    uncertainty_report,
    verify,
)
from berezin.quadrature import NumericContractError

GRID = GridSpec(half_width=10.0, points=2000)
FINE_GRID = GridSpec(half_width=10.0, points=4001)  # halves the spacing


def gaussian(x):
    return np.exp(-x * x / 2.0)


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

    def test_non_finite_levels_are_named(self, monkeypatch):
        # the levels dim * (2j + h) overflow at dim 2
        with pytest.raises(NumericContractError, match=re.escape("dim=2, h=1e+308, half_width=10.0, points=2000")):
            spectrum(OscillatorSpec(2, 1e308), GRID, 2)
        # a solve that returns a non-finite value is refused, not returned
        import scipy.linalg

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", lambda *args, **kwargs: np.array([1.0, np.nan]))
        with pytest.raises(NumericContractError, match=re.escape("half_width=10.0, points=2000")):
            spectrum(OscillatorSpec(), GRID, 2)

    def test_more_levels_than_points_are_named(self):
        # scipy refused select_range=(0, 3) on 3 rows without naming a parameter
        with pytest.raises(ValueError, match=re.escape("levels=4 exceeds the grid's points=3")):
            spectrum(OscillatorSpec(), GridSpec(10.0, 3), 4)

    @pytest.mark.parametrize("points", [3, 4, 5, 6, 400, 2000, 4001])
    @pytest.mark.filterwarnings("ignore:grid .* is below the spectral-claim resolution")
    def test_split_solve_matches_the_full_operator(self, points):
        from scipy.linalg import eigvalsh_tridiagonal

        grid = GridSpec(10.0, points)
        x, dx = grid.coordinates()
        for h in (0.5, 1.0, 1.3):
            diagonal = x * x + 2.0 / dx**2 + (h - 1.0)
            off_diagonal = np.full(points - 1, -1.0 / dx**2)
            for levels in range(1, min(10, points) + 1):
                full = eigvalsh_tridiagonal(diagonal, off_diagonal, select="i", select_range=(0, levels - 1))
                split = spectrum(OscillatorSpec(1, h), grid, levels)
                assert np.max(np.abs(split - full) / np.abs(full)) <= 1e-10, (h, levels)

    @pytest.mark.parametrize("points", [2000, 4001])
    def test_one_call_solves_two_half_blocks(self, monkeypatch, points):
        import scipy.linalg

        solve, rows = scipy.linalg.eigvalsh_tridiagonal, []

        def counting(diagonal, *args, **kwargs):
            rows.append(len(diagonal))
            return solve(diagonal, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", counting)
        spectrum(OscillatorSpec(), GridSpec(10.0, points), 4)
        assert rows == [(points + 1) // 2, points // 2]
        rows.clear()
        spectrum(OscillatorSpec(), GridSpec(10.0, points), 1)  # the ground level is even
        assert rows == [(points + 1) // 2]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(half_width=10.0, points=2)
        with pytest.raises(ValueError):
            GridSpec(half_width=0.0, points=100)


class TestEigenResiduals:
    def test_ground_state(self):
        assert ground_state_residual(OscillatorSpec(dim=1, h=1.0), GRID) <= 1e-4

    def test_ground_state_refines(self):
        coarse = ground_state_residual(OscillatorSpec(), GRID)
        fine = ground_state_residual(OscillatorSpec(), FINE_GRID)
        assert fine < coarse

    def test_wrong_energy_detected(self):
        residual = eigenstate_residual(GRID, gaussian, energy=2.0, h=1.0)
        assert residual == pytest.approx(1.0, abs=0.01)

    def test_first_excited_hermite(self):
        residual = eigenstate_residual(GRID, lambda x: x * gaussian(x), energy=3.0, h=1.0)
        assert residual <= 1e-4

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_energy_refused(self, energy):
        with pytest.raises(ValueError, match="^energy must be finite"):
            eigenstate_residual(GRID, lambda x: np.exp(-x * x / 2.0), energy)

    def test_non_finite_state_refused(self):
        # a NaN sample is refused, naming its x, where the residual read NaN
        x, _ = GRID.coordinates()
        first = float(x[x > 1.0][0])
        with pytest.raises(ValueError, match=re.escape(f"state 0 is non-finite at x = {first!r}")):
            eigenstate_residual(GRID, lambda x: np.where(x > 1.0, np.nan, gaussian(x)), 1.0)

    def test_overflowing_residual_is_contract_error(self):
        # a spike of 1e152 has a finite norm, but the norm of its second
        # difference, 2e152/dx^2 with dx ~ 0.01, overflows
        x, _ = GRID.coordinates()
        spike = np.where(np.arange(x.size) == 1000, 1e152, 0.0)
        refused = f"state 0 overflows on the grid: ||psi|| = {float(np.linalg.norm(spike))!r}, residual = inf"
        with pytest.raises(NumericContractError, match="^" + re.escape(refused) + "$"):
            eigenstate_residual(GRID, spike, 1.0)

    def test_requires_one_dim(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ground_state_residual(OscillatorSpec(dim=2, h=1.0), GRID)


class TestLadderIdentity:
    def test_gaussian_state(self):
        assert ladder_identity_residual([gaussian], GRID, h=1.0) <= 1e-3

    def test_polynomial_times_gaussian(self):
        states = [gaussian, lambda x: x * x * gaussian(x)]
        assert ladder_identity_residual(states, GRID, h=1.0) <= 1e-3

    def test_half_h(self):
        assert ladder_identity_residual([gaussian], GRID, h=0.5) <= 1e-3

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="negligible norm"):
            ladder_identity_residual([lambda x: np.zeros_like(x)], GRID)

    def test_non_finite_state_is_not_a_perfect_residual(self):
        # max(0.0, nan) is 0.0, so a NaN state once read as residual 0
        grid = GridSpec(6.0, 600)
        first = float(grid.coordinates()[0][0])
        with pytest.raises(ValueError, match=re.escape(f"state 0 is non-finite at x = {first!r}")):
            ladder_identity_residual([lambda x: np.full_like(x, np.nan)], grid)
        with pytest.raises(ValueError, match=re.escape(f"state 1 is non-finite at x = {first!r}")):
            ladder_identity_residual([gaussian, lambda x: np.full_like(x, np.inf)], grid)

    def test_overflowing_norm_is_contract_error(self):
        # scaled to a unit peak, the state's second difference still overflows
        # at dx = 1e-155; the refusal reports the norm of the state as given
        grid = GridSpec(1e-152 * 2001 / 2, 2000)
        with pytest.raises(NumericContractError, match=r"^state 0 overflows on the grid: \|\|psi\|\| = inf"):
            ladder_identity_residual([lambda x: np.full_like(x, 1e307)], grid)

    def test_state_too_large_to_square_is_scaled_exactly(self):
        # np.linalg.norm of a state with samples beyond ~1.3e154 overflows;
        # the residual is that of the state divided by an exact power of two
        unit = ladder_identity_residual([gaussian], GRID)
        large = ladder_identity_residual([lambda x: 1e160 * gaussian(x)], GRID)
        assert large == pytest.approx(unit, rel=1e-10)  # the rounding of 1e160 * exp moves the 13th digit
        assert ladder_identity_residual([lambda x: 2.0**531 * gaussian(x)], GRID) == unit
        samples = 1e160 * gaussian(GRID.coordinates()[0])
        assert ladder_identity_residual([samples], GRID) == ladder_identity_residual([samples * 2.0**-531], GRID)

    def test_needs_states(self):
        with pytest.raises(ValueError, match="at least one"):
            ladder_identity_residual([], GRID)


class TestCommutator:
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_canonical_pair(self, h):
        assert commutator_residual(GRID, h=h) <= 1e-3

    def test_second_order_scaling(self):
        coarse = commutator_residual(GridSpec(half_width=10.0, points=1000), h=1.0)
        fine = commutator_residual(GridSpec(half_width=10.0, points=2001), h=1.0)
        assert coarse / fine == pytest.approx(4.0, abs=1.0)


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

