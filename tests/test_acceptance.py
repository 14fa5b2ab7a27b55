"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 1-8 drive the library through the verification suites plus direct
checks at the stated tolerances; criterion 9 runs the CLI twice in fresh
processes and compares bytes.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from berezin import (
    GaussianSymbol,
    MonteCarloConfig,
    QuantParams,
    berezin_transform_closed,
    berezin_transform_numeric,
    evaluate,
    expansion_check,
    gauss_hermite,
    gaussian_moment,
    heat_evolve,
    monte_carlo_transform,
    purity_index,
    spectrum,
    taylor_remainder,
    uncertainty_quadrature,
    uncertainty_report,
    wick_star,
)
from berezin import GridSpec, OscillatorSpec, PolynomialSymbol
from berezin.bergman_space import purity_raw_numeric
from berezin.semiclassics import quantization_condition_residual
from berezin.verify import _random_polynomial


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_transform_reproduction():
    """Quadrature transform matches the closed form to 1e-9 in under 5 s."""
    points = (0j, 0.3 + 0j, -0.45 + 0.2j, 0.6j, 0.7 + 0.4j)
    berezin_transform_numeric(GaussianSymbol(1, 1.0, 1.0), 0j, QuantParams(1.0), order=80)
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for alpha in (0.5, 1.0, 5.0, 50.0):
            q = QuantParams(alpha)
            symbol = GaussianSymbol(1, 1.0, lam)
            closed = berezin_transform_closed(symbol, q)
            assert closed.amplitude == pytest.approx(math.sqrt(alpha / (alpha + lam)), rel=1e-15)
            assert closed.compression == pytest.approx(alpha * lam / (alpha + lam), rel=1e-15)
            for z in points:
                numeric = berezin_transform_numeric(symbol, z, q, order=80)
                reference = evaluate(closed, z)
                worst = max(worst, abs(numeric - reference) / abs(reference))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-9 and elapsed < 5.0,
           f"worst rel dev {worst:.3e} (<=1e-9), elapsed {elapsed:.2f}s (<5s)")


def test_criterion_2_normalized_trace():
    """Normalized trace equals the closed form by quadrature; exact landmark values."""
    worst = 0.0
    for dim, order in ((1, 80), (2, 60), (3, 80)):
        for lam, alpha in ((1.0, 1.0), (0.5, 2.0), (2.0, 5.0)):
            q = QuantParams(alpha)
            closed = purity_index(lam, q, dim=dim)
            raw_numeric = purity_raw_numeric(lam, q, dim=dim, order=order)
            numeric = raw_numeric * closed.normalized_trace / closed.raw_trace
            worst = max(worst, abs(numeric - closed.normalized_trace) / closed.normalized_trace)
    exact = (
        purity_index(1.0, QuantParams(1.0), dim=1).normalized_trace == 0.5
        and purity_index(1.0, QuantParams(1.0), dim=2).normalized_trace == 0.25
        and purity_index(1.0, QuantParams(1.0), dim=3).normalized_trace == 0.125
    )
    limit_gap = abs(purity_index(1.0, QuantParams(1e6), dim=1).normalized_trace - 1.0)
    report(2, worst <= 1e-9 and exact and limit_gap <= 2e-6,
           f"worst quadrature dev {worst:.3e} (<=1e-9), landmarks exact={exact}, "
           f"alpha=1e6 gap {limit_gap:.2e} (<=2e-6)")


def test_criterion_3_heat_identity_and_remainder():
    """Heat flow == transform bitwise; first-order remainder slope -2 +/- 0.1."""
    mismatches = 0
    for lam in (0.5, 1.0, 2.0):
        for alpha in (0.5, 1.0, 5.0):
            for dim in (1, 2):
                g = GaussianSymbol(dim, 1.0, lam)
                q = QuantParams(alpha)
                a, b = heat_evolve(g, q), berezin_transform_closed(g, q)
                if (a.amplitude, a.compression) != (b.amplitude, b.compression):
                    mismatches += 1
    alphas = (10.0, 100.0, 1000.0)
    g = GaussianSymbol(1, 1.0, 1.0)
    sups = [
        max(taylor_remainder(g, QuantParams(a), z) for z in (0j, 0.3 + 0j, 0.7 + 0j))
        for a in alphas
    ]
    slope = float(np.polyfit(np.log(alphas), np.log(sups), 1)[0])
    report(3, mismatches == 0 and abs(slope + 2.0) <= 0.1,
           f"bitwise mismatches {mismatches} (=0), remainder slope {slope:.3f} (-2 +/- 0.1)")


def test_criterion_4_expansion_slope():
    """sup-grid residual of alpha*(B g - g) - Lap(g)/4 has slope -1 +/- 0.1."""
    result = expansion_check(
        GaussianSymbol(1, 1.0, 1.0), (10.0, 100.0, 1000.0), (0j, 0.3 + 0j, 0.7 + 0j)
    )
    slope = result.fitted_slope
    report(4, abs(slope + 1.0) <= 0.1, f"expansion slope {slope:.3f} (-1 +/- 0.1)")


def test_criterion_5_star_product_condition():
    """First-order condition <= 1e-14 on 100 pairs; associativity; exact 1/alpha."""
    rng = np.random.default_rng(7)
    worst_condition = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        f = _random_polynomial(rng, dim, degree=3)
        g = _random_polynomial(rng, dim, degree=3)
        worst_condition = max(worst_condition, quantization_condition_residual(f, g))

    worst_assoc = 0.0
    q = QuantParams(1.7)
    for _ in range(25):
        dim = int(rng.integers(1, 3))
        f = _random_polynomial(rng, dim, degree=3)
        g = _random_polynomial(rng, dim, degree=3)
        h = _random_polynomial(rng, dim, degree=3)
        left = wick_star(wick_star(f, g, q), h, q)
        right = wick_star(f, wick_star(g, h, q), q)
        worst_assoc = max(worst_assoc, (left - right).max_coeff())

    z = PolynomialSymbol.coordinate(1)
    zbar = PolynomialSymbol.conj_coordinate(1)
    exact = all(
        wick_star(z, zbar, QuantParams(a)) - wick_star(zbar, z, QuantParams(a))
        == PolynomialSymbol.constant(1, 1.0 / a)
        for a in (1.0, 2.0, 3.0)
    )
    report(5, worst_condition <= 1e-14 and worst_assoc <= 1e-12 and exact,
           f"condition residual {worst_condition:.2e} (<=1e-14), associativity "
           f"{worst_assoc:.2e} (<=1e-12), commutator exact={exact}")


def test_criterion_6_uncertainty_equality():
    """Variance product equals the squared half-commutator for all (lam, K)."""
    worst_closed = 0.0
    worst_quad = 0.0
    for lam in (0.1, 0.5, 1.0, 2.0, 10.0):
        for amplitude in (0.5, 1.0, 3.0):
            worst_closed = max(worst_closed, abs(uncertainty_report(lam, amplitude).ratio - 1.0))
            worst_quad = max(worst_quad, abs(uncertainty_quadrature(lam, amplitude).ratio - 1.0))
    report(6, worst_closed <= 1e-12 and worst_quad <= 1e-8,
           f"closed ratio dev {worst_closed:.2e} (<=1e-12), quadrature dev {worst_quad:.2e} (<=1e-8)")


def test_criterion_7_spectrum():
    """Discretized levels equal 2j + h to 1e-3; halving the spacing quarters the error."""
    coarse_grid = GridSpec(half_width=10.0, points=2000)
    fine_grid = GridSpec(half_width=10.0, points=4001)
    worst_err = 0.0
    ratios = []
    for h in (0.5, 1.0):
        spec = OscillatorSpec(dim=1, h=h)
        exact = 2.0 * np.arange(4) + h
        coarse = np.abs(spectrum(spec, coarse_grid, levels=4) - exact)
        fine = np.abs(spectrum(spec, fine_grid, levels=4) - exact)
        worst_err = max(worst_err, float(coarse.max()))
        ratios.extend((coarse / fine).tolist())
    ratio_ok = all(abs(r - 4.0) <= 0.5 for r in ratios)
    report(7, worst_err <= 1e-3 and ratio_ok,
           f"worst level error {worst_err:.2e} (<=1e-3), convergence ratios "
           f"{min(ratios):.2f}..{max(ratios):.2f} (4 +/- 0.5)")


def test_criterion_8_quadrature_engine():
    """Rule exactness to degree 2m-1 at 1e-12; MC within 4 stderr for >=99/100 seeds."""
    worst = 0.0
    for order in (2, 5, 10, 40):
        rule = gauss_hermite(order)
        for k in range(0, 2 * order - 1, 2):
            numeric = float(np.sum(rule.weights * rule.nodes**k))
            worst = max(worst, abs(numeric - gaussian_moment(k, 1.0)) / gaussian_moment(k, 1.0))

    symbol = GaussianSymbol(1, 1.0, 1.0)
    q = QuantParams(1.0)
    reference = evaluate(berezin_transform_closed(symbol, q), 0j)
    hits = 0
    for seed in range(100):
        estimate, stderr = monte_carlo_transform(
            symbol, 0j, q, MonteCarloConfig(samples=100_000, seed=seed)
        )
        if abs(estimate - reference) <= 4.0 * stderr:
            hits += 1
    report(8, worst <= 1e-12 and hits >= 99,
           f"worst exactness dev {worst:.2e} (<=1e-12), MC within 4*stderr for {hits}/100 seeds (>=99)")


def test_criterion_9_determinism():
    """`verify --suite all --seed 7` emits byte-identical JSON on consecutive runs."""
    command = [sys.executable, "-m", "berezin", "verify", "--suite", "all", "--seed", "7"]
    first = subprocess.run(command, capture_output=True, check=False)
    second = subprocess.run(command, capture_output=True, check=False)
    identical = first.stdout == second.stdout
    exit_ok = first.returncode == 0 and second.returncode == 0
    payload = json.loads(first.stdout)
    all_passed = payload["results"]["all_passed"]
    report(9, identical and exit_ok and all_passed,
           f"byte-identical={identical}, exit codes ({first.returncode}, {second.returncode}), "
           f"all checks passed={all_passed}")
