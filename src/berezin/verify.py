"""Oracle-equivalence and property verification suites.

Each suite re-derives a closed-form claim through an independent route
(Gauss-Hermite quadrature for the transform, its first order in 1/alpha, the
trace and the uncertainty moments; Monte-Carlo sampling; finite-difference
and Fourier-collocation spectra; exact polynomial algebra) and reports
uniform checks: a check passes when `value <= bound`.  Everything is
deterministic for a fixed seed, so two identical runs produce identical
reports.

Each closed form with a quadrature oracle has one check function, used both
by its suite (which keeps the worst check over a grid) and by the CLI
command for a single input: `transform_check` (theorem1), `trace_check`
(trace) and `uncertainty_checks` (uncertainty).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from itertools import combinations_with_replacement
from typing import Iterable

import numpy as np

from . import bergman_space, oscillator, quadrature, semiclassics
from .gaussian_calculus import (
    GaussianSymbol,
    NumericContractError,
    PointLike,
    QuantParams,
    _first_order,
    _integer,
    as_point,
    berezin_transform_closed,
    evaluate,
)
from .semiclassics import PolynomialSymbol

__all__ = ["CheckResult", "SUITE_NAMES", "run_suites", "trace_check", "transform_check", "uncertainty_checks"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


# -- suite: closed transform vs centred Gauss-Hermite quadrature -------------

_THEOREM1_POINTS = (0j, 0.3 + 0j, -0.45 + 0.2j, 0.6j, 0.7 + 0.4j)


def _worst(checks: Iterable[CheckResult]) -> CheckResult:
    return max(checks, key=lambda c: c.value)


def transform_check(symbol: GaussianSymbol, z: PointLike, q: QuantParams, order: int = 80) -> tuple:
    """(numeric, closed value, absolute deviation, check) at z: the check
    holds the relative deviation, absolute where the closed value underflows
    to 0; bound 1e-9."""
    numeric = quadrature.berezin_transform_numeric(symbol, z, q, order=order)
    reference = evaluate(berezin_transform_closed(symbol, q), z)
    deviation = abs(numeric - reference)
    relative = deviation / abs(reference) if reference else deviation
    name = f"quadrature-match lam={symbol.compression} alpha={q.alpha}"
    return numeric, reference, deviation, CheckResult("theorem1", name, relative, 1e-9)


def _suite_theorem1(seed: int) -> list[CheckResult]:
    return [
        _worst(transform_check(GaussianSymbol(1, 1.0, lam), z, QuantParams(alpha))[-1] for z in _THEOREM1_POINTS)
        for lam in (0.5, 1.0, 2.0)
        for alpha in (0.5, 1.0, 5.0, 50.0)
    ]


# -- suite: normalized trace -------------------------------------------------


def trace_check(lam: float, q: QuantParams, dim: int) -> tuple:
    """(purity report, numeric normalized trace, absolute deviation, check):
    the check holds the relative deviation of the normalized trace; bound
    1e-9."""
    report = bergman_space.purity_index(lam, q, dim=dim)
    raw_numeric = bergman_space.purity_raw_numeric(lam, q, dim=dim)
    normalized_numeric = raw_numeric / (report.raw_trace / report.normalized_trace)
    deviation = abs(normalized_numeric - report.normalized_trace)
    name = f"quadrature-match n={dim} lam={report.lam} alpha={q.alpha}"
    check = CheckResult("trace", name, deviation / report.normalized_trace, 1e-9)
    return report, normalized_numeric, deviation, check


def _suite_trace(seed: int) -> list[CheckResult]:
    grid = ((1.0, 1.0), (0.5, 2.0), (2.0, 5.0))
    checks = [trace_check(lam, QuantParams(alpha), dim)[-1] for dim in (1, 2, 3) for lam, alpha in grid]
    exact_mismatches = 0.0
    for dim, expected in ((1, 0.5), (2, 0.25), (3, 0.125)):
        if bergman_space.purity_index(1.0, QuantParams(1.0), dim=dim).normalized_trace != expected:
            exact_mismatches += 1.0
    checks.append(CheckResult("trace", "half-power values exact at alpha=lam=1", exact_mismatches, 0.0))

    close_to_one = bergman_space.purity_index(1.0, QuantParams(1e6), dim=1).normalized_trace
    checks.append(CheckResult("trace", "classical limit alpha=1e6", abs(1.0 - close_to_one), 2e-6))
    return checks


# -- suite: first-order expansion through the quadrature oracle ---------------


def _suite_expansion(seed: int) -> list[CheckResult]:
    # alpha * sup_z |T_alpha g - (g + Lap(g)/(4*alpha))| = O(1/alpha), T_alpha g by quadrature
    g = GaussianSymbol(dim=1, amplitude=1.0, compression=1.0)
    points = [as_point(z) for z in (0j, 0.3 + 0j, 0.7 + 0j)]
    alphas = (10.0, 100.0, 1000.0)
    residuals = []
    for alpha in alphas:
        q = QuantParams(alpha)
        gaps = [abs(quadrature.berezin_transform_numeric(g, p, q) - _first_order(g, q, p)) for p in points]
        residuals.append(alpha * max(gaps))
    slope = float(np.polyfit(np.log(alphas), np.log(residuals), 1)[0])
    return [CheckResult("expansion", "quadrature first-order residual log-log slope -1", abs(slope + 1.0), 0.1)]


# -- suite: star product --------------------------------------------------------


def _multi_indices(total: int, dim: int) -> Iterable[tuple]:
    """All beta in N^dim with |beta| = total."""
    if total == 0:
        yield (0,) * dim
        return
    for combo in combinations_with_replacement(range(dim), total):
        beta = [0] * dim
        for axis in combo:
            beta[axis] += 1
        yield tuple(beta)


@functools.cache
def _all_exponent_pairs(dim: int, degree: int) -> tuple:
    # fixed enumeration order keeps seeded draws reproducible; built once per (dim, degree)
    pairs = []
    for total in range(degree + 1):
        for split in range(total + 1):
            for beta in _multi_indices(split, dim):
                for gamma in _multi_indices(total - split, dim):
                    pairs.append((beta, gamma))
    return tuple(pairs)


def _random_polynomial(rng: np.random.Generator, dim: int, degree: int = 3, terms: int = 4) -> PolynomialSymbol:
    pool = _all_exponent_pairs(dim, degree)
    chosen = rng.choice(len(pool), size=min(terms, len(pool)), replace=False)
    return PolynomialSymbol(dim, tuple((*pool[int(i)], complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
                                         for i in chosen))


def _suite_star(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_condition = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        f = _random_polynomial(rng, dim)
        g = _random_polynomial(rng, dim)
        worst_condition = max(worst_condition, semiclassics.quantization_condition_residual(f, g))
    checks = [CheckResult("star", "first-order condition over 100 seeded pairs", worst_condition, 1e-14)]

    q = QuantParams(1.7)
    worst_assoc = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 3))
        f = _random_polynomial(rng, dim)
        g = _random_polynomial(rng, dim)
        h = _random_polynomial(rng, dim)
        left = semiclassics.wick_star(semiclassics.wick_star(f, g, q), h, q)
        right = semiclassics.wick_star(f, semiclassics.wick_star(g, h, q), q)
        worst_assoc = max(worst_assoc, (left - right).max_coeff())
    checks.append(CheckResult("star", "associativity over 20 seeded triples", worst_assoc, 1e-12))

    mismatches = 0.0
    for alpha in (1.0, 2.0, 3.0):
        q = QuantParams(alpha)
        z = PolynomialSymbol.coordinate(1)
        zbar = PolynomialSymbol.conj_coordinate(1)
        commutator = semiclassics.wick_star(z, zbar, q) - semiclassics.wick_star(zbar, z, q)
        if commutator != PolynomialSymbol.constant(1, 1.0 / alpha):
            mismatches += 1.0
    checks.append(CheckResult("star", "z * zbar - zbar * z equals 1/alpha exactly", mismatches, 0.0))
    return checks


# -- suite: uncertainty equality --------------------------------------------------


def uncertainty_checks(lam: float, amplitude: float) -> tuple:
    """(closed report, quadrature report, checks): each ratio against 1,
    bound 1e-12 for the closed one and 1e-8 for the quadrature one."""
    closed = oscillator.uncertainty_report(lam, amplitude)
    numeric = oscillator.uncertainty_quadrature(lam, amplitude)
    return closed, numeric, [
        CheckResult("uncertainty", "closed-form ratio equals 1", abs(closed.ratio - 1.0), 1e-12),
        CheckResult("uncertainty", "quadrature-moment ratio equals 1", abs(numeric.ratio - 1.0), 1e-8),
    ]


def _suite_uncertainty(seed: int) -> list[CheckResult]:
    grid = [uncertainty_checks(lam, k)[-1] for lam in (0.1, 0.5, 1.0, 2.0, 10.0) for k in (0.5, 1.0, 3.0)]
    return [_worst(column) for column in zip(*grid)]


# -- suite: oscillator spectrum ------------------------------------------------------


def _suite_spectrum(seed: int) -> list[CheckResult]:
    checks = []
    coarse = oscillator.GridSpec(half_width=10.0, points=2000)
    fine = oscillator.GridSpec(half_width=10.0, points=4001)  # halves the spacing
    collocation = oscillator._collocation_levels()  # every level `spectrum` accepts
    for h in (0.5, 1.0):
        spec = oscillator.OscillatorSpec(dim=1, h=h)
        exact = 2.0 * np.arange(10) + h
        try:  # a refusal by the gap to the collocation levels fails both checks, at a finite value
            err_coarse = np.abs(oscillator.spectrum(spec, coarse, levels=4) - exact[:4])
            ratio = err_coarse / np.abs(oscillator.spectrum(spec, fine, levels=4) - exact[:4])
            err, worst = float(err_coarse.max()), max(abs(float(ratio.max()) - 4.0), abs(float(ratio.min()) - 4.0))
        except NumericContractError:
            err = worst = float(np.finfo(float).max)
        checks.append(CheckResult("spectrum", f"levels match 2j+h at h={h}", err, 1e-3))
        checks.append(CheckResult("spectrum", f"second-order convergence at h={h}", worst, 0.5))
        deviation = float(np.max(np.abs(collocation + (h - 1.0) - exact) / exact))
        checks.append(CheckResult("spectrum", f"collocation levels match 2j+h at h={h}", deviation, 1e-12))
    return checks


# -- suite: quadrature engine ----------------------------------------------------------


def _suite_quadrature(seed: int) -> list[CheckResult]:
    checks = []
    for order in (2, 5, 10, 40, 128, 256, quadrature.MAX_RULE_ORDER):
        rule = quadrature.gauss_hermite(order)
        # high orders put w near 1e-300 and t^k near 1e+1000, so each even
        # moment is a max-shifted sum of exp(log w + k log|t|), set against
        # log Gamma((k+1)/2)
        log_weights = np.log(rule.weights)
        off_centre = rule.nodes != 0.0
        log_nodes = np.log(np.abs(rule.nodes[off_centre]))
        worst = 0.0
        for k in range(0, 2 * order - 1, 2):
            terms = log_weights if k == 0 else log_weights[off_centre] + k * log_nodes
            top = float(terms.max())
            log_moment = top + math.log(float(np.sum(np.exp(terms - top))))
            worst = max(worst, abs(math.expm1(log_moment - math.lgamma((k + 1) / 2))))
        checks.append(CheckResult("quadrature", f"exactness to degree {2 * order - 1} at m={order}", worst, 1e-12))

    symbol = GaussianSymbol(dim=1, amplitude=1.0, compression=1.0)
    q = QuantParams(1.0)
    reference = evaluate(berezin_transform_closed(symbol, q), 0j)
    failures = 0.0
    for mc_seed in range(100):
        cfg = quadrature.MonteCarloConfig(samples=100_000, seed=mc_seed)
        estimate, stderr = quadrature.monte_carlo_transform(symbol, 0j, q, cfg)
        if abs(estimate - reference) > 4.0 * stderr:
            failures += 1.0
    checks.append(CheckResult("quadrature", "Monte-Carlo within 4 stderr for 100 seeds", failures, 1.0))
    return checks


SUITES = {
    "theorem1": _suite_theorem1,
    "trace": _suite_trace,
    "expansion": _suite_expansion,
    "star": _suite_star,
    "uncertainty": _suite_uncertainty,
    "spectrum": _suite_spectrum,
    "quadrature": _suite_quadrature,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suites(name: str = "all", seed: int = 0) -> list[CheckResult]:
    """Run one named suite (or all of them) deterministically."""
    seed = _integer("seed", seed, 0)
    if name == "all":
        names = tuple(SUITES)
    elif name in SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    results = []
    for suite_name in names:
        results.extend(SUITES[suite_name](seed))
    return results
