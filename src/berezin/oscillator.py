"""Harmonic-oscillator spectrum checks and the uncertainty equality.

The spectral solver discretizes the one-dimensional operator

    H = x^2 - d^2/dx^2 + (h - 1)

with second-order central differences and Dirichlet ends; its eigenvalues
are 2j + h (even spacing, ground energy h), and multiplying by the
dimension gives the n-dimensional diagonal levels n*(2j + h).  The same
operator form follows from the ladder factorization H = 2*zbar_hat*z_hat + h
with z_hat = (x_hat + i*p_hat)/sqrt(2) and p_hat = -i*d/dx.

The grid is symmetric about 0, so the operator splits into an even and an
odd block on its non-negative half, the even block holding the even levels
and the odd block the odd ones.  h enters H only as a multiple of the
identity, so the h-free operator x^2 - d^2/dx^2 is solved once per (grid,
levels), kept in a memo of 16 pairs, and every call shifts the result by
h - 1 and scales it by dim.  The solve uses numpy and plain Python only:
each level of a block starts from the block's Gershgorin bracket, which
counts of negative LDL^T pivots (Sturm counts) narrow, is reached by
safeguarded Newton steps on log|det(T - x)| from a seed, and is pinned by
bisection on the counts to the double where the count changes.  The seeds
are the levels of a second, spectrally accurate route: Fourier collocation
of x^2 - d^2/dx^2 (Trefethen's Program 8), which `verify` also checks
against 2j + h.  They also bound the solve's error: a grid whose levels lie
more than 1e-3 (relative) from them is refused, so a grid too coarse or too
narrow to resolve the oscillator yields an error, not levels.

The uncertainty functions work with the compressed Gaussian state
psi = K * exp(-lam*x^2 / (2*(1+lam))) and second moments taken against the
unnormalized density psi^2; the product of variances equals the squared
half-commutator expectation exactly for every lam > 0.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .gaussian_calculus import _integer, _real
from .quadrature import NumericContractError, gauss_hermite, integrate

__all__ = [
    "GridSpec",
    "OscillatorSpec",
    "UncertaintyReport",
    "spectrum",
    "uncertainty_quadrature",
    "uncertainty_report",
]

@dataclass(frozen=True)
class OscillatorSpec:
    dim: int = 1
    h: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer("dim", self.dim, 1))
        object.__setattr__(self, "h", _real("h", self.h))


@dataclass(frozen=True)
class GridSpec:
    """Interior points of [-L, L] with Dirichlet boundaries."""

    half_width: float
    points: int

    def __post_init__(self):
        object.__setattr__(self, "points", _integer("points", self.points, 3))
        object.__setattr__(self, "half_width", _real("half_width", self.half_width))

    def coordinates(self) -> tuple[np.ndarray, float]:
        spacing = 2.0 * self.half_width / (self.points + 1)
        x = -self.half_width + spacing * np.arange(1, self.points + 1)
        return x, spacing


_COLLOCATION_NODES = 63
_COLLOCATION_HALF_WIDTH = 10.0
_SEED_LEVELS = 10  # the levels `spectrum` accepts
_NEWTON_STEPS = 8
_GAP_BOUND = 1e-3  # the relative gap to the collocation levels beyond which a solve is refused
_EPS = sys.float_info.epsilon


def _fourier_derivative(nodes: int, half_width: float) -> np.ndarray:
    """The periodic Fourier differentiation matrix D1 on an odd number of points of [-L, L).

    Trefethen, Spectral Methods in MATLAB (SIAM, 2000), ch. 3: 0 on the
    diagonal and (-1)^(j-k) / (2 sin((j-k) pi / nodes)) * pi / L off it.
    """
    offset = np.subtract.outer(np.arange(nodes), np.arange(nodes))
    with np.errstate(divide="ignore"):  # on the diagonal, which is set to 0 below
        d1 = np.where(offset % 2, -0.5, 0.5) / np.sin(offset * (math.pi / nodes)) * (math.pi / half_width)
    np.fill_diagonal(d1, 0.0)
    return d1


@functools.cache
def _collocation_levels() -> np.ndarray:
    """The lowest 10 eigenvalues of x^2 - d^2/dx^2 by Fourier collocation, ascending and read-only.

    Trefethen's Program 8: numpy.linalg.eigvalsh(diag(x^2) - D1 @ D1) on 63
    periodic points of [-10, 10), about 0.5 ms once per process.  They are
    2j + 1 to about 7e-14: the eigenstates decay like exp(-x^2/2), so
    neither the periodic box nor the truncation shows at double precision.
    The point count is odd because at an even count D1 annihilates the
    sawtooth mode, and -D1 @ D1 gains a spurious level near L^2/3 (20.5 at
    N = 48, L = 8, among the levels served).  These levels seed the
    finite-difference solve and give `verify` a second route to 2j + h.
    """
    nodes, half_width = _COLLOCATION_NODES, _COLLOCATION_HALF_WIDTH
    d1 = _fourier_derivative(nodes, half_width)
    x = half_width * (2.0 * np.arange(1, nodes + 1) / nodes - 1.0)
    levels = np.linalg.eigvalsh(np.diag(x * x) - d1 @ d1)[:_SEED_LEVELS]
    levels.flags.writeable = False
    return levels


def _negative_pivots(rows: list, x: float) -> int:
    """How many levels lie below x: the negative pivots d_i of T - x = L D L^T.

    Each row is (a_i, b_{i-1}^2), and d_i = a_i - x - b_{i-1}^2 / d_{i-1}
    (Barth, Martin & Wilkinson, Numer. Math. 9, 1967); a zero pivot counts
    as negative.  `_newton_pass` forms each pivot by the same operations, so
    the two agree on every count; this pass, without the slope, costs about
    half as much.
    """
    pivot, below = 1.0, 0
    for a, b2 in rows:
        pivot = a - x - b2 / pivot
        if pivot == 0.0:
            pivot = -sys.float_info.min
        if pivot < 0.0:
            below += 1
    return below


def _newton_pass(rows: list, x: float) -> tuple[int, float]:
    """`_negative_pivots` at x, and d/dx log|det(T - x)| = sum of d_i' / d_i from the same pass."""
    pivot, ratio, slope, below = 1.0, 0.0, 0.0, 0
    for a, b2 in rows:
        coupling = b2 / pivot
        pivot = a - x - coupling
        if pivot == 0.0:
            pivot = -sys.float_info.min
        if pivot < 0.0:
            below += 1
        ratio = (coupling * ratio - 1.0) / pivot  # d_i' = -1 + (b^2 / d_{i-1}) * (d_{i-1}' / d_{i-1})
        slope += ratio
    return below, slope


def _block_levels(diagonal: np.ndarray, off_diagonal: np.ndarray, seeds: np.ndarray) -> list[float]:
    """The len(seeds) lowest eigenvalues of a symmetric tridiagonal block, ascending.

    seeds[j] estimates level j.  The block is scaled by a power of two to
    entries below 1/4, so no b^2 leaves the double range and every level
    lies in (-2, 2), where the counts are 0 and the row count (Gershgorin).
    """
    exponent = math.frexp(max(float(np.abs(diagonal).max()), float(np.abs(off_diagonal).max(initial=0.0))))[1] + 2
    scale = math.ldexp(1.0, -exponent)
    off_diagonal = off_diagonal * scale
    rows = list(zip((diagonal * scale).tolist(), [0.0] + (off_diagonal * off_diagonal).tolist()))
    seeds = (seeds * scale).tolist()  # Python floats: numpy scalars slow each pass threefold
    return [_level(rows, j, seed) / scale for j, seed in enumerate(seeds)]  # inf on overflow


def _level(rows: list, j: int, seed: float) -> float:
    """Level j of a scaled block: the largest double whose count is at most j.

    The bracket [lo, hi] starts at (-2, 2), where count(lo) <= j < count(hi).
    Newton steps on log|det(T - x)| start from the seed, or from 0 if the
    seed lies outside, and each pass moves lo or hi by its count; a step
    that leaves the bracket is replaced by a bisection step.  Once a step is
    below round-off, the count changes within about one epsilon of x (at
    most 0.71 eps, measured at N = 400 to 4001), so counts at x -+ 2 eps
    narrow the bracket, and bisection ends it at two adjacent doubles.  The
    level is lo: a point fixed by the counts alone, whatever the seed or the
    Newton path.
    """
    lo, hi = -2.0, 2.0
    x = seed if lo < seed < hi else 0.0
    for _ in range(_NEWTON_STEPS):
        below, slope = _newton_pass(rows, x)
        lo, hi = (x, hi) if below <= j else (lo, x)
        if abs(slope) * _EPS >= 1.0:  # the step 1 / slope is below round-off
            break
        x = x - 1.0 / slope if slope else hi
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    for x in (x - 2.0 * _EPS, x + 2.0 * _EPS):
        if lo < x < hi:
            lo, hi = (x, hi) if _negative_pivots(rows, x) <= j else (lo, x)
    while lo < (x := 0.5 * (lo + hi)) < hi:
        lo, hi = (x, hi) if _negative_pivots(rows, x) <= j else (lo, x)
    return lo


@functools.lru_cache(maxsize=16)
def _unit_levels(grid: GridSpec, levels: int) -> np.ndarray:
    """The lowest `levels` eigenvalues of x^2 - d^2/dx^2 on `grid`, ascending and read-only.

    The grid is symmetric, so the operator commutes with the mirror x -> -x
    and splits into an even and an odd block on the grid's non-negative
    half, of ceil(N/2) and floor(N/2) rows.  Its off-diagonals are all
    -1/dx^2, so the eigenvector of level j has exactly j sign changes
    (oscillation theorem for Jacobi matrices) and parity (-1)^j: the even
    block holds levels 0, 2, 4, ... and the odd block levels 1, 3, 5, ...
    `_block_levels` solves each block from the collocation levels of the
    same parity, in passes over each block's N/2 rows: a cold solve of 4
    levels at N = 4001 takes 90 passes, 11-12 ms on a 2-vCPU Xeon VM (min
    of 15), and a repeat from the memo about 11 us.  The cost grows as N,
    the practical ceiling on `points`.

    The solve is refused, by a NumericContractError naming the grid, when
    its gap max_j |level_j / coll_j - 1| to the collocation levels coll_j
    exceeds 1e-3.  At 10 levels the gap is 5.9e-5 on (L, N) = (10, 2000)
    and 3.4e-4 on (6, 500), but 0.31 on (10, 20) and 4e198 on (1e100, 4),
    whose levels are correctly rounded yet resolve nothing.  A level that
    is not positive or not finite lies at a gap of at least 1, or nan.
    Every refusal is an exception, so a refused grid is never kept.
    """
    x, dx = grid.coordinates()
    at = f"half_width={grid.half_width!r}, points={grid.points!r}"
    try:
        coupling = -1.0 / dx**2
        with np.errstate(over="ignore"):  # an overflowing entry is refused below, by name
            half = x[grid.points // 2 :]
            diagonal = half * half + 2.0 / dx**2
            off_diagonal = np.full(half.size - 1, coupling)
            if grid.points % 2:
                # x = 0 is a row of its own: an even vector couples it to both
                # neighbours (2 * coupling, symmetrized to sqrt(2) * coupling); an odd one is 0 there
                even = (diagonal, np.concatenate(([math.sqrt(2.0) * coupling], off_diagonal[1:])))
                odd = (diagonal[1:], off_diagonal[1:])
            else:
                # the mirror neighbour of the first row holds the same value, or its negative
                mirror = np.zeros_like(diagonal)
                mirror[0] = coupling
                even = (diagonal + mirror, off_diagonal)
                odd = (diagonal - mirror, off_diagonal)
    except (OverflowError, ZeroDivisionError) as exc:  # dx**2 beyond the double range, or 0
        raise NumericContractError(f"grid spacing {dx!r} squares out of the double range at {at}") from exc
    seeds = _collocation_levels()
    # level j of the operator is level j // 2 of its parity's block
    blocks = ((*even, seeds[0::2][: (levels + 1) // 2]), (*odd, seeds[1::2][: levels // 2]))
    if not all(np.all(np.isfinite(d)) and np.all(np.isfinite(e)) for d, e, _ in blocks):
        raise NumericContractError(f"the difference operator is not finite at {at}")
    values = np.sort(np.array([level for d, e, s in blocks if s.size for level in _block_levels(d, e, s)]))
    gap = float(np.max(np.abs(values / seeds[:levels] - 1.0)))
    if not gap <= _GAP_BOUND:  # a nan gap is refused too
        raise NumericContractError(
            f"the levels lie {gap:.3g} (relative) from the collocation levels, beyond the bound {_GAP_BOUND!r}, at {at}"
        )
    values.flags.writeable = False
    return values


def spectrum(spec: OscillatorSpec, grid: GridSpec, levels: int) -> np.ndarray:
    """Lowest eigenvalues of the discretized oscillator, ascending.

    For dim = 1 these approximate 2j + h; higher dimensions scale the
    one-dimensional levels by dim (diagonal levels n*(2j + h)).  A grid
    whose h-free levels lie more than 1e-3 (relative) from the collocation
    levels is refused, by a NumericContractError that names it.

    h enters the operator only as (h - 1) times the identity, so the levels
    are those of the h-free operator x^2 - d^2/dx^2, shifted by h - 1 and
    scaled by dim.  The h-free levels are solved once per (grid, levels)
    and kept in a memo of the last 16 pairs, about 10 doubles each; every
    call, the first included, forms dim * (levels + (h - 1)) from them, so
    a result does not depend on what was solved before.  The solve is
    Sturm counts and Newton steps in plain Python, seeded by Fourier
    collocation; `_unit_levels` gives its cost.
    """
    levels = _integer("levels", levels, 1, _SEED_LEVELS)
    if levels > grid.points:
        raise ValueError(f"levels={levels!r} exceeds the grid's points={grid.points!r}")
    with np.errstate(over="ignore"):
        energies = spec.dim * (_unit_levels(grid, levels) + (spec.h - 1.0))
    if not np.all(np.isfinite(energies)):
        raise NumericContractError(
            f"the levels are not finite at dim={spec.dim!r}, h={spec.h!r}, "
            f"half_width={grid.half_width!r}, points={grid.points!r}"
        )
    return energies


@dataclass(frozen=True)
class UncertaintyReport:
    """Variances and the two sides of the uncertainty identity.

    Second moments are taken against the unnormalized density psi^2 (both
    sides scale as K^4, so the ratio is normalization-free); `norm_sq` lets
    callers form conventional variances var/||psi||^2.
    """

    lam: float
    amplitude: float
    var_x: float
    var_p: float
    rhs: float
    ratio: float
    norm_sq: float

    def __post_init__(self):
        for name in ("lam", "amplitude", "var_x", "var_p", "rhs", "ratio", "norm_sq"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")

    @property
    def var_x_normalized(self) -> float:
        return self.var_x / self.norm_sq

    @property
    def var_p_normalized(self) -> float:
        return self.var_p / self.norm_sq


def _report(lam: float, amplitude: float, **moments: float) -> UncertaintyReport:
    # each moment is positive and finite in exact arithmetic, and rhs and
    # norm_sq divide the ratio and the normalized variances; a double that
    # overflows, a sub-normal with only a few significant bits, or a 0 that
    # a positive moment underflowed to cannot stand for them
    for name, value in moments.items():
        if not sys.float_info.min <= value < math.inf:
            raise NumericContractError(
                f"{name} = {value!r} is out of the double range at lambda={lam!r}, K={amplitude!r}"
            )
    # var_x * var_p may overflow where the ratio, near 1, does not; var_x / rhs
    # is 1/var_p to round-off, in range for a normal var_p
    ratio = moments["var_x"] / moments["rhs"] * moments["var_p"]
    return UncertaintyReport(lam=lam, amplitude=amplitude, ratio=ratio, **moments)


def uncertainty_report(lam: float, amplitude: float = 1.0) -> UncertaintyReport:
    """Closed-form moments of psi = K exp(-lam*x^2/(2*(1+lam))), in r = (1+lam)/lam:

    var_x = K^2 sqrt(pi) r^(3/2) / 2,   var_p = K^2 sqrt(pi) r^(-1/2) / 2,
    rhs   = K^4 pi r / 4,               norm_sq = K^2 sqrt(pi r);
    var_x*var_p = rhs identically.  r is 1 to round-off for large lam and
    overflows only as lam underflows, so no inf/inf arises.
    """
    lam, amplitude = _real("lambda", lam), _real("K", amplitude)
    k2 = amplitude * amplitude
    r = (1.0 + lam) / lam
    root = math.sqrt(r)
    half = 0.5 * k2 * math.sqrt(math.pi)
    return _report(
        lam,
        amplitude,
        var_x=half * r * root,
        var_p=half / root,
        rhs=0.25 * k2 * math.pi * r * k2,
        norm_sq=k2 * math.sqrt(math.pi * r),
    )


def uncertainty_quadrature(lam: float, amplitude: float = 1.0) -> UncertaintyReport:
    """Recompute the uncertainty moments by the order-80 Gauss-Hermite rule.

    Integrates x^2 psi^2, (d psi/dx)^2 (analytic derivative), and psi^2
    directly; an independent route to the closed forms.
    """
    lam, amplitude = _real("lambda", lam), _real("K", amplitude)
    k2 = amplitude * amplitude
    a = lam / (1.0 + lam)
    rule = gauss_hermite(80)
    second_moment = float(integrate(lambda u: u * u, rule, 1, scale=a))
    mass = float(integrate(lambda u: np.ones_like(u), rule, 1, scale=a))
    var_x = k2 * second_moment
    # a * a is sub-normal below lambda ~ 1e-154, and k2 * a below K^2 * lambda ~ 1e-308
    var_p = k2 * (a * (a * second_moment))
    half = 0.5 * k2 * mass  # (k2 * mass)**2 may overflow where rhs = half**2 does not
    return _report(lam, amplitude, var_x=var_x, var_p=var_p, rhs=half * half, norm_sq=k2 * mass)
