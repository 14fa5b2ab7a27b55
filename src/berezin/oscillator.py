"""Harmonic-oscillator spectrum checks and the uncertainty equality.

The spectral solver discretizes the one-dimensional operator

    H = x^2 - d^2/dx^2 + (h - 1)

with second-order central differences and Dirichlet ends; its eigenvalues
are 2j + h (even spacing, ground energy h), and multiplying by the
dimension gives the n-dimensional diagonal levels n*(2j + h).  The same
operator form follows from the ladder factorization H = 2*zbar_hat*z_hat + h
with z_hat = (x_hat + i*p_hat)/sqrt(2) and p_hat = -i*d/dx.

The grid is symmetric about 0, so the operator splits into an even and an
odd block on its non-negative half.  Every off-diagonal is -1/dx^2, so the
eigenvector of level j has exactly j sign changes (oscillation theorem for
Jacobi matrices), hence parity (-1)^j: `spectrum` finds the even levels in
one block and the odd levels in the other, two bisections over about N/2
rows, at about half the cost of one over all N.  h enters H only as a
multiple of the identity, so those bisections solve the h-free operator
x^2 - d^2/dx^2 once per (grid, levels), kept in a memo of 16 pairs, and
every call shifts the result by h - 1 and scales it by dim: about 3.3 ms
for the first call at N = 4001, about 10 us for a repeat.

`ladder_identity_residual` and `commutator_residual` instead keep h inside
the momentum operator (p_hat = -i*h*d/dx, so [x, p] = i*h) and verify the
operator identities H = x^2 - h^2 d^2/dx^2 = 2*zbar_hat*z_hat + h at the
finite-difference level; both conventions are checked independently.

The uncertainty functions work with the compressed Gaussian state
psi = K * exp(-lam*x^2 / (2*(1+lam))) and second moments taken against the
unnormalized density psi^2; the product of variances equals the squared
half-commutator expectation exactly for every lam > 0.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussian_calculus import _integer, _real
from .quadrature import NumericContractError, gauss_hermite, integrate

__all__ = [
    "GridSpec",
    "OscillatorSpec",
    "UncertaintyReport",
    "commutator_residual",
    "eigenstate_residual",
    "ground_state_residual",
    "ladder_identity_residual",
    "spectrum",
    "uncertainty_quadrature",
    "uncertainty_report",
]

SPECTRAL_MIN_POINTS = 500
SPECTRAL_MIN_HALF_WIDTH = 6.0


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


def _warn_if_coarse(grid: GridSpec) -> None:
    if grid.points < SPECTRAL_MIN_POINTS or grid.half_width < SPECTRAL_MIN_HALF_WIDTH:
        warnings.warn(
            f"grid (L={grid.half_width}, N={grid.points}) is below the spectral-claim "
            f"resolution (L >= {SPECTRAL_MIN_HALF_WIDTH}, N >= {SPECTRAL_MIN_POINTS}); "
            "results may miss the stated tolerances",
            stacklevel=3,
        )


@functools.lru_cache(maxsize=16)
def _unit_levels(grid: GridSpec, levels: int) -> np.ndarray:
    """The lowest `levels` eigenvalues of x^2 - d^2/dx^2 on `grid`, ascending and read-only.

    The grid is symmetric, so the operator commutes with the mirror x -> -x
    and splits into an even and an odd block on the grid's non-negative
    half, of ceil(N/2) and floor(N/2) rows.  Its off-diagonals are all
    -1/dx^2, so the eigenvector of level j has exactly j sign changes
    (oscillation theorem for Jacobi matrices) and parity (-1)^j: the even
    block holds levels 0, 2, 4, ... and the odd block levels 1, 3, 5, ...
    Two half-size bisections cost about half of one over all N rows.
    Every refusal is an exception, so a refused grid is never kept.
    """
    # imported here so that importing the package does not load scipy
    from scipy.linalg import eigvalsh_tridiagonal

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
    blocks = ((*even, (levels + 1) // 2), (*odd, levels // 2))
    if not all(np.all(np.isfinite(d)) and np.all(np.isfinite(e)) for d, e, _ in blocks):
        raise NumericContractError(f"the difference operator is not finite at {at}")
    values = np.sort(
        np.concatenate(
            [eigvalsh_tridiagonal(d, e, select="i", select_range=(0, count - 1)) for d, e, count in blocks if count]
        )
    )
    if not np.all(np.isfinite(values)):
        raise NumericContractError(f"the solve returned non-finite levels at {at}")
    values.flags.writeable = False
    return values


def spectrum(spec: OscillatorSpec, grid: GridSpec, levels: int) -> np.ndarray:
    """Lowest eigenvalues of the discretized oscillator, ascending.

    For dim = 1 these approximate 2j + h; higher dimensions scale the
    one-dimensional levels by dim (diagonal levels n*(2j + h)).  Coarse
    grids produce a warning-carrying result.

    h enters the operator only as (h - 1) times the identity, so the levels
    are those of the h-free operator x^2 - d^2/dx^2, shifted by h - 1 and
    scaled by dim.  The h-free levels are solved once per (grid, levels)
    and kept in a memo of the last 16 pairs, about 10 doubles each; every
    call, the first included, forms dim * (levels + (h - 1)) from them, so
    a result does not depend on what was solved before.  At N = 4001 a
    first call takes about 3.3 ms and a repeat about 10 us.
    """
    levels = _integer("levels", levels, 1, 10)
    if levels > grid.points:
        raise ValueError(f"levels={levels!r} exceeds the grid's points={grid.points!r}")
    _warn_if_coarse(grid)
    with np.errstate(over="ignore"):
        energies = spec.dim * (_unit_levels(grid, levels) + (spec.h - 1.0))
    if not np.all(np.isfinite(energies)):
        raise NumericContractError(
            f"the levels are not finite at dim={spec.dim!r}, h={spec.h!r}, "
            f"half_width={grid.half_width!r}, points={grid.points!r}"
        )
    return energies


def _second_diff(psi: np.ndarray, dx: float) -> np.ndarray:
    padded = np.concatenate(([0.0], psi, [0.0]))  # zero Dirichlet ends (np.pad is several times slower here)
    return (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / dx**2


def _first_diff(psi: np.ndarray, dx: float) -> np.ndarray:
    padded = np.concatenate(([0.0], psi, [0.0]))
    return (padded[2:] - padded[:-2]) / (2.0 * dx)


# a state whose largest |sample| reaches 2**_SAFE_EXPONENT has a squared norm
# beyond the double range; it is scaled by a power of two before the operator
_SAFE_EXPONENT = 512


def _worst_residual(grid: GridSpec, states: Sequence, residual: Callable) -> float:
    """Max over the states (callables of x, or samples) of ||residual(x, psi, dx)|| / ||psi||.

    The ratio is scale-invariant and the residuals are linear, so a state too
    large to square is first divided by the power of two at its largest
    sample (exactly, bar samples that turn sub-normal); every other state is
    used as given, so its residual is unchanged to the bit.
    Refuses, naming the state's index, a non-finite sample (and its first x),
    a negligible norm, and a norm or residual that overflowed."""
    if not states:
        raise ValueError("need at least one test state")
    x, dx = grid.coordinates()
    worst = 0.0
    for index, state in enumerate(states):
        psi = np.asarray(state(x) if callable(state) else state, dtype=complex)
        if psi.shape != x.shape:
            raise ValueError(f"state samples have shape {psi.shape}, expected {x.shape}")
        bad = ~np.isfinite(psi)
        if np.any(bad):
            raise ValueError(f"state {index} is non-finite at x = {float(x[np.argmax(bad)])!r}")
        exponent = math.frexp(float(np.abs(psi).max()))[1]
        shift = exponent if exponent > _SAFE_EXPONENT else 0
        if shift:
            psi = psi * math.ldexp(1.0, -shift)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below, by name
            norm = float(np.linalg.norm(psi))
            unscaled = float(np.ldexp(norm, shift))
            if unscaled * math.sqrt(dx) < 1e-10:
                raise ValueError("state has negligible norm on the grid")
            value = float(np.linalg.norm(residual(x, psi, dx))) / norm
        if not (math.isfinite(norm) and math.isfinite(value)):
            raise NumericContractError(
                f"state {index} overflows on the grid: ||psi|| = {unscaled!r}, residual = {value!r}"
            )
        worst = max(worst, value)
    return worst


def eigenstate_residual(
    grid: GridSpec,
    state: Callable[[np.ndarray], np.ndarray],
    energy: float,
    h: float = 1.0,
) -> float:
    """||H psi - E psi|| / ||psi|| for the discretized H = x^2 - d2 + (h-1)."""
    h = _real("h", h)
    if not np.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy!r}")
    return _worst_residual(
        grid, [state], lambda x, psi, dx: (x * x + (h - 1.0)) * psi - _second_diff(psi, dx) - energy * psi
    )


def ground_state_residual(spec: OscillatorSpec, grid: GridSpec) -> float:
    """Eigen-residual of the Gaussian ground state exp(-x^2/2) at E_0 = h.

    Limited by the second-order discretization; refine the grid to shrink it.
    """
    if spec.dim != 1:
        raise ValueError("the grid solver is one-dimensional")
    return eigenstate_residual(grid, lambda x: np.exp(-x * x / 2.0), spec.h, h=spec.h)


def ladder_identity_residual(
    test_states: Sequence[Callable[[np.ndarray], np.ndarray]],
    grid: GridSpec,
    h: float = 1.0,
) -> float:
    """Worst residual of H psi = 2*zbar_hat(z_hat psi) + h*psi over the states.

    Here H = x^2 - h^2 d^2/dx^2 and z_hat = (x_hat + i*p_hat)/sqrt(2) with
    p_hat = -i*h*d/dx, all applied by central differences; the identity is
    operator-level, so the residual is pure discretization error.
    """
    h = _real("h", h)

    def residual(x, psi, dx):
        h_psi = x * x * psi - h * h * _second_diff(psi, dx)
        z_psi = (x * psi + h * _first_diff(psi, dx)) / math.sqrt(2.0)
        return h_psi - (math.sqrt(2.0) * (x * z_psi - h * _first_diff(z_psi, dx)) + h * psi)

    return _worst_residual(grid, test_states, residual)


_COMMUTATOR_STATES = (
    lambda x: np.exp(-x * x / 2.0),
    lambda x: x * np.exp(-x * x / 2.0),
    lambda x: x * x * np.exp(-x * x / 2.0),
    lambda x: np.cos(x) * np.exp(-x * x / 2.0),
)


def commutator_residual(grid: GridSpec, h: float = 1.0) -> float:
    """Worst canonical-commutator residual over a fixed smooth family.

    Checks ||(x p - p x) psi - i h psi|| / ||psi|| with p = -i*h*d/dx by
    central differences.
    """
    h = _real("h", h)

    def residual(x, psi, dx):
        p_psi = -1j * h * _first_diff(psi, dx)
        p_x_psi = -1j * h * _first_diff(x * psi, dx)
        return x * p_psi - p_x_psi - 1j * h * psi

    return _worst_residual(grid, _COMMUTATOR_STATES, residual)


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
