"""The benchmark's own references, written from the paper's formulas.

Nothing here imports `berezin`: every value the workloads check the program
against is computed from scratch, so a change in the program can never
change its own reference.

Symbols are g(z) = A * exp(-lam * sum_j (Re z_j)^2) on C^n with weight
(alpha/pi)^n exp(-alpha |z|^2).
"""

from __future__ import annotations

import math
from itertools import product


def lambda_prime(lam: float, alpha: float) -> float:
    """Width map of the smoothing transform: lam -> alpha*lam/(alpha+lam)."""
    return alpha * lam / (alpha + lam)


def amplitude_factor(n: int, lam: float, alpha: float) -> float:
    """Amplitude factor (alpha/(alpha+lam))^(n/2) of the transform."""
    return (alpha / (alpha + lam)) ** (n / 2)


def transform_value(n: int, amplitude: float, lam: float, alpha: float, z: list[complex]) -> float:
    """Transformed Gaussian symbol evaluated at the point z in C^n."""
    real_sq = sum(c.real * c.real for c in z)
    return amplitude * amplitude_factor(n, lam, alpha) * math.exp(-lambda_prime(lam, alpha) * real_sq)


def trace_value(n: int, amplitude: float, lam: float, alpha: float) -> float:
    """Inner-product trace A * (alpha/(alpha+lam))^(n/2) of a Gaussian symbol."""
    return amplitude * amplitude_factor(n, lam, alpha)


def normalized_trace(n: int, lam: float, alpha: float) -> float:
    """Purity index (alpha/(alpha+3*lam))^(n/2) of the squared transform."""
    return (alpha / (alpha + 3.0 * lam)) ** (n / 2)


def hermite_moment(k: int) -> float:
    """int t^k exp(-t^2) dt over R for even k, i.e. Gamma((k+1)/2)."""
    return math.gamma((k + 1) / 2)


def oscillator_levels(h: float, levels: int) -> list[float]:
    """Lowest levels 2j + h of the one-dimensional oscillator."""
    return [2.0 * j + h for j in range(levels)]


def monomial_star(f_terms, g_terms, alpha: float) -> dict:
    """Normal-ordered star product of two polynomials given as term lists.

    Each term is (beta, gamma, coeff) for coeff * z^beta * conj(z)^gamma.
    Monomials multiply by

        z^b1 zbar^g1 * z^b2 zbar^g2
            = sum_{k <= min(b1, g2)} alpha^(-|k|) k! C(b1,k) C(g2,k)
              z^(b1+b2-k) zbar^(g1+g2-k),

    with k!, C(b1,k) and C(g2,k) products over the coordinates.  Returns
    {(beta, gamma): coeff} with zero coefficients dropped.
    """
    out: dict = {}
    for b1, g1, c1 in f_terms:
        for b2, g2, c2 in g_terms:
            ranges = [range(min(x, y) + 1) for x, y in zip(b1, g2)]
            for k in product(*ranges):
                weight = 1.0
                for kj, bj, gj in zip(k, b1, g2):
                    weight *= math.factorial(kj) * math.comb(bj, kj) * math.comb(gj, kj)
                key = (
                    tuple(x + y - kj for x, y, kj in zip(b1, b2, k)),
                    tuple(x + y - kj for x, y, kj in zip(g1, g2, k)),
                )
                out[key] = out.get(key, 0j) + c1 * c2 * weight * alpha ** (-sum(k))
    return {key: c for key, c in out.items() if c != 0}


def first_order_scale(f_terms, g_terms) -> float:
    """Upper bound on the coefficients of C_1(f, g) - C_1(g, f): the sums of
    |coeff| * degree over each factor, multiplied, and never below 1."""

    def weight(terms):
        return sum(abs(c) * (sum(b) + sum(g)) for b, g, c in terms)

    return max(1.0, weight(f_terms) * weight(g_terms))


def coefficient_rel_diff(got: dict, want: dict) -> float:
    """max |got - want| over all monomials, relative to max |want|."""
    scale = max((abs(c) for c in want.values()), default=0.0) or 1.0
    keys = set(got) | set(want)
    return max((abs(got.get(k, 0j) - want.get(k, 0j)) for k in keys), default=0.0) / scale


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)
