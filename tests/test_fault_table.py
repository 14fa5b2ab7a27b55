"""Fault table: which `verify` checks fail when a known fault is injected.

Each row patches one fault, with `monkeypatch`, onto the module attribute
that `verify` reaches, runs only the suites the row names, and asserts the
exact set of check names that fail.  A row whose fault survives every check
asserts the empty set and names the ROADMAP item meant to catch it: when that
item lands the row fails, and the change updates it to the checks that now
catch the fault.  So a closed gap shows in the diff, and a reopened one fails
here.  The rows are the five faults of the re-anchor probe in ROADMAP
item 20; covering every check is still open there.
"""

import dataclasses

import pytest

from berezin import bergman_space, oscillator, quadrature, verify
from berezin.gaussian_calculus import GaussianSymbol, _half_power


def _wrap(calls, original, fault):
    """`original` with `fault` applied to its result; each call is counted."""

    def patched(*args, **kwargs):
        calls.append(args)
        return fault(original(*args, **kwargs), *args, **kwargs)

    return patched


def _purity_with_squared_lambda(monkeypatch, calls):
    # normalized trace as (alpha / (alpha + 3 lam^2))^(n/2), where lam is right
    def fault(report, lam, q, dim=1):
        return dataclasses.replace(report, normalized_trace=_half_power(q.alpha / (q.alpha + 3.0 * lam**2), dim))

    monkeypatch.setattr(bergman_space, "purity_index", _wrap(calls, bergman_space.purity_index, fault))


def _spectrum_ignoring_dim(monkeypatch, calls):
    original = oscillator.spectrum

    def patched(spec, grid, levels):
        calls.append(spec)
        return original(dataclasses.replace(spec, dim=1), grid, levels)

    monkeypatch.setattr(oscillator, "spectrum", patched)


def _monte_carlo_stderr_tripled(monkeypatch, calls):
    def fault(estimate, *args):
        mean, stderr = estimate
        return mean, 3.0 * stderr

    monkeypatch.setattr(quadrature, "monte_carlo_transform", _wrap(calls, quadrature.monte_carlo_transform, fault))


def _uncertainty_quadrature_is_closed(monkeypatch, calls):
    patched = _wrap(calls, oscillator.uncertainty_report, lambda report, *args: report)
    monkeypatch.setattr(oscillator, "uncertainty_quadrature", patched)


def _closed_amplitude_wrong_from_n2(monkeypatch, calls):
    # at n >= 2 the amplitude takes the n = 1 power (alpha / (alpha + lam))^(1/2)
    original = verify.berezin_transform_closed

    def fault(result, g, q):
        if g.dim < 2:
            return result
        one_dim = original(GaussianSymbol(1, g.amplitude, g.compression), q)
        return dataclasses.replace(result, amplitude=one_dim.amplitude)

    patched = _wrap(calls, original, fault)
    monkeypatch.setattr(verify, "berezin_transform_closed", patched)
    monkeypatch.setattr(bergman_space, "berezin_transform_closed", patched)


# (fault, suites run, failing checks, the ROADMAP item that should catch a surviving fault)
FAULTS = [
    (_purity_with_squared_lambda, ("trace",), set(), 14),
    (_spectrum_ignoring_dim, ("spectrum",), set(), 8),
    (_monte_carlo_stderr_tripled, ("quadrature",), set(), 10),
    (_uncertainty_quadrature_is_closed, ("uncertainty",), set(), 15),
    (
        _closed_amplitude_wrong_from_n2,
        ("theorem1", "trace"),
        {
            f"quadrature-match n={n} lam={lam} alpha={alpha}"
            for n in (2, 3)
            for lam, alpha in ((1.0, 1.0), (0.5, 2.0), (2.0, 5.0))
        },
        None,
    ),
]


@pytest.mark.parametrize("inject,suites,failing,item", FAULTS, ids=[row[0].__name__.strip("_") for row in FAULTS])
def test_fault_fails_exactly_these_checks(monkeypatch, inject, suites, failing, item):
    calls = []
    inject(monkeypatch, calls)
    checks = [c for suite in suites for c in verify.run_suites(suite, seed=7)]
    assert calls, "the fault was patched where verify does not reach"
    failed = {c.name for c in checks if not c.passed}
    survives = f"; ROADMAP item {item} is meant to catch this fault" if item else ""
    assert failed == failing, f"failing checks changed{survives}"
