"""Verified toolkit for coherent-state quantization of Gaussian states on C^n.

Closed-form transforms, trace/purity functionals, star-product algebra,
the oscillator's spectrum and uncertainty equality, and an independent
Gauss-Hermite / Monte-Carlo oracle for every closed form.

The namespace is lazy: `import berezin` loads no layer (and so no
numpy).  The first access to an exported name, or to one of the
layer modules below, imports its home module and caches the name here.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports through the package
_EXPORTS = {
    "gaussian_calculus": (
        "ComplexPoint",
        "GaussianSymbol",
        "QuantParams",
        "as_point",
        "berezin_transform_closed",
        "evaluate",
        "gaussian_moment",
        "heat_evolve",
        "taylor_remainder",
    ),
    "semiclassics": (
        "BRACKET_NORMALIZATION",
        "ExpansionReport",
        "PolynomialSymbol",
        "c_term",
        "expansion_check",
        "poisson_bracket",
        "quantization_condition_residual",
        "wick_star",
    ),
    "bergman_space": (
        "TraceReport",
        "purity_index",
        "trace",
        "trace_numeric",
    ),
    "quadrature": (
        "MonteCarloConfig",
        "QuadratureRule1D",
        "berezin_transform_numeric",
        "gauss_hermite",
        "integrate",
        "monte_carlo_transform",
    ),
    "oscillator": (
        "GridSpec",
        "OscillatorSpec",
        "UncertaintyReport",
        "spectrum",
        "uncertainty_quadrature",
        "uncertainty_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a layer module; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
