"""Command-line front end: closed forms with quadrature cross-checks,
parameter sweeps, and verification suites.

Every command prints a single-line JSON run record to stdout; human-readable
tables go to stderr.  Numbers serialize via Python's shortest round-trip
representation, so parsing the record recovers the exact float values.
Exit codes: 0 success, 2 usage error (the library refuses a bad parameter
by name, e.g. alpha = nan or --n 0), 3 numeric-contract violation,
4 internal error.  `transform --numeric`, `trace` and `uncertainty` gate on
the same checks as their `verify` suites, applied to the one input given:
exit 3 means one of them failed (the record is still written, and stderr
names the check).  The bounds are relative 1e-9 for the transform (absolute
where the closed value underflows to 0) and for the normalized trace, 1e-12
for the closed uncertainty ratio and 1e-8 for its quadrature ratio.

The `verify` record intentionally omits the timestamp so that two identical
invocations produce byte-identical JSON; all other commands include an
ISO-8601 UTC timestamp (their determinism contract covers the `results`
field).  The BEREZIN_SEED environment variable supplies the default seed.

Start-up loads only the standard library and the closed forms of
`gaussian_calculus`: each command imports the layers (and numpy) it computes
with inside its own branch, so `--version`, `--help`, a usage error, closed
`transform` and the closed `sweep` quantities on a comma grid never load
numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from .gaussian_calculus import (
    ComplexPoint,
    GaussianSymbol,
    NumericContractError,
    QuantParams,
    berezin_transform_closed,
    taylor_remainder,
)

__all__ = ["RunRecord", "entry", "main", "parse_grid", "parse_point"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3
EXIT_INTERNAL = 4


@dataclass
class RunRecord:
    """One JSON-serializable record per invocation."""

    command: str
    parameters: dict
    results: dict
    seed: int | None = None
    tool_version: str = __version__
    timestamp: str | None = None

    def to_dict(self) -> dict:
        data = {
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "seed": self.seed,
            "tool_version": self.tool_version,
        }
        if self.timestamp is not None:
            data["timestamp"] = self.timestamp
        return data

    def to_json(self) -> str:
        try:
            return json.dumps(self.to_dict(), separators=(",", ":"), allow_nan=False)
        except ValueError as exc:  # a NaN or infinity has no JSON form; name each one
            bad = re.findall(r'"(\w+)": (-?Infinity|NaN)', json.dumps(self.to_dict()))
            names = ", ".join(f"{key} = {float(value)!r}" for key, value in bad)
            raise NumericContractError(f"run record is not finite: {names}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            command=data["command"],
            parameters=data["parameters"],
            results=data["results"],
            seed=data["seed"],
            tool_version=data["tool_version"],
            timestamp=data.get("timestamp"),
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def parse_point(text: str) -> ComplexPoint:
    """Parse 're,im;re,im;...' into a point (one 're,im' pair per coordinate)."""
    coords = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"coordinate {chunk!r} is not of the form re,im")
        coords.append(complex(float(parts[0]), float(parts[1])))
    return ComplexPoint(tuple(coords))


def parse_grid(text: str) -> list[float]:
    """Parse a comma list, 'logspace:a:b:num', or 'linspace:a:b:num'."""
    if text.startswith(("logspace:", "linspace:")):
        kind, start, stop, num = text.split(":")
        count = int(num)
        if count < 1:
            raise ValueError("grid needs at least one value")
        import numpy as np

        fn = np.logspace if kind == "logspace" else np.linspace
        return [float(v) for v in fn(float(start), float(stop), count)]
    return [float(v) for v in text.split(",")]  # '' is one empty item, which float refuses


def _default_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("BEREZIN_SEED")
    return int(env) if env else 0


# -- commands -----------------------------------------------------------------


def cmd_transform(args) -> tuple[RunRecord, list]:
    q = QuantParams(args.alpha)
    symbol = GaussianSymbol(dim=args.n, amplitude=args.amplitude, compression=args.lam)
    closed = berezin_transform_closed(symbol, q)
    results = {"lambda_prime": closed.compression, "amplitude_prime": closed.amplitude}
    checks = []
    if args.numeric is not None:
        from . import verify

        point = parse_point(args.at) if args.at else ComplexPoint.origin(args.n)
        numeric, reference, deviation, check = verify.transform_check(symbol, point, q, order=args.numeric)
        results["numeric_value"] = {"re": numeric.real, "im": numeric.imag}
        results["closed_value_at_point"] = reference
        results["deviation"] = deviation
        results["relative_deviation"] = check.value
        checks.append(check)
    return RunRecord(
        command="transform",
        parameters={
            "n": args.n,
            "lambda": args.lam,
            "alpha": args.alpha,
            "amplitude": args.amplitude,
            "numeric": args.numeric,
            "at": args.at,
        },
        results=results,
        timestamp=_now(),
    ), checks


def cmd_trace(args) -> tuple[RunRecord, list]:
    from . import verify

    report, numeric, deviation, check = verify.trace_check(args.lam, QuantParams(args.alpha), args.n)
    return RunRecord(
        command="trace",
        parameters={"n": args.n, "lambda": args.lam, "alpha": args.alpha},
        results={
            "normalized_trace": report.normalized_trace,
            "raw_trace": report.raw_trace,
            "normalized_trace_numeric": numeric,
            "deviation": deviation,
            "relative_deviation": check.value,
        },
        timestamp=_now(),
    ), [check]


def cmd_uncertainty(args) -> tuple[RunRecord, list]:
    from . import verify

    closed, numeric, checks = verify.uncertainty_checks(args.lam, args.K)
    return RunRecord(
        command="uncertainty",
        parameters={"lambda": args.lam, "K": args.K},
        results={
            "var_x": closed.var_x,
            "var_p": closed.var_p,
            "rhs": closed.rhs,
            "ratio": closed.ratio,
            "norm_sq": closed.norm_sq,
            "var_x_normalized": closed.var_x_normalized,
            "var_p_normalized": closed.var_p_normalized,
            "ratio_quadrature": numeric.ratio,
        },
        timestamp=_now(),
    ), checks


_SWEEP_QUANTITIES = (
    "normalized_trace",
    "lambda_prime",
    "amplitude_prime",
    "taylor_remainder",
    "expansion_residual",
)


def _sweep_value(quantity: str, n: int, lam: float, alpha: float) -> float:
    q = QuantParams(alpha)
    if quantity == "normalized_trace":
        from . import bergman_space

        return bergman_space.purity_index(lam, q, dim=n).normalized_trace
    symbol = GaussianSymbol(dim=n, amplitude=1.0, compression=lam)
    if quantity == "lambda_prime":
        return berezin_transform_closed(symbol, q).compression
    if quantity == "amplitude_prime":
        return berezin_transform_closed(symbol, q).amplitude
    if quantity == "taylor_remainder":
        return taylor_remainder(symbol, q, (0.3 + 0j,) * n)
    raise ValueError(f"unknown quantity {quantity!r}")


def cmd_sweep(args) -> tuple[RunRecord, list]:
    lambdas = parse_grid(args.lambdas) if args.lambdas else [args.lam]
    alphas = parse_grid(args.alphas) if args.alphas else [args.alpha]
    # the library validates every grid value; rows are complete before the CSV opens
    results: dict = {}
    rows: list[list] = []
    header = ["lambda", "alpha", "n", args.quantity]
    if args.quantity == "expansion_residual":
        # one residual row per alpha; the slope goes into the record
        if len(alphas) < 3:  # refused by the quantity asked for: the default --alpha is a single value
            raise ValueError(f"quantity expansion_residual must be swept over at least three alpha values "
                             f"(--alphas), got {len(alphas)}")
        from . import semiclassics

        grid = [(x,) * args.n for x in (0j, 0.3 + 0j, 0.7 + 0j)]
        for lam in lambdas:
            symbol = GaussianSymbol(dim=args.n, amplitude=1.0, compression=lam)
            report = semiclassics.expansion_check(symbol, alphas, grid)
            for alpha, residual in zip(report.alphas, report.residual_norms):
                rows.append([lam, alpha, args.n, residual])
            results[f"slope_lambda_{lam}"] = report.fitted_slope
    else:
        for lam in lambdas:
            for alpha in alphas:
                rows.append([lam, alpha, args.n, _sweep_value(args.quantity, args.n, lam, alpha)])

    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])

    results.update({"rows": len(rows), "out": args.out, "last_value": rows[-1][-1]})
    return RunRecord(
        command="sweep",
        parameters={
            "quantity": args.quantity,
            "n": args.n,
            "lambdas": args.lambdas or repr(args.lam),
            "alphas": args.alphas or repr(args.alpha),
            "out": args.out,
        },
        results=results,
        timestamp=_now(),
    ), []


# the `verify --suite` choices, listed here so that building the parser does
# not import `verify` (a test pins them to `verify.SUITES`)
_SUITES = ("theorem1", "trace", "heat", "expansion", "star", "uncertainty", "spectrum", "quadrature")


def cmd_verify(args) -> tuple[RunRecord, list]:
    from . import verify

    seed = _default_seed(args)
    checks = verify.run_suites(args.suite, seed=seed)
    all_passed = all(c.passed for c in checks)
    width = max(len(c.name) for c in checks)
    sys.stderr.write(f"{'suite':<12} {'check':<{width}} {'status':<6} value / bound\n")
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        sys.stderr.write(f"{c.suite:<12} {c.name:<{width}} {status:<6} {c.value:.3e} / {c.bound:.3e}\n")
    sys.stderr.write(f"{'all suites passed' if all_passed else 'FAILURES PRESENT'}\n")
    return RunRecord(
        command="verify",
        parameters={"suite": args.suite},
        results={
            "checks": [c.as_dict() for c in checks],
            "passed": sum(1 for c in checks if c.passed),
            "failed": sum(1 for c in checks if not c.passed),
            "all_passed": all_passed,
        },
        seed=seed,
        timestamp=None,  # byte-identical output for identical invocations
    ), checks


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berezin",
        description="Gaussian-state quantization toolkit: closed forms, quadrature oracles, sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_transform = sub.add_parser("transform", help="closed-form smoothing transform of a Gaussian symbol")
    p_transform.add_argument("--n", type=int, default=1, help="complex dimension")
    p_transform.add_argument("--lambda", dest="lam", type=float, required=True)
    p_transform.add_argument("--alpha", type=float, required=True)
    p_transform.add_argument("--amplitude", type=float, default=1.0)
    p_transform.add_argument("--numeric", type=int, metavar="ORDER", default=None,
                             help="also evaluate by centred Gauss-Hermite quadrature at this rule order")
    p_transform.add_argument("--at", default=None, metavar="POINT",
                             help="evaluation point 're,im;re,im;...' (default: origin)")
    p_transform.set_defaults(handler=cmd_transform)

    p_trace = sub.add_parser("trace", help="normalized trace of the squared transformed symbol")
    p_trace.add_argument("--n", type=int, default=1)
    p_trace.add_argument("--lambda", dest="lam", type=float, required=True)
    p_trace.add_argument("--alpha", type=float, required=True)
    p_trace.set_defaults(handler=cmd_trace)

    p_unc = sub.add_parser("uncertainty", help="variance identity of the compressed Gaussian state")
    p_unc.add_argument("--lambda", dest="lam", type=float, required=True)
    p_unc.add_argument("--K", type=float, default=1.0, help="amplitude")
    p_unc.set_defaults(handler=cmd_uncertainty)

    p_sweep = sub.add_parser("sweep", help="tabulate a quantity over parameter grids (CSV)")
    p_sweep.add_argument("--quantity", choices=_SWEEP_QUANTITIES, required=True)
    p_sweep.add_argument("--n", type=int, default=1)
    p_sweep.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_sweep.add_argument("--alpha", type=float, default=1.0)
    p_sweep.add_argument("--lambdas", default=None, help="grid: '0.5,1,2' or 'logspace:a:b:num'")
    p_sweep.add_argument("--alphas", default=None, help="grid: '1,10' or 'logspace:0:6:13'")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the oracle-equivalence suites")
    p_verify.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for randomized checks (default: BEREZIN_SEED or 0)")
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, checks = args.handler(args)
        sys.stdout.write(record.to_json() + "\n")
    except NumericContractError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONTRACT
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    failed = [c for c in checks if not c.passed]
    for c in failed if args.handler is not cmd_verify else ():  # verify tabulates its own
        sys.stderr.write(f"error: {c.suite} check '{c.name}' failed: {c.value:.3e} > {c.bound:.3e}\n")
    return EXIT_CONTRACT if failed else EXIT_OK


def entry() -> None:
    sys.exit(main())
