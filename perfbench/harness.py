"""Closed-loop measurement, run-record metrics and their names.

A workload is a function `rotation(r) -> list[Op]`.  `measure` runs whole
rotations, one operation at a time, until both the run length has passed
and at least `min_ops` operations were attempted, so every run attempts
whole rounds of the same operations.  Only the program call is timed; the
benchmark's own reference and checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Checks whose worst error over the passing operations is a per-layer metric.
ACCURACY = (
    "quadrature.transform.rel_err",
    "bergman_space.trace.rel_err",
    "semiclassics.wick_star.rel_err",
    "oscillator.spectrum.abs_err",
)

VERIFY_SUITES = ("theorem1", "trace", "heat", "expansion", "star", "uncertainty", "spectrum", "quadrature")

# Metric names and units come from BENCHMARK.json; per-layer counts and
# times are per rotation of the traced phase.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_TAIL_SAMPLES = 10
MIN_OPS = 40  # the smallest run that has a tail percentile


def random_point(rng, n: int) -> list:
    """n coordinates drawn uniformly from the disc of radius 0.7, from the
    numpy Generator `rng`."""
    radius = [0.7 * math.sqrt(u) for u in rng.uniform(0.0, 1.0, n)]
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    return [complex(r * math.cos(a), r * math.sin(a)) for r, a in zip(radius, angle)]


@dataclass
class Op:
    """One program call and the checks on its result.

    `check(result)` returns (label, error, tolerance) triples; the operation
    passes when every error is within its tolerance.  `known_fault` marks an
    operation that fails on today's program because of a documented fault.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False


@dataclass
class Measurement:
    samples: list = field(default_factory=list)  # [kind, seconds] per operation
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # failed operations that are not known faults
    failures: list = field(default_factory=list)  # first few failure reports
    accuracy: dict = field(default_factory=lambda: {name: 0.0 for name in ACCURACY})
    rotations: int = 0
    wall_s: float = 0.0

    def record(self, op: Op, seconds: float, result, error: Exception | None) -> None:
        self.attempted += 1
        self.samples.append([op.kind, seconds])
        if error is not None:
            outcome = [(f"raised {type(error).__name__}: {error}", math.inf, 0.0)]
        else:
            try:
                outcome = op.check(result)
            except Exception as exc:  # a malformed result fails the operation
                outcome = [(f"check raised {type(exc).__name__}: {exc}", math.inf, 0.0)]
        bad = [(label, err, tol) for label, err, tol in outcome if not err <= tol]
        if bad:
            self.failed += 1
            self.unexpected += not op.known_fault
            if len(self.failures) < 20:
                self.failures.append({"kind": op.kind, "rotation": self.rotations, "checks": repr(bad)})
            return
        for label, err, _ in outcome:
            if label in self.accuracy:
                self.accuracy[label] = max(self.accuracy[label], err)


def measure(rotation: Callable[[int], list], seconds: float, min_ops: int = MIN_OPS, first: int = 0) -> Measurement:
    """Run whole rotations, starting at rotation `first`, until `seconds`
    have passed and `min_ops` operations ran."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        for op in rotation(first + m.rotations):
            error = result = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising operation is a failed operation
                error = exc
            m.record(op, time.perf_counter() - t0, result, error)
        m.rotations += 1
        m.wall_s = time.perf_counter() - start
        if m.wall_s >= seconds and m.attempted >= min_ops:
            return m


def percentile(values: list, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    if count < MIN_OPS:
        return None
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES:
            return p
    return None


def op_summary(samples: list) -> dict:
    """Median op time, the tail percentile, throughput and per-kind medians."""
    times = [s for _, s in samples]
    tail_p = tail_percentile(len(times))
    kinds: dict = {}
    for kind, s in samples:
        kinds.setdefault(kind, []).append(s)
    return {
        "count": len(times),
        "p50": statistics.median(times),
        "tail_percentile": tail_p,
        "tail": percentile(times, tail_p) if tail_p is not None else None,
        "ops_per_s": len(times) / sum(times),
        "kind_median_s": {kind: statistics.median(v) for kind, v in sorted(kinds.items())},
    }


def end_to_end(summary: dict, setup_times: list, peak_rss_mb: float) -> dict:
    values = {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": summary["p50"],
        "op_s.tail": summary["tail"],
        "ops_per_s": summary["ops_per_s"],
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(untraced: Measurement, traced: Measurement, snapshot: dict, imports: dict) -> dict:
    """Per-layer metrics: span counts and times per rotation of the traced
    phase, fresh-import times, worst accuracy and the tracing overhead."""
    stats = snapshot["stats"]
    per_rotation = 1.0 / traced.rotations

    def span(name: str) -> list:
        return stats.get(name, [0, 0.0, 0.0])

    values = {
        "cli.import_s": imports["berezin.cli"],
        "cli.scipy_import_s": imports["scipy.linalg"],
        "gaussian_calculus.self_s": per_rotation * sum(v[2] for k, v in stats.items() if k.startswith("gaussian_calculus.")),
        "trace.overhead": op_summary(untraced.samples)["ops_per_s"] / op_summary(traced.samples)["ops_per_s"],
    }
    for suite in VERIFY_SUITES:
        values[f"verify.{suite}_s"] = per_rotation * span(f"verify.{suite}")[1]
    for name in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = per_rotation * span(name[: -len(".calls")])[0]
        elif name.endswith(".self_s") and name not in values:
            values[name] = per_rotation * span(name[: -len(".self_s")])[2]
    rule_calls = span("quadrature.gauss_hermite")[0]
    values["quadrature.gauss_hermite.repeat_share"] = snapshot["rule_repeats"] / rule_calls if rule_calls else 0.0
    for name in ACCURACY:
        values[name] = max(untraced.accuracy[name], traced.accuracy[name])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
