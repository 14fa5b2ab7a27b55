"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces every public function of the layer modules (the
names in each module's `__all__` that the module itself defines) with a
timing wrapper, in the module's own namespace and in every `berezin` module
that imported the function by name.  The suites in `verify.SUITES` are
wrapped as `verify.<suite>`.  Nested calls become child spans: a span's self
time is its duration minus the durations of its direct children.

Only the traced run imports this module; the untraced run calls the
program unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "verify", "quadrature", "bergman_space", "semiclassics", "oscillator", "gaussian_calculus")


class Tracer:
    """Counts calls, total and self time per wrapped function."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.rule_orders: set = set()
        self.rule_repeats = 0
        self._children: list[float] = []  # child time accumulated per open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        is_rule = name == "quadrature.gauss_hermite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_rule:
                order = args[0] if args else kwargs.get("order")
                if order in self.rule_orders:
                    self.rule_repeats += 1
                self.rule_orders.add(order)
            children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = children.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if children:
                    children[-1] += elapsed

        return wrapper

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"berezin.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replaced[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "berezin" and not module_name.startswith("berezin."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        suites = importlib.import_module("berezin.verify").SUITES
        for suite, fn in list(suites.items()):
            suites[suite] = self.wrap(f"verify.{suite}", fn)

    def snapshot(self) -> dict:
        return {
            "stats": {name: list(values) for name, values in self.stats.items()},
            "rule_repeats": self.rule_repeats,
        }


def merge(total: dict, part: dict) -> dict:
    """Add the snapshot `part` into `total` (as returned by `snapshot`)."""
    stats = total.setdefault("stats", {})
    for name, values in part["stats"].items():
        acc = stats.setdefault(name, [0, 0.0, 0.0])
        for i, v in enumerate(values):
            acc[i] += v
    total["rule_repeats"] = total.get("rule_repeats", 0) + part["rule_repeats"]
    return total
