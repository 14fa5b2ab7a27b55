"""Run one workload of the benchmark and print its result as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli,oracles,star-algebra} \
        --seed N --seconds S --trace {0,1}

`--trace 0` measures with the program unwrapped and prints the end-to-end
metrics.  `--trace 1` measures the same way, then measures again with every
layer's public functions wrapped, and prints the per-layer metrics.  The
full run record, with per-kind medians and any failures, is written to
perfbench/records/.  The last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from cliload import CHILD_TIMEOUT_S, CliWorkload, child_env, run_child
from harness import SPEC, Measurement, end_to_end, measure, op_summary, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "records"
CLI_SETUPS = 25  # timed `--version` processes per cli run
WORKER_SETUPS = 7  # fresh workers per in-process run; the last one measures
IMPORT_PROBES = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


class BenchmarkError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def _timed_child(argv: list) -> float:
    start = time.perf_counter()
    proc = run_child(argv, ROOT)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def import_times() -> dict:
    """Median time of a fresh import, each in its own interpreter."""
    out = {}
    for module in ("berezin.cli", "scipy.linalg"):
        samples = []
        for _ in range(IMPORT_PROBES):
            proc = run_child([sys.executable, "-c", IMPORT_PROBE.format(module)], ROOT)
            if proc.returncode != 0:
                raise BenchmarkError(f"import {module} failed: {proc.stderr.strip()}")
            samples.append(float(proc.stdout))
        out[module] = statistics.median(samples)
    return out


def run_cli(seed: int, seconds: float, trace: bool) -> dict:
    version = [sys.executable, "-m", "berezin", "--version"]
    _timed_child(version)  # untimed: writes the bytecode cache of a fresh checkout
    setup = [_timed_child(version) for _ in range(CLI_SETUPS)]
    untraced = measure(CliWorkload(seed, ROOT, RECORDS).rotation, seconds)
    run = {
        "setup_s": setup,
        "untraced": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if trace:
        trace_dir = RECORDS / f"trace-cli-seed{seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.glob("child-*.json"):
            old.unlink()
        workload = CliWorkload(seed, ROOT, RECORDS, trace_dir)
        run["traced"] = measure(workload.rotation, seconds, first=untraced.rotations)
        run["spans"] = workload.spans
    return run


def _start_worker(name: str, seed: int) -> tuple[subprocess.Popen, float]:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), name, str(seed)],
        cwd=ROOT, env=child_env(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"{name} worker did not start (exit {proc.returncode})")
    return proc, elapsed


def _finish_worker(proc: subprocess.Popen, request: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(request + "\n", timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}")
    return out


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = []
    for i in range(WORKER_SETUPS):
        proc, elapsed = _start_worker(name, seed)
        setup.append(elapsed)
        if i < WORKER_SETUPS - 1:
            _finish_worker(proc, "exit", CHILD_TIMEOUT_S)
    request = json.dumps({"seconds": seconds, "trace": int(trace)})
    result = json.loads(_finish_worker(proc, request, 4 * seconds + CHILD_TIMEOUT_S).splitlines()[-1])
    run = {
        "setup_s": setup,
        "untraced": Measurement(**result["untraced"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    if trace:
        run["traced"] = Measurement(**result["traced"])
        run["spans"] = result["spans"]
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "berezin" / "__init__.py").is_file():
        sys.stderr.write(f"error: no berezin package under {ROOT / 'src'}\n")
        return 2
    RECORDS.mkdir(exist_ok=True)
    try:
        if args.workload == "cli":
            run = run_cli(args.seed, args.seconds, bool(args.trace))
        else:
            run = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace))
        imports = import_times() if args.trace else None
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    phases = [run["untraced"]] + ([run["traced"]] if args.trace else [])
    summary = op_summary(run["untraced"].samples)
    if args.trace:
        metrics = per_layer(run["untraced"], run["traced"], run["spans"], imports)
    else:
        metrics = end_to_end(summary, run["setup_s"], run["peak_rss_mb"])
    result = {
        "correct": all(m.unexpected == 0 for m in phases),
        "attempted": sum(m.attempted for m in phases),
        "failed": sum(m.failed for m in phases),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "result": result,
        "setup_samples_s": run["setup_s"],
        "op_summary": summary,
        "traced_op_summary": op_summary(run["traced"].samples) if args.trace else None,
        "phases": [{k: v for k, v in asdict(m).items() if k != "samples"} for m in phases],
    }
    out = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
