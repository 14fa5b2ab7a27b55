"""Run two sets of benchmark runs on the same commit and compare them.

Usage (from the repository root):

    python3 perfbench/steadiness.py

Each set runs `perfbench/run.py --trace 0` once per seed for every workload
in BENCHMARK.json: set A with seeds 1..10, then set B with seeds 11..20,
with the run length from BENCHMARK.json.  For each workload and end-to-end metric it
prints both medians and quartiles, the spread (q3 - q1) / median of each set
against the metric's bound, and whether B's median is within the bound of
A's in the worse direction.  Both sets must also fail the same share of
operations.  The full table is written to perfbench/records/steadiness.json.
Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import SPEC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per set


def run_once(command: list, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def describe(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    command = SPEC["command"]
    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"]
    report, ok = {}, True
    print(f"{'workload':<13} {'metric':<12} {'A median':>11} {'A q1..q3':>23} {'B median':>11} "
          f"{'B q1..q3':>23} {'A spr':>6} {'B spr':>6} {'shift':>7} {'bound':>6}  ok")
    for workload in workloads:
        sets = []
        for first_seed in (1, RUNS + 1):
            results = [run_once(command, workload, seed, SPEC["run_seconds"]) for seed in range(first_seed, first_seed + RUNS)]
            sets.append(results)
            print(f"# {workload}: set of seeds {first_seed}..{first_seed + RUNS - 1} done", file=sys.stderr, flush=True)
        shares = [sorted({r["failed"] / r["attempted"] for r in results}) for results in sets]
        same_share = len(shares[0]) == 1 and shares[0] == shares[1]
        ok &= same_share and all(r["correct"] for results in sets for r in results)
        rows = {}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a, b = (describe([r["metrics"][name]["value"] for r in results]) for results in sets)
            shift = (b["median"] - a["median"]) / a["median"]
            worse = shift if metric["better"] == "lower" else -shift
            row_ok = a["spread"] <= bound and b["spread"] <= bound and worse <= bound
            ok &= row_ok
            rows[name] = {"A": a, "B": b, "shift": shift, "bound": bound, "ok": row_ok}
            print(f"{workload:<13} {name:<12} {a['median']:>11.5g} {a['q1']:>11.5g}..{a['q3']:<11.5g} "
                  f"{b['median']:>11.5g} {b['q1']:>11.5g}..{b['q3']:<11.5g} {a['spread']:>6.3f} "
                  f"{b['spread']:>6.3f} {shift:>+7.3f} {bound:>6.2f}  {'yes' if row_ok else 'NO'}")
        print(f"{workload:<13} failed share A {shares[0]} B {shares[1]}: {'same' if same_share else 'DIFFERENT'}")
        report[workload] = {"metrics": rows, "failed_share": shares, "same_failed_share": same_share}
    (HERE / "records").mkdir(exist_ok=True)
    (HERE / "records" / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
