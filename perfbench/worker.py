"""Worker process of the in-process workloads.

Usage: python worker.py WORKLOAD SEED.  The worker imports `berezin` and
`berezin.cli`, builds the workload, runs one untimed operation of each kind
and prints `ready`.  It then reads one line from stdin: `exit`, or a JSON
object {"seconds": S, "trace": 0|1}.  On the latter it measures for S
seconds and, with trace 1, measures again for S seconds with the layer
wrappers installed; its last stdout line is the JSON result.
"""

import json
import resource
import sys
from dataclasses import asdict

import berezin
import berezin.cli  # noqa: F401  (part of set-up, as for a CLI user)

from harness import measure
from workloads import IN_PROCESS


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = IN_PROCESS[name](seed)
    for op in workload.warmup():
        op.call()
    print("ready", flush=True)
    request = sys.stdin.readline().strip()
    if request == "exit":
        return 0
    request = json.loads(request)
    untraced = measure(workload.rotation, request["seconds"])
    result = {"untraced": asdict(untraced)}
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        # the traced phase continues the rotation sequence, so it repeats no input
        result["traced"] = asdict(measure(workload.rotation, request["seconds"], first=untraced.rotations))
        result["spans"] = tracer.snapshot()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
