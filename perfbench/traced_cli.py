"""Run one `berezin` command with the layer wrappers installed.

Usage: python traced_cli.py TRACE_FILE ARGS...  -- behaves like
`python -m berezin ARGS...` and writes the child's spans to TRACE_FILE.
"""

import json
import sys

import berezin.cli

from tracer import Tracer


def main() -> int:
    trace_file, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return berezin.cli.main(args)
    finally:
        with open(trace_file, "w") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())
