"""Run the CLI under the span tracer: cli_traced.py SPANS_FILE <cli args>.

Used by the traced cli-commands run in place of `python -m
toric_surface_lab.cli`.  Writes the spans and lru-cache counts of this process
as one JSON object to SPANS_FILE, then exits with the CLI's exit code.
"""

import json
import sys

from tracer import Tracer

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from toric_surface_lab import cli

    tracer.op = 0
    code = cli.main(argv)
    tracer.op = None
    with open(spans_path, "w") as handle:
        json.dump({"spans": tracer.spans, "cache": tracer.cache_counts()}, handle)
    sys.exit(code)
