"""Traced CLI child process for the cli_cold workload.

    python -X importtime perfbench/cli_shim.py TRACE_OUT ARG...

Imports ``fdprisk.cli`` (src must be on PYTHONPATH), wraps the public
functions of every fdprisk layer, runs ``cli.main(ARG...)``, writes the trace
as JSON to TRACE_OUT and exits with main's exit code. An exception escapes
with its traceback, as it would from ``python -m fdprisk.cli``.
"""

import json
import sys
import time

import fdprisk.cli

t_imported = time.monotonic()

import tracer  # noqa: E402  (after the timed import of fdprisk)

trace_out, argv = sys.argv[1], sys.argv[2:]
tr = tracer.Tracer()
tr.install()
try:
    code = fdprisk.cli.main(argv)
finally:
    tr.uninstall()
    dump = tr.dump()
    dump["t_imported"] = t_imported
    with open(trace_out, "w") as fh:
        json.dump(dump, fh)
sys.exit(code)
