"""Set-up probe: a fresh interpreter imports fdprisk, runs one warm-up op of
the workload and prints READY. The parent times spawn to READY, so imports
deferred to first use still count.

    PYTHONPATH=src python perfbench/probe.py WORKLOAD
"""

import sys

import fdprisk  # noqa: F401

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]]().warmup()
print("READY", flush=True)
