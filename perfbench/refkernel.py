"""Reference kernel of HostSpeed (run.py), in a process of its own.

    python3 perfbench/refkernel.py

For each line read from stdin it runs the kernel three times and writes the
best time in seconds as one line. In a process of its own, nothing the
benchmarked program leaves in its process, such as compose_query's heap of
over 1 GB, can change the kernel's time.
"""

import math
import sys
import time

import numpy as np


def kernel(array) -> float:
    """An interpreted float loop, then numpy passes over a 1 MiB array.
    Over three minutes of a shared 2-vCPU VM's changes of speed, an fdprisk
    calibration and a CLI call slowed by about the kernel's factor (0.9 to
    1.1 times it, on a log scale), a composed curve by more."""
    s = 0.0
    for i in range(20000):
        s += i * 1.0000001
    for _ in range(8):
        array = np.sqrt(array * array + 1.0)
    return s + float(array[-1])


def main() -> None:
    array = np.linspace(0.0, 1.0, 1 << 17)
    for _ in sys.stdin:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            kernel(array)
            best = min(best, time.perf_counter() - t0)
        print(repr(best), flush=True)


if __name__ == "__main__":
    main()
