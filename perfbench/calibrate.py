"""Machine-speed calibration shared by the launcher and the worker.

On a virtual machine that shares its host with other tenants, the speed a
process sees drifts by up to 2x for seconds to minutes at a time (measured
on a 2-vCPU x86-64 VM). A fixed probe, timed next to each measurement,
tracks that drift: a measurement is calibrated by multiplying it by the
probe's reference time over the probe's time around it, which gives the time
it would take on a machine where the probe takes its reference time. Op
latencies use a pure-Python probe chosen by the workload; set-up times,
which are dominated by starting an interpreter, use the time to start one
(the Python probes do not track that cost).
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction

# The time each of the Python probes below takes on a 2-vCPU x86-64 VM
# (2.0 GHz, CPython 3.11) when no other tenant slows it down, and the time
# the interpreter-start probe takes there.
PROBE_REF_S = 0.0006
SPAWN_REF_S = 0.055


def fraction_probe() -> float:
    """Seconds taken by a fixed mix of Fraction, integer and dict work."""
    start = time.perf_counter()
    x, acc, seen = Fraction(1, 3), 0, {}
    for i in range(1, 120):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        acc += math.isqrt(i * 123456789)
        seen[i % 17] = (x, acc)
    return time.perf_counter() - start


def bitmask_probe() -> float:
    """Seconds taken by a fixed GF(2) elimination on 600-bit masks."""
    start = time.perf_counter()
    cleared = range(0, 600, 7)
    basis: dict[int, int] = {}
    for k in range(40):
        mask = ((1 << 600) - 1) // (2 * k + 3)
        for b in cleared:
            mask &= ~(1 << b)
        while mask:
            pivot = mask.bit_length() - 1
            if pivot not in basis:
                basis[pivot] = mask
                break
            mask ^= basis[pivot]
    return time.perf_counter() - start


# Code that spends its time in the interpreter and code that spends it in
# big-integer bit operations slow down by different factors; each workload
# names the probe that matches its hot loop.
PROBES = {"fraction": fraction_probe, "bitmask": bitmask_probe}


def spawn_probe(env: dict) -> float:
    """Seconds to start an interpreter that imports fractions and json."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import fractions, json"], env=env, check=True)
    return time.monotonic() - start
