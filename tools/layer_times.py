#!/usr/bin/env python3
"""Best-of-N times of place, deliver and verify_decode on worst-case demands.

For K = 8 and 10 it places a library of N = K files on K caches at memory
M = 2, delivers the worst-case demand vector and checks the transcript, 300
times, with the garbage collector off as ``timeit`` does.  It prints the
best time of each of the three and the best total of one repetition, in ms.
It uses the standard library only and writes nothing.  From the root of a
checkout:

    python3 tools/layer_times.py

Run two checkouts one after the other, more than once, to compare them.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from cachelab.single_level import deliver, place, verify_decode, worst_case_demands  # noqa: E402

CACHES = (8, 10)
MEMORY = Fraction(2)
REPEAT = 300
COLUMNS = ("place", "deliver", "verify_decode", "sum")


def layer_times(K: int, M: Fraction, repeat: int) -> dict[str, float]:
    """Best seconds of each layer and of one whole repetition at K = N."""
    demands = worst_case_demands(K, K)
    best = dict.fromkeys(COLUMNS, float("inf"))
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = clock()
            placement = place(K, K, M)
            t1 = clock()
            transcript = deliver(placement, demands)
            t2 = clock()
            if not verify_decode(placement, transcript, demands):
                raise RuntimeError(f"K = {K}: the transcript does not decode")
            t3 = clock()
            for name, seconds in zip(COLUMNS, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                best[name] = min(best[name], seconds)
    finally:
        if enabled:
            gc.enable()
    return best


def main() -> None:
    print(f"best of {REPEAT}, M = {MEMORY}, worst-case demands, times in ms")
    print(f"{'K = N':>5}" + "".join(f"{name:>15}" for name in COLUMNS))
    for K in CACHES:
        best = layer_times(K, MEMORY, REPEAT)
        print(f"{K:>5}" + "".join(f"{best[name] * 1e3:>15.3f}" for name in COLUMNS))


if __name__ == "__main__":
    main()
