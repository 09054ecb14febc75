#!/usr/bin/env python3
"""Check that this checkout reproduces every digest of perfbench/reference.json.

Recomputes the output digest of the first round of each (workload, seed)
pair in the reference with ``make_reference.digests``, in a process pool,
prints each pair whose digest differs, and exits 1 if any does (0 if all
match).  It writes nothing.  A change that claims to keep every printed
byte runs it, from the root of a checkout:

    PYTHONHASHSEED=0 python3 tools/check_reference.py
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def main() -> int:
    if len(sys.argv) > 1:
        print("usage: PYTHONHASHSEED=0 python3 tools/check_reference.py (no options)",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("run with PYTHONHASHSEED=0", file=sys.stderr)
        return 2

    sys.path.insert(0, PERFBENCH)
    from make_reference import digests
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = {name: entry["digests"] for name, entry in json.load(fh)["workloads"].items()}
    jobs = os.cpu_count() or 1
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(jobs, mp_context=context) as pool:
        futures = {}
        for name, want in reference.items():
            chunk = -(-len(want) // jobs)
            futures[name] = [pool.submit(digests, name, range(lo, min(lo + chunk, len(want))))
                             for lo in range(0, len(want), chunk)]
        got = {name: [d for f in fs for d in f.result()] for name, fs in futures.items()}

    differ = 0
    for name, want in reference.items():
        for seed, (expected, actual) in enumerate(zip(want, got[name])):
            if actual != expected:
                print(f"{name} seed {seed}: digest {actual}, reference {expected}")
                differ += 1
    total = sum(len(want) for want in reference.values())
    print(f"{total - differ} of {total} digests match perfbench/reference.json")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
