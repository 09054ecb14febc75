#!/usr/bin/env python3
"""Regenerate reference.json: the output digest of each seed's first round.

A run compares the digest of the ops of its first round with the digest
stored here for its seed (seeds 0 to SEEDS-1). Regenerate only when
cachelab's outputs change on purpose, from the root of a checkout:

    PYTHONHASHSEED=0 python3 perfbench/make_reference.py

The file also records where the digests were made: the git commit, the
Python version, the CPU count, and each workload's round size.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 256


def digests(workload_name: str, seeds: range) -> list[str]:
    sys.path.insert(0, HERE)
    from worker import WORKLOADS, Loop   # worker puts this checkout's src on sys.path
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            workload = WORKLOADS[workload_name](seed, workdir)
            loop = Loop(workload)
            for op in workload.round(0):
                loop.run_op(op)
            if loop.problems or loop.check_digest is None:
                raise RuntimeError(f"{workload_name} seed {seed}: {loop.problems}")
            out.append(loop.check_digest)
    return out


def _git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=os.path.dirname(HERE),
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0" or "CACHELAB_PRECISION_BITS" in os.environ:
        print("run with PYTHONHASHSEED=0 and CACHELAB_PRECISION_BITS unset", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    from worker import WORKLOADS
    jobs = os.cpu_count() or 1
    chunk = -(-SEEDS // jobs)
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(jobs, mp_context=context) as pool:
        futures = {name: [pool.submit(digests, name, range(lo, min(lo + chunk, SEEDS)))
                          for lo in range(0, SEEDS, chunk)]
                   for name in WORKLOADS}
        results = {name: [d for f in fs for d in f.result()] for name, fs in futures.items()}

    reference = {
        "provenance": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seeds": f"0..{SEEDS - 1}",
        },
        "workloads": {
            name: {"round_ops": w.round_ops, "why": w.why, "digests": results[name]}
            for name, w in WORKLOADS.items()
        },
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
