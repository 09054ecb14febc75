#!/usr/bin/env python3
"""Turn paired perfbench runs into a BENCH_<pr>.json file.

Each input file is the standard output of one ``perfbench/run.py`` run, whose
last line is the JSON result.  The runs directory holds one subdirectory per
workload:

    runs/decode-sim/0-parent.out      run.py --trace 0 in the parent's checkout
    runs/decode-sim/0-change.out      the same command in the change's checkout
    ...                               pairs 1, 2, ...; alternate which side runs first
    runs/decode-sim/trace-parent.out  run.py --trace 1, one run per side
    runs/decode-sim/trace-change.out

Then, from the root of the change's checkout, before committing it:

    python3 tools/bench_file.py runs --pr N --change "what changed" --seconds 18

writes BENCH_N.json.  For every workload and end-to-end metric it records
each side's median and quartiles and the number of pairs the change wins,
with each metric's better direction taken from BENCHMARK.json; for the
traced runs, every per-layer metric that is non-zero on either side.  The
parent's git sha is the checkout's HEAD, the parent of the change about to
be committed.

A claimed gain must also hold on a seed that was not used while the change
was written.  ``--holdout DIR`` reads paired runs on that seed, laid out as
above, and records them under ``holdout`` the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
METHOD = ("{pairs} pairs per workload, the side that runs first alternating; each side's "
          "median and quartiles (statistics.quantiles, n=4) of the reported values; "
          "change_wins_of_pairs counts pairs where the change reads better")


def read_run(path: str) -> dict:
    """The JSON result of one run.py output, plus the seed from its first line."""
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty output")
    result = json.loads(lines[-1])
    seed = re.match(r"workload \S+, seed (\d+):", lines[0])
    result["seed"] = int(seed.group(1)) if seed else None
    return result


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def end_to_end(pairs: list[dict], better: dict) -> dict:
    """Medians, quartiles and pair wins of each end-to-end metric."""
    out = {"seed": pairs[0]["parent"]["seed"], "pairs": len(pairs)}
    for side in SIDES:
        runs = [pair[side] for pair in pairs]
        entry = {name: _summary([run["metrics"][name]["value"] for run in runs])
                 for name in better}
        entry["correct_runs"] = sum(1 for run in runs if run["correct"])
        entry["failed_ops"] = sum(run["failed"] for run in runs)
        out[side] = entry
    wins = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        wins[name] = sum(1 for pair in pairs
                         if sign * (pair["change"]["metrics"][name]["value"]
                                    - pair["parent"]["metrics"][name]["value"]) > 0)
    out["change_wins_of_pairs"] = wins
    return out


def per_layer(traced: dict) -> dict:
    """Each side's per-layer metrics that are non-zero on either side."""
    names = [name for name in traced["parent"]["metrics"]
             if any(traced[side]["metrics"].get(name, {}).get("value") for side in SIDES)]
    return {side: {name: round(traced[side]["metrics"][name]["value"], 6) for name in names}
            for side in SIDES}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cpu": cpu, "nproc": os.cpu_count(), "memory_gb": round(memory / 2**30),
            "os": f"{platform.system()} {platform.machine()}"}


def git_head() -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _one(values: set, what: str):
    if len(values) != 1:
        raise ValueError(f"the {what} runs use seeds {sorted(values, key=str)}, not one seed")
    return values.pop()


def bench_file(runs_dir: str, change: str, seconds: float, parent_sha: str,
               holdout_dir: str | None = None) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    e2e, layers, seeds, trace_seeds, pair_counts = {}, {}, set(), set(), set()
    for workload in sorted(os.listdir(runs_dir)):
        folder = os.path.join(runs_dir, workload)
        if not os.path.isdir(folder):
            continue
        keys = sorted({name.split("-", 1)[0] for name in os.listdir(folder)
                       if re.fullmatch(r"\d+-(parent|change)\.out", name)}, key=int)
        if keys:
            pairs = [{side: read_run(os.path.join(folder, f"{k}-{side}.out")) for side in SIDES}
                     for k in keys]
            e2e[workload] = end_to_end(pairs, better)
            seeds.update(pair[side]["seed"] for pair in pairs for side in SIDES)
            pair_counts.add(len(pairs))
        if all(os.path.exists(os.path.join(folder, f"trace-{side}.out")) for side in SIDES):
            traced = {side: read_run(os.path.join(folder, f"trace-{side}.out"))
                      for side in SIDES}
            layers[workload] = per_layer(traced)
            trace_seeds.update(run["seed"] for run in traced.values())
    if not e2e:
        raise ValueError(f"no paired runs under {runs_dir}")
    out = {
        "change": change,
        "parent_git_sha": parent_sha,
        "change_git_sha": "the commit that adds this file",
        "machine": machine(),
        "python": platform.python_version(),
        "command": (f"python3 perfbench/run.py --workload W --seed {_one(seeds, 'paired')} "
                    f"--seconds {seconds:g} --trace 0"),
        "method": METHOD.format(pairs="/".join(str(n) for n in sorted(pair_counts))),
        "end_to_end": e2e,
    }
    if layers:
        out["per_layer"] = {
            "command": (f"python3 perfbench/run.py --workload W "
                        f"--seed {_one(trace_seeds, 'traced')} --seconds {seconds:g} "
                        f"--trace 1, one run per side"),
            **layers}
    if holdout_dir:
        held = bench_file(holdout_dir, change, seconds, parent_sha)
        out["holdout"] = {key: held[key] for key in ("command", "method", "end_to_end")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", help="directory of <workload>/<k>-<side>.out run outputs")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--change", required=True, help="one-line description of the change")
    parser.add_argument("--seconds", type=float, required=True,
                        help="the --seconds every run used")
    parser.add_argument("--holdout", help="directory of paired runs on a held-out seed")
    args = parser.parse_args(argv)
    try:
        data = bench_file(args.runs, args.change, args.seconds, git_head(), args.holdout)
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as exc:
        print(f"bench_file: {exc}", file=sys.stderr)
        return 1
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
