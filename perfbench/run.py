#!/usr/bin/env python3
"""cachelab benchmark: one workload, one closed-loop client, checked outputs.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload mu-audit --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and workloads.py):
  mu-audit     regular multi-user audit points: rate, optimized bound, gap
  wide-levels  `cachelab rate` / `cachelab mixed` in-process, 2-6 radicals
  decode-sim   place + deliver + verify_decode, plus clustered runs

The workload runs in its own process (worker.py) with CACHELAB_PRECISION_BITS
unset and PYTHONHASHSEED pinned. With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run (see tracer.py), whose spans are
written to .perfbench-out/. Earlier lines are a readable report, including
the measured (uncalibrated) times next to the calibrated ones that the
metrics report (see calibrate.py).

Set-up time runs from starting a worker process to the worker's first timed
op: import, input generation, config files and warm-up, calibrated by the
interpreter-start probe run just before (see calibrate.py). The worker is
set up SETUPS times (the last one then runs the loop) and the median is
reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import SPAWN_REF_S, spawn_probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mu-audit", "wide-levels", "decode-sim")
SETUPS = 7
WORKER_TIMEOUT_S = 150
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("ok_ratio", "ratio"), ("peak_rss_mb", "MB"))


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CACHELAB_PRECISION_BITS", None)   # changes the cost of RootSum.sign
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, workdir: str, extra: list[str]) -> dict:
    """Run one worker; add its measured and calibrated set-up seconds to its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + extra
    env = _worker_env()
    spawn_s = spawn_probe(env)
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["measured_setup_s"] = result["setup_done"] - started
    result["setup_s"] = result["measured_setup_s"] * SPAWN_REF_S / spawn_s
    return result


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _reference(workload: str, seed: int):
    with open(os.path.join(HERE, "reference.json")) as fh:
        digests = json.load(fh)["workloads"][workload]["digests"]
    return digests[seed] if 0 <= seed < len(digests) else None


def _check(result: dict, workload: str, seed: int) -> tuple[bool, list[str]]:
    """Output checks of the whole run: per-op problems and the reference digest."""
    notes = list(result["problems"])
    correct = result["wrong"] == 0
    expected = _reference(workload, seed)
    if result["check_digest"] is None:
        correct = False
        notes.append("the run ended before the end of its first round")
    elif expected is None:
        notes.append(f"no reference digest for seed {seed}; per-op checks only")
    elif result["check_digest"] != expected:
        correct = False
        notes.append(f"output digest {result['check_digest']} != reference {expected}")
    else:
        notes.append(f"output digest {expected} matches the reference")
    return correct, notes


def end_to_end(setups: list[float], phase: dict, peak_rss_mb: float) -> dict:
    latencies_ms = [s * 1000 for s in phase["latencies"]]
    ops = phase["ops"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1000 * ops / sum(latencies_ms),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": _p90(latencies_ms),
        "ok_ratio": (ops - phase["failed"]) / ops,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(result: dict) -> dict:
    layers = dict(result["layers"])
    untraced, traced = result["untraced"], result["traced"]
    bound_calls = layers["bounds.optimize_lower_bound_mu.calls"]
    layers["bounds.candidates_per_bound"] = (
        layers["bounds.best_cut_sizes.calls"] / bound_calls if bound_calls else 0.0)
    mixed_calls = layers["experiments.mixed_rate.calls"]
    evals = layers.pop("experiments.mixed_rate.rate_evals")
    layers["experiments.mixed_rate.rate_evals_per_call"] = (
        evals / mixed_calls if mixed_calls else 0.0)
    layers["trace.ops"] = traced["ops"]
    # Traced over untraced ops per second (both phases run R rounds).
    layers["trace.overhead"] = ((traced["ops"] / sum(traced["latencies"]))
                                / (untraced["ops"] / sum(untraced["latencies"])))
    layers["trace.top_level_share"] = result["top_level_share"]
    return layers


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_per_call", "_per_bound", ".overhead", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cachelab", "__init__.py")):
        print(f"no cachelab sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(_run_worker(args, workdir, ["--setup-only"]))
        extra = []
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            extra = ["--spans-out",
                     os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")]
        result = _run_worker(args, workdir, extra)
        setups.append(result)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, notes = _check(result, args.workload, args.seed)
    phase = result["untraced"]
    attempted, failed = phase["ops"], phase["failed"]
    if args.trace:
        attempted += result["traced"]["ops"]
        failed += result["traced"]["failed"]
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in per_layer(result).items()}
    else:
        values = end_to_end([s["setup_s"] for s in setups], phase, result["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops, {failed} failed"
          + (f", {result['rounds']} rounds" if "rounds" in result else ""))
    for name, entry in metrics.items():
        print(f"  {name:<48} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        measured = [s * 1000 for s in phase["measured_latencies"]]
        p90 = metrics["op_p90_ms"]["value"]
        print(f"  fail_ratio {failed / attempted:.4g}; samples above p90: "
              f"{sum(1 for s in phase['latencies'] if s * 1000 > p90)}")
        print(f"  measured: setup_s {statistics.median(s['measured_setup_s'] for s in setups):.4g}"
              f", ops_per_s {1000 * len(measured) / sum(measured):.4g}"
              f", op_p50_ms {statistics.median(measured):.4g}, op_p90_ms {_p90(measured):.4g}"
              f", median probe {phase['probe_median_s'] * 1000:.4g} ms")
    else:
        shares = {}
        for name, entry in metrics.items():
            if name.endswith(".self_s"):
                layer = name.split(".")[0]
                shares[layer] = shares.get(layer, 0.0) + entry["value"]
        print("  self-time share by layer: " + ", ".join(
            f"{layer} {s / result['traced_s']:.3f}"
            for layer, s in sorted(shares.items(), key=lambda item: -item[1]) if s))
    for note in notes:
        print(f"  {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
