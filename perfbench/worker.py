"""One workload in its own process: set up, run the closed loop, check outputs.

Started by run.py, which pins the environment. Prints one JSON object as
the last line of standard output.

The loop has one client: the next op starts when the previous one returns.
An op's latency covers only its calls into cachelab; the output checks run
between ops, untimed. The loop runs the whole number of rounds whose
calibrated time is nearest to --seconds, so every run sees the same op mix
and the same number of rounds however fast the machine is at the time; it
stops mid-round once the measured time reaches HARD_STOP times --seconds.
Each op runs under a per-op deadline armed with ``signal.setitimer``; an op
that raises, overruns the deadline or fails its check counts as failed.

Latencies are calibrated (see calibrate.py): each op's measured latency is
scaled by the mean time of the workload's probes just before and just after
it, which the loop runs between ops at most every PROBE_EVERY_S. Per-layer self times
are scaled by the median probe of the traced rounds.

With --trace 1 the loop runs R rounds untraced and then the next R rounds
traced, R fixed by --seconds, so per-layer counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import cachelab  # noqa: E402

if not os.path.abspath(cachelab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"cachelab was imported from {cachelab.__file__}, not from this checkout")

import tracer as tracing  # noqa: E402
from calibrate import PROBE_REF_S, PROBES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBE_EVERY_S = 0.01
HARD_STOP = 4


class OpDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpDeadline()


class Loop:
    """Runs ops, records latencies and failures, chains the output digest."""

    def __init__(self, workload, tracer=None):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []   # measured seconds per op
        self.busy_s = 0.0
        self.calibrated_s = 0.0             # running, from the probe before each op
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.check_digest = None
        self.probes: list[float] = []
        self.probe_before: list[int] = []  # per op: index of the last probe before it
        self._last_probe_end = -math.inf

    def _probe(self) -> None:
        # With the collector off, the probe's time does not depend on the
        # size of cachelab's heap, which a collection would have to walk.
        gc.disable()
        try:
            self.probes.append(PROBES[self.workload.probe]())
        finally:
            gc.enable()
        self._last_probe_end = time.perf_counter()

    def run_op(self, op) -> None:
        if time.perf_counter() - self._last_probe_end >= PROBE_EVERY_S:
            self._probe()
        self.probe_before.append(len(self.probes) - 1)
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = len(self.latencies)
            tracer.enabled = True
        signal.setitimer(signal.ITIMER_REAL, self.workload.deadline_s)
        start = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:   # counted as a failed op; the run goes on
            out, error = None, exc
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.enabled = False
        self.latencies.append(end - start)
        self.busy_s += end - start
        self.calibrated_s += (end - start) * PROBE_REF_S / self.probes[-1]
        if error is None:
            text, problems = op.check(out)
        else:
            text = f"{type(error).__name__}: {error}"
            problems = [text]
        if problems:
            self.failed += 1
            # A deadline miss is slow, not wrong; anything else is a wrong output.
            self.wrong += not isinstance(error, OpDeadline)
            if len(self.problems) < 10:
                self.problems.append(f"op {len(self.latencies) - 1} ({type(op).__name__}): "
                                     + "; ".join(problems))
        self.digest.update(hashlib.sha256(text.encode()).digest())
        if len(self.latencies) == self.workload.round_ops:   # digest of round 0
            self.check_digest = self.digest.hexdigest()[:16]

    def run_rounds(self, first: int, count: int | None, seconds: float,
                   ready: dict | None = None) -> int:
        """Whole rounds from `first`: `count` of them, or about `seconds` calibrated.

        `ready` maps round numbers to ops generated during set-up.
        """
        r = first
        while count is None or r < first + count:
            ops = ready.pop(r) if ready and r in ready else self.workload.round(r)
            for op in ops:
                self.run_op(op)
                if self.busy_s >= HARD_STOP * seconds:
                    return r - first + 1
            r += 1
            # Stop at the whole number of rounds whose time is nearest --seconds.
            if count is None and self.calibrated_s * (1 + 0.5 / (r - first)) >= seconds:
                break
        return r - first

    def summary(self) -> dict:
        self._probe()   # the probe after the last op
        p = self.probes
        calibrated = [latency * 2 * PROBE_REF_S / (p[i] + p[i + 1])
                      for latency, i in zip(self.latencies, self.probe_before)]
        return {"ops": len(self.latencies), "failed": self.failed,
                "latencies": calibrated, "measured_latencies": self.latencies,
                "probe_median_s": statistics.median(p)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    ready = {0: workload.round(0)}   # inputs (and config files) of the first round
    warm = Loop(workload)
    for op in workload.warmup():
        warm.run_op(op)
    if warm.failed:
        print("\n".join(warm.problems), file=sys.stderr)
        return 1
    result = {"setup_done": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        rounds = max(1, round(args.seconds / 2 / workload.round_seconds))
        untraced = Loop(workload)
        untraced.run_rounds(0, rounds, args.seconds, ready)
        tracer = tracing.Tracer()
        tracer.install()
        traced = Loop(workload, tracer)
        traced.run_rounds(rounds, rounds, args.seconds)
        tracer.uninstall()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        result["untraced"] = untraced.summary()
        result["traced"] = traced.summary()
        scale = PROBE_REF_S / result["traced"]["probe_median_s"]
        result["layers"] = {name: value * scale if name.endswith(".self_s") else value
                            for name, value in tracer.metrics().items()}
        result["traced_s"] = traced.busy_s * scale   # calibrated like the self times
        result["top_level_share"] = tracer.top_level_seconds() / traced.busy_s
        loops = (untraced, traced)
    else:
        loop = Loop(workload)
        result["rounds"] = loop.run_rounds(0, None, args.seconds, ready)
        result["untraced"] = loop.summary()
        loops = (loop,)
    result["check_digest"] = loops[0].check_digest
    result["problems"] = [p for loop in loops for p in loop.problems]
    result["wrong"] = sum(loop.wrong for loop in loops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
