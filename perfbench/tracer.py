"""Outside-in tracer for cachelab.

The tracer wraps public functions of cachelab's layers from outside the
package. Each function is replaced, by identity, in every cachelab module
that binds it: ``cli`` and ``experiments`` import ``rate_memory_sharing``
and ``optimize_lower_bound_mu`` by name, and a wrapper only on the
defining module would miss those calls. ``RootSum.sign`` and
``RootSum.inverse`` are wrapped on the class.

Every call records a span (name, start, end, parent span, op id). Spans stay
in memory until :meth:`Tracer.write_spans`. Calls and self time (the span's
duration minus the time of its direct child spans) are accumulated as the
spans close. A few counters that explain the work a call did are read from
its arguments and result after it returns.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# (module of cachelab, attribute); "Class.method" wraps a method on its class.
TARGETS = (
    ("radicals", "RootSum.sign"),
    ("radicals", "RootSum.inverse"),
    ("model", "load_config"),
    ("single_level", "rate_single_level"),
    ("single_level", "place"),
    ("single_level", "deliver"),
    ("single_level", "verify_decode"),
    ("multi_user", "find_m_feasible_partition"),
    ("multi_user", "allocate_memory"),
    ("multi_user", "rate_memory_sharing"),
    ("single_user", "rate_clustering"),
    ("single_user", "cluster_place_deliver"),
    ("bounds", "best_cut_sizes"),
    ("bounds", "optimize_lower_bound_mu"),
    ("bounds", "gap_report"),
    ("experiments", "mixed_rate"),
    ("cli", "main"),
)

LABELS = tuple(f"{module}.{attr.rsplit('.', 1)[-1]}" for module, attr in TARGETS)
_INDEX = {label: k for k, label in enumerate(LABELS)}
_MIXED = _INDEX["experiments.mixed_rate"]

# Counters read from calls, beyond calls and self time.
COUNTERS = (
    "radicals.inverse.kernels_max",
    "multi_user.partial_levels_max",
    "single_level.deliver.messages",
    "single_level.verify_decode.symbols",
    "experiments.mixed_rate.rate_evals",
)


def _after_inverse(tracer, args, result):
    kernels = repr(args[0]).count("sqrt(")
    if kernels > tracer.counters["radicals.inverse.kernels_max"]:
        tracer.counters["radicals.inverse.kernels_max"] = kernels


def _after_rate_memory_sharing(tracer, args, result):
    partial = len(result.partition.I)
    if partial > tracer.counters["multi_user.partial_levels_max"]:
        tracer.counters["multi_user.partial_levels_max"] = partial


def _after_deliver(tracer, args, result):
    tracer.counters["single_level.deliver.messages"] += len(result.messages)


def _after_verify_decode(tracer, args, result):
    placement = args[0]
    per_file = sum(math.comb(placement.K, layer.t) for layer in placement.layers)
    tracer.counters["single_level.verify_decode.symbols"] += placement.N * per_file


def _after_rate_clustering(tracer, args, result):
    # Each grid point of mixed_rate evaluates the clustering rate once.
    if any(frame[2] == _MIXED for frame in tracer._stack):
        tracer.counters["experiments.mixed_rate.rate_evals"] += 1


_AFTER = {
    "radicals.inverse": _after_inverse,
    "multi_user.rate_memory_sharing": _after_rate_memory_sharing,
    "single_level.deliver": _after_deliver,
    "single_level.verify_decode": _after_verify_decode,
    "single_user.rate_clustering": _after_rate_clustering,
}


class Tracer:
    """Records spans of the wrapped functions while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.spans: list = []
        self.calls = [0] * len(LABELS)
        self.self_s = [0.0] * len(LABELS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list = []   # open spans: [span index, child seconds, label index]
        self._saved: list = []   # (owner, attribute, original) to restore

    def _wrap(self, k: int, fn):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        after = _AFTER.get(LABELS[k])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0, k]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[k] += 1
                self_s[k] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (k, start, end, parent, self.op_id)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded cachelab module that binds it.

        A target the package no longer defines is skipped and reports zero
        calls.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cachelab" or name.startswith("cachelab."))]
        for k, (module_name, attr) in enumerate(TARGETS):
            module = sys.modules.get(f"cachelab.{module_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name, None)
                original = vars(owner).get(method) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, method, self._wrap(k, original))
                self._saved.append((owner, method, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(k, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._saved.append((m, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def top_level_seconds(self) -> float:
        """Total duration of the spans that no other span encloses."""
        return sum(s[2] - s[1] for s in self.spans if s[3] == -1)

    def metrics(self) -> dict:
        """Per-layer calls, self seconds and counters, by metric name."""
        out = {}
        for k, label in enumerate(LABELS):
            out[f"{label}.calls"] = self.calls[k]
            out[f"{label}.self_s"] = self.self_s[k]
        out.update(self.counters)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with open(path, "w") as fh:
            for k, start, end, parent, op in self.spans:
                fh.write(json.dumps([LABELS[k], round(start, 7), round(end, 7), parent, op]))
                fh.write("\n")
