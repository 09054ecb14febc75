"""Self-tests of the benchmark: tracer counts, digests, checks, deadline.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from worker import Loop  # noqa: E402  (puts this checkout's src first on sys.path)
from workloads import WORKLOADS, DecodeOp  # noqa: E402

from cachelab import experiments, single_level  # noqa: E402
from cachelab.model import LevelSpec, Setup, SystemConfig  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


# The config of demos/06_mixed_population.py.
MIXED_DEMO = SystemConfig(Setup.MIXED, 4, levels=(LevelSpec(8, 2),),
                          mixed_levels=(LevelSpec(12, 3), LevelSpec(50, 1)))


@pytest.mark.parametrize("gamma, evals", [(None, 101), (Fraction(1, 2), 102)])
def test_mixed_rate_known_counts(tracer, gamma, evals):
    tracer.enabled = True
    experiments.mixed_rate(MIXED_DEMO, Fraction(6), gamma=gamma)
    tracer.enabled = False
    metrics = tracer.metrics()
    assert metrics["experiments.mixed_rate.calls"] == 1
    assert metrics["multi_user.rate_memory_sharing.calls"] == evals
    assert metrics["single_user.rate_clustering.calls"] == evals
    assert metrics["experiments.mixed_rate.rate_evals"] == evals


def test_disabled_tracer_records_nothing(tracer):
    experiments.mixed_rate(MIXED_DEMO, Fraction(6))
    assert not tracer.spans
    assert sum(tracer.calls) == 0


def test_uninstall_restores_every_binding():
    from cachelab import bounds, cli, multi_user
    before = (multi_user.rate_memory_sharing, experiments.rate_memory_sharing,
              cli.rate_memory_sharing, bounds.best_cut_sizes)
    t = tracing.Tracer()
    t.install()
    wrapped = (multi_user.rate_memory_sharing, experiments.rate_memory_sharing,
               cli.rate_memory_sharing, bounds.best_cut_sizes)
    t.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert wrapped[0] is wrapped[1] is wrapped[2]
    assert (multi_user.rate_memory_sharing, experiments.rate_memory_sharing,
            cli.rate_memory_sharing, bounds.best_cut_sizes) == before


def _first_round(name: str, seed: int, workdir: str, tracer=None) -> Loop:
    workload = WORKLOADS[name](seed, workdir)
    loop = Loop(workload, tracer)
    for op in workload.round(0):
        loop.run_op(op)
    return loop


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_spans_cover_it(name, tmp_path, tracer):
    untraced = _first_round(name, 3, str(tmp_path))
    traced = _first_round(name, 3, str(tmp_path), tracer)
    assert untraced.problems == traced.problems == []
    assert traced.check_digest == untraced.check_digest is not None
    # The spans no other span encloses account for the timed ops.
    assert 0.95 * traced.busy_s <= tracer.top_level_seconds() <= traced.busy_s
    assert all(span[4] >= 0 for span in tracer.spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_digest(name, tmp_path):
    with open(os.path.join(HERE, "reference.json")) as fh:
        expected = json.load(fh)["workloads"][name]["digests"][0]
    assert _first_round(name, 0, str(tmp_path)).check_digest == expected


def test_decode_check_rejects_an_accepting_verifier(monkeypatch):
    K = N = 5
    op = DecodeOp(K, N, Fraction(2), single_level.worst_case_demands(K, N), control=3)
    out = op.run()
    assert op.check(out)[1] == []
    monkeypatch.setattr(single_level, "verify_decode", lambda *args: True)
    problems = op.check(out)[1]
    assert any("missing a message" in p for p in problems)


class _SlowOp:
    def run(self):
        time.sleep(2)

    def check(self, out):
        return "", []


class _Workload:
    deadline_s = 0.05
    round_ops = 1
    probe = "fraction"


def test_deadline_fails_the_op():
    loop = Loop(_Workload())
    loop.run_op(_SlowOp())
    assert loop.failed == 1
    assert loop.latencies[0] < 1
    assert "OpDeadline" in loop.problems[0]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decode-sim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert sorted(run.WORKLOADS) == sorted(WORKLOADS) == sorted(
        w["name"] for w in bench["workloads"])
    assert [name for name, _ in run.END_TO_END] == [m["name"] for m in bench["end_to_end"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(run.END_TO_END, bench["end_to_end"]))
    phase = {"ops": 1, "latencies": [1.0]}
    result = {"layers": tracing.Tracer().metrics(), "untraced": phase, "traced": phase,
              "top_level_share": 1.0}
    layers = run.per_layer(result)
    assert list(layers) == [m["name"] for m in bench["per_layer"]]
    assert all(run._unit(m["name"]) == m["unit"] for m in bench["per_layer"])

