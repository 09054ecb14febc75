import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import bench_file  # noqa: E402


def _write_run(path, seed, metrics, trace=False, failed=0):
    """A run.py output: report lines, then the JSON result as the last line."""
    units = {"ops_per_s": "1/s", "setup_s": "s"}
    body = {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": units.get(name, "ms")}
                        for name, value in metrics.items()}}
    path.write_text(f"workload decode-sim, seed {seed}: 100 ops, {failed} failed\n"
                    f"  {'traced' if trace else 'untraced'} report line\n"
                    + json.dumps(body) + "\n")


def _e2e(ops, p50):
    return {"setup_s": 0.13, "ops_per_s": ops, "op_p50_ms": p50, "op_p90_ms": 3 * p50,
            "ok_ratio": 1.0, "peak_rss_mb": 24.0}


def test_bench_file_layout(tmp_path):
    folder = tmp_path / "decode-sim"
    folder.mkdir()
    for k, (parent, change) in enumerate([(740, 1200), (745, 1190), (750, 730)]):
        _write_run(folder / f"{k}-parent.out", 61, _e2e(parent, 0.70))
        _write_run(folder / f"{k}-change.out", 61, _e2e(change, 0.45), failed=k)
    _write_run(folder / "trace-parent.out", 7,
               {"single_level.place.self_s": 0.059, "radicals.sign.calls": 0}, trace=True)
    _write_run(folder / "trace-change.out", 7,
               {"single_level.place.self_s": 0.011, "radicals.sign.calls": 0}, trace=True)

    data = bench_file.bench_file(str(tmp_path), "symbol numbering", 18, "abc123")
    assert data["parent_git_sha"] == "abc123"
    assert data["command"] == "python3 perfbench/run.py --workload W --seed 61 --seconds 18 --trace 0"
    assert data["per_layer"]["command"].startswith(
        "python3 perfbench/run.py --workload W --seed 7 --seconds 18 --trace 1")
    entry = data["end_to_end"]["decode-sim"]
    assert entry["seed"] == 61 and entry["pairs"] == 3
    assert entry["parent"]["ops_per_s"]["median"] == 745
    assert entry["change"]["failed_ops"] == 0 + 1 + 2
    assert entry["change"]["correct_runs"] == 3
    # ops_per_s is better higher, op_p50_ms better lower; ties win for neither side
    assert entry["change_wins_of_pairs"]["ops_per_s"] == 2
    assert entry["change_wins_of_pairs"]["op_p50_ms"] == 3
    assert entry["change_wins_of_pairs"]["setup_s"] == 0
    # per-layer metrics that read zero on both sides are left out
    assert data["per_layer"]["decode-sim"] == {
        "parent": {"single_level.place.self_s": 0.059},
        "change": {"single_level.place.self_s": 0.011}}
    json.dumps(data)


def test_bench_file_rejects_mixed_seeds(tmp_path):
    folder = tmp_path / "decode-sim"
    folder.mkdir()
    _write_run(folder / "0-parent.out", 61, _e2e(740, 0.7))
    _write_run(folder / "0-change.out", 62, _e2e(1200, 0.45))
    with pytest.raises(ValueError, match="not one seed"):
        bench_file.bench_file(str(tmp_path), "x", 18, "abc123")


def test_bench_file_records_a_held_out_seed(tmp_path):
    runs, held = tmp_path / "runs", tmp_path / "held"
    for root, seed, pairs in ((runs, 61, 3), (held, 97, 2)):
        folder = root / "decode-sim"
        folder.mkdir(parents=True)
        for k in range(pairs):
            _write_run(folder / f"{k}-parent.out", seed, _e2e(740, 0.70))
            _write_run(folder / f"{k}-change.out", seed, _e2e(1100 + k, 0.45))
    data = bench_file.bench_file(str(runs), "x", 18, "abc123", str(held))
    assert data["command"].startswith("python3 perfbench/run.py --workload W --seed 61 ")
    holdout = data["holdout"]
    assert set(holdout) == {"command", "method", "end_to_end"}
    assert holdout["command"] == (
        "python3 perfbench/run.py --workload W --seed 97 --seconds 18 --trace 0")
    entry = holdout["end_to_end"]["decode-sim"]
    assert entry["seed"] == 97 and entry["pairs"] == 2
    assert entry["change_wins_of_pairs"]["ops_per_s"] == 2
    assert "holdout" not in bench_file.bench_file(str(runs), "x", 18, "abc123")
