import json

import pytest

from cachelab import cli
from cachelab.experiments import AuditSummary
from cachelab.model import Setup


@pytest.fixture
def mu_config(tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(
        {"setup": "multi-user", "caches": 4, "levels": [{"files": 8, "users": 2}]}))
    return str(path)


@pytest.fixture
def irregular_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"setup": "multi-user", "caches": 4, "levels": [{"files": 7, "users": 2}]}))
    return str(path)


def test_rate_command(mu_config, capsys):
    assert cli.main(["rate", mu_config, "--mem", "2"]) == 0
    out = capsys.readouterr().out
    assert "achievable: 6" in out
    blob = json.loads(out[out.index("{"):])
    assert blob["achievable"] == "6" and blob["lower"] == "2" and blob["gap_ratio"] == "3"
    assert blob["partition"]["I"] == [0]


def test_rate_schema_exit(tmp_path, capsys):
    bad = tmp_path / "x.json"
    bad.write_text("{\"setup\": \"multi-user\"}")
    assert cli.main(["rate", str(bad), "--mem", "1"]) == 2
    assert cli.main(["rate", str(tmp_path / "missing.json"), "--mem", "1"]) == 2


def test_rate_strict_exit(irregular_config, capsys):
    assert cli.main(["rate", irregular_config, "--mem", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["regular"] is False
    assert cli.main(["rate", irregular_config, "--mem", "1", "--strict"]) == 3


def test_rate_mixed(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({
        "setup": "mixed", "caches": 4,
        "levels": [{"files": 8, "users": 2}],
        "mixed_levels": [{"files": 6, "users": 2}]}))
    assert cli.main(["rate", str(path), "--mem", "3"]) == 0
    out = capsys.readouterr().out
    blob = json.loads(out[out.index("{"):])
    assert "lower" not in blob
    assert "best_gamma" in blob


def test_sweep_command(mu_config, tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    assert cli.main(["sweep", mu_config, "--mems", "0,2,8",
                     "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("M,rate_achievable")
    assert len(lines) == 4
    assert (tmp_path / "rows.json").exists()


def test_sweep_grid_syntax(mu_config, tmp_path):
    out_csv = tmp_path / "rows.csv"
    assert cli.main(["sweep", mu_config, "--grid", "0:8:5", "--out", str(out_csv),
                     "--plot-out", str(tmp_path / "rows.dat")]) == 0
    assert len(out_csv.read_text().splitlines()) == 6
    assert (tmp_path / "rows.dat").exists()


def test_sweep_rejects_out_of_range_grid(mu_config, tmp_path):
    assert cli.main(["sweep", mu_config, "--mems", "0,9",
                     "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("flag, value", [("--grid", "0:8:1x"), ("--grid", "a:8:3"),
                                         ("--grid", "0:8"), ("--grid", "1/0:8:3"),
                                         ("--mems", "1,b")])
def test_sweep_malformed_memories_is_config_error(mu_config, tmp_path, capsys, flag, value):
    assert cli.main(["sweep", mu_config, flag, value,
                     "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_directory_config_is_config_error(tmp_path, capsys):
    assert cli.main(["rate", str(tmp_path), "--mem", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_sweep_unwritable_exit(mu_config):
    assert cli.main(["sweep", mu_config, "--mems", "0,2",
                     "--out", "/nonexistent-dir/x.csv"]) == 4


def test_dichotomy_commands(capsys):
    assert cli.main(["dichotomy", "mu", "--r", "2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["exact_ratio"] == "64"
    assert cli.main(["dichotomy", "su", "--levels", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ratio"] == "4"


def test_audit_command(capsys):
    assert cli.main(["audit", "--setup", "su", "--count", "2", "--seed", "9",
                     "--grid-points", "6"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ok"] is True


def test_audit_single_grid_point(capsys):
    assert cli.main(["audit", "--setup", "mu", "--count", "2", "--seed", "1",
                     "--grid-points", "1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ok"] is True and blob["points"] == 2  # M = 0 for each instance


def test_audit_failure_exit(monkeypatch, capsys):
    failing = AuditSummary(Setup.SINGLE_USER, 1, 0)
    failing.inversions.append({"config": {}, "M": "1"})
    monkeypatch.setattr(cli.experiments, "audit",
                        lambda *args, **kwargs: failing)
    assert cli.main(["audit", "--setup", "su", "--count", "1", "--seed", "0"]) == 5
