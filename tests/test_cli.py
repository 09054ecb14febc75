import json
import time

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


def test_rate_fractional_files_is_config_error(tmp_path, capsys):
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(
        {"setup": "multi-user", "caches": 4, "levels": [{"files": 1.5, "users": 2}]}))
    assert cli.main(["rate", str(path), "--mem", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1


def test_rate_strict_exit(irregular_config, capsys):
    assert cli.main(["rate", irregular_config, "--mem", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["regular"] is False
    assert cli.main(["rate", irregular_config, "--mem", "1", "--strict"]) == 3


def test_rate_strict_exit_mixed(tmp_path, capsys):
    # Level 0 of each class breaks its setup's files rule (MU-FILES, SU-FILES).
    path = tmp_path / "bad_mixed.json"
    path.write_text(json.dumps({
        "setup": "mixed", "caches": 4,
        "levels": [{"files": 3, "users": 2}],
        "mixed_levels": [{"files": 1, "users": 3}]}))
    assert cli.main(["rate", str(path), "--mem", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["regular"] is False
    assert cli.main(["rate", str(path), "--mem", "1", "--strict"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("regularity violation: ") and captured.err.count("\n") == 1
    assert "files 3 < caches*users = 8" in captured.err and "files 1 < users 3" in captured.err


def test_rate_strict_exit_single_user(tmp_path, capsys):
    # The more popular level, level 0, has fewer files than users (SU-FILES),
    # and the users do not fill the caches (SU-COUNT).  The report is computed once per config, so the
    # permissive run before must not let the strict run pass.
    path = tmp_path / "bad_su.json"
    path.write_text(json.dumps({
        "setup": "single-user", "caches": 6,
        "levels": [{"files": 10, "users": 2}, {"files": 1, "users": 3}]}))
    assert cli.main(["rate", str(path), "--mem", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["regular"] is False
    for _ in range(2):
        assert cli.main(["rate", str(path), "--mem", "1", "--strict"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("regularity violation: instance violates regularity "
                                "conditions: level 0: files 1 < users 3; "
                                "total users 5 != caches 6\n")


@pytest.mark.parametrize("config", [
    {"setup": "multi-user", "caches": 4, "levels": [{"files": 7, "users": 2}]},
    {"setup": "single-user", "caches": 6, "levels": [{"files": 1, "users": 3}]},
    {"setup": "mixed", "caches": 4, "levels": [{"files": 3, "users": 2}],
     "mixed_levels": [{"files": 9, "users": 3}]},
])
def test_rate_strict_checks_the_memory_first(tmp_path, capsys, config):
    # `evaluate` alone enforces --strict, after the memory: a negative memory
    # is an invalid input (2) on an irregular config, a valid one a violation (3).
    path = tmp_path / "irregular.json"
    path.write_text(json.dumps(config))
    assert cli.main(["rate", str(path), "--mem=-1", "--strict"]) == 2
    assert capsys.readouterr().err.startswith("invalid input: memory must be nonnegative")
    assert cli.main(["rate", str(path), "--mem", "1", "--strict"]) == 3
    assert capsys.readouterr().err.startswith("regularity violation: ")


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


@pytest.mark.parametrize("flags", [["--points", "0"], ["--points", "-3"],
                                   ["--grid", "0:8:0"], ["--grid", "0:8:-4"]])
def test_sweep_rejects_empty_grids(mu_config, tmp_path, capsys, flags):
    out_csv = tmp_path / "x.csv"
    assert cli.main(["sweep", mu_config, *flags, "--out", str(out_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out_csv.exists()
    assert captured.err.startswith("invalid input: ") and captured.err.count("\n") == 1


def test_sweep_single_point_grid(mu_config, tmp_path):
    out_csv = tmp_path / "x.csv"
    assert cli.main(["sweep", mu_config, "--points", "1", "--out", str(out_csv)]) == 0
    assert len(out_csv.read_text().splitlines()) == 2  # header and M = 0


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_huge_cache_count_exits_2_at_once(tmp_path, capsys):
    # Without the limit the bound's envelope would take about 16 s here.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"setup": "multi-user", "caches": 100000, "levels": [{"files": 100000, "users": 1}]}))
    start = time.perf_counter()
    assert cli.main(["rate", str(path), "--mem", "1"]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("invalid input: the multi-user lower bound is limited to 4096 caches")
    assert err.count("\n") == 1


def test_huge_user_count_cut_budget_at_once(tmp_path, capsys):
    # 10**12 users over two caches: the single-user cut budget is repaired
    # in closed form, not one unit at a time.
    path = tmp_path / "users.json"
    path.write_text(json.dumps({"setup": "single-user", "caches": 2, "levels": [
        {"files": 10 ** 12, "users": 10 ** 12}]}))
    start = time.perf_counter()
    assert cli.main(["rate", str(path), "--mem", "1/12"]) == 0
    assert time.perf_counter() - start < 1
    out = capsys.readouterr().out
    data = json.loads(out[out.index("{"):])
    assert data["lower"] == "11/6" and data["bound_params"]["s"] == [2]


def test_huge_config_integer_is_config_error(tmp_path, capsys):
    # json.load refuses integers past the interpreter's digit limit (4300
    # digits by default) with a ValueError that is not a JSONDecodeError.
    path = tmp_path / "digits.json"
    path.write_text('{"setup": "multi-user", "caches": ' + "9" * 5000
                    + ', "levels": [{"files": 1, "users": 1}]}')
    assert cli.main(["rate", str(path), "--mem", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot parse JSON: ")
    assert captured.err.count("\n") == 1


def test_directory_config_is_config_error(tmp_path, capsys):
    assert cli.main(["rate", str(tmp_path), "--mem", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["rate", "{mu}", "--mem", "-1"],
    ["dichotomy", "su", "--levels", "3", "--files", "2"],
    ["dichotomy", "mu", "--r", "0"],
    ["mixed", "{mu}", "--mem", "1"],
    ["rate", "{zero_beta}", "--mem", "1"],
    ["dichotomy", "mu", "--r", "1", "--mem", "0"],
    ["dichotomy", "mu", "--r", "1", "--mem", "288"],
    ["dichotomy", "su", "--levels", "2", "--files", "4", "--mem", "8"],
    # a sweep's exact values past the float range overflow where a decimal is printed
    ["sweep", "{huge_files}", "--points", "2", "--out", "{out}"],
    # a memory outside [0, N] anywhere in the list rejects the whole sweep
    ["sweep", "{mu}", "--mems", "1,-1", "--out", "{out}"],
])
def test_bad_input_exits_2_with_one_line(mu_config, tmp_path, capsys, argv):
    zero_beta = tmp_path / "zero_beta.json"
    zero_beta.write_text(json.dumps({"setup": "multi-user", "caches": 4, "beta": "1/0",
                                     "levels": [{"files": 8, "users": 2}]}))
    huge_files = tmp_path / "huge_files.json"
    huge_files.write_text(json.dumps({"setup": "multi-user", "caches": 2, "levels": [
        {"files": 10 ** 400, "users": 1}]}))
    argv = [a.format(mu=mu_config, zero_beta=zero_beta, huge_files=huge_files,
                     out=tmp_path / "rows.csv") for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    # a sweep renders every row before it opens its output
    assert not (tmp_path / "rows.csv").exists()


def test_rate_past_the_float_range_keeps_the_exact_values(tmp_path, capsys):
    # The rate and the bound overflow a float; the report keeps their exact
    # strings, with null float companions and no decimal in the text lines.
    huge_users = tmp_path / "huge_users.json"
    huge_users.write_text(json.dumps({"setup": "multi-user", "caches": 2, "levels": [
        {"files": 10 ** 401, "users": 10 ** 400}]}))
    assert cli.main(["rate", str(huge_users), "--mem", "0"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out[out.index("{"):])
    assert data["achievable"] == str(2 * 10 ** 400) and data["lower"] == str(10 ** 400)
    assert data["achievable_float"] is None and data["lower_float"] is None
    assert data["gap_ratio"] == "2" and data["gap_ratio_float"] == 2.0
    lines = out.splitlines()
    assert f"achievable: {2 * 10 ** 400}" in lines and f"lower:      {10 ** 400}" in lines
    assert "gap:        2 (~2)" in lines


@pytest.mark.parametrize("argv, message", [
    (["rate", "{mu}"], "cachelab rate: the following arguments are required: --mem"),
    (["rate", "{mu}", "--mem", "abc"], "cachelab rate: argument --mem: not a rational number"),
    (["frob", "{mu}"], "cachelab: argument command: invalid choice: 'frob'"),
    (["rate", "{mu}", "--mem", "1", "a\nb"], "cachelab: unrecognized arguments: a b"),
])
def test_usage_error_is_one_line(mu_config, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(mu=mu_config) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: " + message) and err.count("\n") == 1


def test_sweep_unwritable_exit(mu_config, tmp_path, monkeypatch):
    assert cli.main(["sweep", mu_config, "--mems", "0,2",
                     "--out", "/nonexistent-dir/x.csv"]) == 4
    # A failure after the first file removes every file the run wrote.
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    (out / "rows.json").mkdir()
    assert cli.main(["sweep", mu_config, "--mems", "0,2", "--out", "rows.csv"]) == 4
    assert [p.name for p in out.iterdir()] == ["rows.json"]
    (out / "rows.json").rmdir()
    assert cli.main(["sweep", mu_config, "--mems", "0,2", "--out", "rows.csv",
                     "--plot-out", "nodir/x.dat"]) == 4
    assert not list(out.iterdir())


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


@pytest.mark.parametrize("flags", [["--count", "-1"], ["--count", "0"],
                                   ["--grid-points", "0"]])
def test_audit_rejects_empty_runs(capsys, flags):
    assert cli.main(["audit", "--setup", "mu", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ") and captured.err.count("\n") == 1


def test_audit_failure_exit(monkeypatch, capsys):
    failing = AuditSummary(Setup.SINGLE_USER, 1, 0)
    failing.inversions.append({"config": {}, "M": "1"})
    monkeypatch.setattr(cli.experiments, "audit",
                        lambda *args, **kwargs: failing)
    assert cli.main(["audit", "--setup", "su", "--count", "1", "--seed", "0"]) == 5
