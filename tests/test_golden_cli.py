"""Byte-for-byte CLI behaviour contract.

Every case runs ``cachelab.cli.main`` in a scratch directory holding the
configs below and compares its exit code, stdout, stderr and every file it
writes with the copies under ``tests/golden/<case>/``.  The corpus covers
``rate`` (each setup, rational and irrational rates), ``sweep`` (CSV, JSON
and plot data, via ``--points`` and ``--grid``), ``mixed`` (with and without
``--gamma``), both ``dichotomy`` families and a small ``audit`` per setup.

When an output change is intended, regenerate the corpus from the root of
a checkout and review the diff:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest

from cachelab import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CONFIGS = {
    "mu.json": {"setup": "multi-user", "caches": 4,
                "levels": [{"files": 8, "users": 2}]},
    "mu2.json": {"setup": "multi-user", "caches": 4,
                 "levels": [{"files": 8, "users": 2}, {"files": 50, "users": 1}]},
    "su.json": {"setup": "single-user", "caches": 6,
                "levels": [{"files": 4, "users": 2}, {"files": 12, "users": 3},
                           {"files": 30, "users": 1}]},
    "mu4.json": {"setup": "multi-user", "caches": 4,
                 "levels": [{"files": 59, "users": 1}, {"files": 219, "users": 3},
                            {"files": 157, "users": 1}, {"files": 951, "users": 3}]},
    "mixed.json": {"setup": "mixed", "caches": 4,
                   "levels": [{"files": 8, "users": 2}],
                   "mixed_levels": [{"files": 6, "users": 2}]},
}

CASES = {
    "rate_mu_rational": ["rate", "mu.json", "--mem", "2"],
    "rate_mu_irrational": ["rate", "mu2.json", "--mem", "10"],
    "rate_mu_no_memory_level": ["rate", "mu2.json", "--mem", "3"],
    "rate_mu_four_radicals": ["rate", "mu4.json", "--mem", "1483/8"],
    "rate_su": ["rate", "su.json", "--mem", "2"],
    "rate_su_small_memory": ["rate", "su.json", "--mem", "1/12"],
    "rate_mixed": ["rate", "mixed.json", "--mem", "3"],
    "sweep_mu_points": ["sweep", "mu.json", "--points", "5", "--out", "rows.csv",
                        "--plot-out", "rows.dat"],
    "sweep_mu_grid_irrational": ["sweep", "mu2.json", "--grid", "0:58:7",
                                 "--out", "rows.csv", "--plot-out", "rows.dat"],
    "sweep_su_mems": ["sweep", "su.json", "--mems", "0,1/12,1,5", "--out", "su_rows"],
    "sweep_mixed_grid": ["sweep", "mixed.json", "--grid", "1:3:2", "--out", "mixed_rows.csv",
                         "--plot-out", "mixed_rows.dat"],
    "mixed_optimized": ["mixed", "mixed.json", "--mem", "3"],
    "mixed_gamma": ["mixed", "mixed.json", "--mem", "3", "--gamma", "1/3"],
    "dichotomy_mu": ["dichotomy", "mu", "--r", "1"],
    "dichotomy_mu_out_of_regime": ["dichotomy", "mu", "--r", "1", "--mem", "1"],
    "dichotomy_su": ["dichotomy", "su", "--levels", "3", "--files", "8"],
    "audit_mu": ["audit", "--setup", "mu", "--count", "2", "--seed", "3",
                 "--grid-points", "4"],
    "audit_su": ["audit", "--setup", "su", "--count", "3", "--seed", "5",
                 "--grid-points", "5"],
}


def run_case(argv: list[str], workdir: str) -> dict[str, bytes]:
    """Run one CLI invocation in `workdir`; return every output by name."""
    for name, data in CONFIGS.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(data, fh)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    outputs = {"exit.txt": f"{code}\n".encode(), "stdout.txt": out.getvalue().encode()}
    if err.getvalue():
        outputs["stderr.txt"] = err.getvalue().encode()
    for name in sorted(os.listdir(workdir)):
        if name not in CONFIGS:
            with open(os.path.join(workdir, name), "rb") as fh:
                outputs["file." + name] = fh.read()
    return outputs


def _golden(case: str) -> dict[str, bytes]:
    folder = os.path.join(GOLDEN, case)
    out = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert run_case(CASES[case], str(tmp_path)) == _golden(case)


def test_corpus_has_no_stray_cases():
    assert sorted(os.listdir(GOLDEN)) == sorted(CASES)


def regenerate() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            outputs = run_case(argv, workdir)
        folder = os.path.join(GOLDEN, case)
        os.makedirs(folder)
        for name, data in outputs.items():
            with open(os.path.join(folder, name), "wb") as fh:
                fh.write(data)
        print(f"{case}: {', '.join(outputs)}")


if __name__ == "__main__":
    regenerate()
