"""Byte-for-byte stdout of every script under ``demos/``.

Each demo runs as a fresh ``python3`` process with the package on its path,
and its stdout must equal ``tests/golden_demos/<name>.txt``.

When an output change is intended, regenerate the copies from the root of
a checkout and review the diff:

    PYTHONPATH=src python3 tests/test_demos.py
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(ROOT, "tests", "golden_demos")
NAMES = sorted(name[:-3] for name in os.listdir(DEMOS) if name.endswith(".py"))


def run_demo(name: str) -> bytes:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name + ".py")],
                          env=env, capture_output=True, check=True)
    return proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_demo_output_matches_golden(name):
    with open(os.path.join(GOLDEN, name + ".txt"), "rb") as fh:
        assert run_demo(name) == fh.read()


def test_every_golden_has_a_demo():
    assert sorted(n[:-4] for n in os.listdir(GOLDEN)) == NAMES


def regenerate() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    for name in os.listdir(GOLDEN):
        os.remove(os.path.join(GOLDEN, name))
    for name in NAMES:
        with open(os.path.join(GOLDEN, name + ".txt"), "wb") as fh:
            fh.write(run_demo(name))
        print(name)


if __name__ == "__main__":
    regenerate()
