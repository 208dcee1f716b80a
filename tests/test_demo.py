"""Smoke and golden tests of scripts/demo.py, the library walk-through in
the README.

The demo runs as a subprocess with the package's source directory on
PYTHONPATH, as tests/test_cli_golden.py runs the CLI.  Its whole stdout is
deterministic and must equal tests/demo_golden.txt byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import opfactor

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "demo.py"
GOLDEN = Path(__file__).resolve().parent / "demo_golden.txt"


def test_demo_runs_all_showcases():
    src = str(Path(opfactor.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(DEMO)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert "factorize: Q = x^3*j*D + x^2*i" in lines
    assert "right division agrees: True, remainder 0" in lines
    assert lines.count("checked: K annihilates both kernel elements") == 3
    assert "hat coefficients: [0, r^3, r^4, r]" in lines
    assert "factorize: Q = r*D^2 + r^4*D + r^3" in lines
    assert "D^4 equals the identity: True" in lines


def test_demo_output_matches_golden():
    src = str(Path(opfactor.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(DEMO)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == GOLDEN.read_text()
