"""Smoke and golden tests of scripts/demo.py, the library walk-through in
the README, and a run of the README's own "Library use" example.

The demo runs once, as a subprocess with the package's source directory on
PYTHONPATH, as tests/test_cli_golden.py runs the CLI.  Its whole stdout is
deterministic and must equal tests/demo_golden.txt byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import opfactor

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "demo.py"
GOLDEN = Path(__file__).resolve().parent / "demo_golden.txt"
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def demo():
    """One run of the demo, shared by the tests below."""
    src = str(Path(opfactor.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, str(DEMO)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )


def test_demo_runs_all_showcases(demo):
    assert demo.returncode == 0, demo.stderr
    assert demo.stderr == ""
    lines = demo.stdout.splitlines()
    assert "factorize: Q = x^3*j*D + x^2*i" in lines
    assert "right division agrees: True, remainder 0" in lines
    assert lines.count("checked: K annihilates both kernel elements") == 3
    assert "hat coefficients: [0, r^3, r^4, r]" in lines
    assert "factorize: Q = r*D^2 + r^4*D + r^3" in lines
    assert "D^4 equals the identity: True" in lines


def test_demo_output_matches_golden(demo):
    assert demo.returncode == 0, demo.stderr
    assert demo.stdout == GOLDEN.read_text()


def test_readme_library_example_runs():
    section = README.read_text().split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
