"""Byte-for-byte CLI output on the README examples.

cli_golden.json holds, for each example, the argv and the exact stdout,
stderr and exit code the CLI gave for it; every `$ opfactor` command in
README.md must be among them, and the JSON, the misprint (exit 3) and
the other documented exit codes are covered as well.  A case is named by
its first three arguments unless it gives an "id".  Each example runs
as `python -m opfactor` in a subprocess, so nothing is shared with the
test process.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import opfactor

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "cli_golden.json").read_text())
README = HERE.parent / "README.md"


def _run(argv):
    src = str(Path(opfactor.__file__).resolve().parents[1])
    # argparse wraps the usage lines at COLUMNS
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-m", "opfactor"] + argv,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[c.get("id", " ".join(c["argv"][:3])) for c in GOLDEN]
)
def test_cli_output_is_unchanged(case):
    done = _run(case["argv"])
    assert done.stdout == case["stdout"]
    assert done.stderr == case["stderr"]
    assert done.returncode == case["exit"]


def test_every_readme_command_is_covered():
    commands = [
        shlex.split(line[len("$ opfactor "):])
        for line in README.read_text().splitlines()
        if line.startswith("$ opfactor ")
    ]
    assert commands
    covered = [case["argv"] for case in GOLDEN]
    for argv in commands:
        assert argv in covered
