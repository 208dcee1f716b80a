"""Run every tests/cli_golden.json case through a command and compare.

    python scripts/cli_golden.py opfactor
    PYTHONPATH=src python scripts/cli_golden.py python -m opfactor

The arguments are the command that stands for `opfactor`.  Each case's argv
is appended to it and run from the repository root; its exit code, stdout
and stderr must equal the case's exactly, with usage lines wrapped at 80
columns.  Prints each mismatch and a count, and exits 1 when any case
differs.  Needs no pytest, so it runs on an interpreter that has only the
package installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "cli_golden.json"


def main(command):
    cases = json.loads(GOLDEN.read_text())
    mismatches = 0
    for case in cases:
        # argparse wraps the usage lines at COLUMNS
        done = subprocess.run(command + case["argv"], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, COLUMNS="80"))
        got = {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}
        for key, value in got.items():
            if value != case[key]:
                mismatches += 1
                print("%s: %s is %r, expected %r"
                      % (" ".join(case["argv"]), key, value, case[key]))
    print("%d cases, %d mismatches" % (len(cases), mismatches))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["opfactor"]))
