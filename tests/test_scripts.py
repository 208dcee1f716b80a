"""The code-line count of scripts/bench_pairs.py, which a BENCH file records
as `src_lines.code_added` and `code_removed`."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bench_pairs  # noqa: E402

OLD = '''"""A module."""

TABLE = """not a docstring"""


def double(x):
    """Twice x."""
    # the sum
    return x + x  # twice
'''


def test_code_lines_drop_docstrings_comments_and_blank_lines():
    assert bench_pairs.code_lines(OLD) == [
        'TABLE = """not a docstring"""',
        "def double(x):",
        "    return x + x",
    ]


def test_an_edit_to_a_docstring_or_a_comment_alone_counts_zero():
    new = OLD.replace("Twice x.", "Twice x,\n    over any ring.").replace(
        "# twice", "# x + x")
    assert bench_pairs.code_diff(OLD, new) == (0, 0)
    assert bench_pairs.code_diff(OLD, new + "\n\n# the end\n") == (0, 0)


def test_code_lines_added_and_removed():
    new = OLD.replace("x + x", "2 * x") + '\n\ndef half(x):\n    """x/2."""\n    return x / 2\n'
    assert bench_pairs.code_diff(OLD, new) == (3, 1)
    assert bench_pairs.code_diff(new, OLD) == (1, 3)
    assert bench_pairs.code_diff("", OLD) == (3, 0)
