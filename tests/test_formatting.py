"""The exact printed text of every parenthesis rule, and `is_sum` itself.

Each case parses a text and prints the result, so the expected text is
also one the parser reads back.
"""

import pytest

from opfactor import formatting, get_algebra, parse_element, parse_operator

OPERATOR_CASES = [
    # constant term: a negative sum keeps its group
    ("qx", "D - (x + 1)", "D - (x + 1)"),
    ("c5", "D^2 - 2*r*D - 1 - r", "D^2 - 2*r*D - (1 + r)"),
    # constant term: a magnitude starting with `-` is grouped after other terms
    ("quat", "D + (-x + i)", "D + (-x + i)"),
    ("quat", "-x + i", "-x + i"),
    # D-term coefficient: a sum, a quotient, a negative start, and one
    ("qx", "(x + 1)*D", "(x + 1)*D"),
    ("qx", "-(x+1)*D", "-(x + 1)*D"),
    ("qx", "(1/x)*D", "(1/x)*D"),
    ("qx", "(3/2)*D^2", "(3/2)*D^2"),
    ("quat", "(1/x*j)*D", "(1/x*j)*D"),
    ("quat", "(-x + i)*D", "(-x + i)*D"),
    ("qx", "D^2 - D + 1", "D^2 - D + 1"),
    ("quat", "x*D - i*D", "(x - i)*D"),
    # group ring: an all-negative coefficient folds its sign out before *D
    ("c5", "(-1 - r)*D", "-(1 + r)*D"),
    ("c5", "-r^2*D + r", "-r^2*D + r"),
    ("c5", "0*D", "0"),
]

ELEMENT_CASES = [
    # rational functions: a sum numerator, then each kind of denominator
    ("qx", "(x+1)/x", "(x + 1)/x"),
    ("qx", "-(x+1)/x", "(-x - 1)/x"),
    ("qx", "1/(x+1)", "1/(x + 1)"),
    ("qx", "1/(2*x)", "1/(2*x)"),
    ("qx", "x/2", "x/2"),
    ("qx", "(x+1)/2", "(x + 1)/2"),
    ("qx", "1/x^2", "1/x^2"),
    ("diff", "(n^2 - 1)/(3*n^2)", "(n^2 - 1)/(3*n^2)"),
    # quaternions: scalar sums, and sum or quotient coefficients of a unit
    ("quat", "-(x+1) + i", "-(x + 1) + i"),
    ("quat", "x + 1 + i", "x + 1 + i"),
    ("quat", "(x+1)*i", "(x + 1)*i"),
    ("quat", "-(x+1)*i", "-(x + 1)*i"),
    ("quat", "1/x*j", "1/x*j"),
    ("quat", "(x+1)/x*k", "(x + 1)/x*k"),
    ("quat", "0", "0"),
    # group ring
    ("c5", "-1 - r", "-1 - r"),
    ("c5", "2*r^4 - r", "-r + 2*r^4"),
]


@pytest.mark.parametrize("algebra, text, printed", OPERATOR_CASES)
def test_operator_text(algebra, text, printed):
    A = get_algebra(algebra)
    op = parse_operator(text, A)
    assert op.format() == printed
    assert parse_operator(printed, A) == op


@pytest.mark.parametrize("algebra, text, printed", ELEMENT_CASES)
def test_element_text(algebra, text, printed):
    A = get_algebra(algebra)
    f = parse_element(text, A)
    assert str(f) == printed == A.format_element(f)
    assert parse_element(printed, A) == f


def test_is_sum():
    is_sum = formatting.is_sum
    assert is_sum("x + 1") and is_sum("-x - 1") and is_sum("(x + 1)/x - i")
    assert is_sum("x + 1 + (x - 1)*i")
    assert not is_sum("(x + 1)/(x - 1)")
    assert not is_sum("((x + 1)/x*i + j)*D")
    assert not is_sum("-(x + 1)")
    assert not is_sum("-x^2") and not is_sum("-3/2*x")
    assert not is_sum("1/x") and not is_sum("0")
