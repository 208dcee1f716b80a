"""Expression parsing, printing round trips, and JSON serialization."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from opfactor import (
    NotAUnit,
    Operator,
    ParseError,
    get_algebra,
    operator_from_json,
    operator_to_json,
    parse_element,
    parse_operator,
)

from helpers import (
    ALL_ALGEBRAS,
    C5,
    DIFF1,
    QUAT,
    QX,
    degree_bound,
    expr_trees,
    rand_operator,
    ref_evaluate,
    render,
)


def test_element_examples():
    x = QX.symbols()["x"]
    one = QX.one()
    assert parse_element("x", QX) == x
    assert parse_element("x^2 + 2*x + 1", QX) == (x + one) * (x + one)
    assert parse_element("-x", QX) == -x
    assert parse_element("(x + 1)/(x - 1)", QX) == (x + one) * QX.try_invert(x - one)
    assert parse_element("i*j", QUAT) == QUAT.symbols()["k"]
    r7 = parse_element("r^7", C5)
    C5.check(r7)
    assert r7 == parse_element("r^2", C5)
    from fractions import Fraction

    assert parse_element("3/2", DIFF1) == DIFF1.from_fraction(Fraction(3, 2))


def test_operator_examples():
    assert parse_operator("D^2", QX) == Operator.d(QX, 2)
    assert parse_operator("D*D - D^2", QX).is_zero()
    assert parse_operator("0", C5).is_zero()
    x = QX.symbols()["x"]
    assert parse_operator("x*D + 1", QX) == Operator.d(QX).scale_left(x) + Operator.identity(QX)
    # composition in the operator ring, not coefficient product
    assert parse_operator("D*x", QX) == parse_operator("x*D + 1", QX)


def test_parenthesized_composition():
    lhs = parse_operator("(D - r^2)*(D + r)", C5)
    rhs = parse_operator("D - r^2", C5) * parse_operator("D + r", C5)
    assert lhs == rhs


def test_division_is_right_composition_with_inverse():
    op = parse_operator("D/x", QX)
    x_inv = QX.try_invert(QX.symbols()["x"])
    assert op == Operator.d(QX).compose(Operator.scalar(QX, x_inv))
    assert parse_operator("(4*n + 6)/(n + 1)", DIFF1).degree == 0


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_operator("x + ", QX)
    assert info.value.position == 5

    with pytest.raises(ParseError) as info:
        parse_operator("(x + 1", QX)
    assert info.value.position == 7

    with pytest.raises(ParseError) as info:
        parse_operator("x + 1)", QX)
    assert info.value.position == 6


@pytest.mark.parametrize(
    "text, position", [("x^\u00b2", 3), ("\u00b2*x", 1), ("x + \u2460", 5)],
    ids=["superscript-exponent", "superscript-number", "circled-digit"],
)
def test_digit_that_is_not_decimal_is_an_unexpected_character(text, position):
    # str.isdigit accepts these characters, int() does not
    with pytest.raises(ParseError) as info:
        parse_operator(text, QX)
    assert info.value.position == position
    assert "unexpected character %r" % text[position - 1] in str(info.value)


@pytest.mark.parametrize(
    "text, position",
    [("x^\u0662", 3), ("\u0663*x", 1), ("\uff11", 1), ("x + 1\u0661", 6)],
    ids=["arabic-indic-exponent", "arabic-indic-number", "fullwidth-number",
         "arabic-indic-after-ascii"],
)
def test_decimal_digit_of_another_script_is_an_unexpected_character(text, position):
    # str.isdecimal and int() accept these characters; the grammar reads
    # only the ASCII digits 0-9
    with pytest.raises(ParseError) as info:
        parse_operator(text, QX)
    assert info.value.position == position
    assert "unexpected character %r" % text[position - 1] in str(info.value)


@pytest.mark.parametrize(
    "text, message, position",
    [
        (")", "unmatched ')'", 1),
        ("2*)", "unmatched ')'", 3),
        ("x + * y", "unexpected token '*'", 5),
        ("^2", "unexpected token '^'", 1),
        ("x*/2", "unexpected token '/'", 3),
    ],
)
def test_misplaced_tokens_are_parse_errors(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_operator(text, QX)
    assert info.value.position == position
    assert message in str(info.value)


def test_deep_nesting_is_a_parse_error():
    from opfactor.parsing import MAX_NESTING

    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_operator(deepest, QX) == parse_operator("x", QX)
    with pytest.raises(ParseError) as info:
        parse_operator("(" * 3000 + "x" + ")" * 3000, QX)
    assert info.value.position == MAX_NESTING + 1


def test_long_minus_chains_parse():
    assert parse_operator("-" * 3000 + "x", QX) == parse_operator("x", QX)
    assert parse_operator("-" * 3001 + "x", QX) == parse_operator("-x", QX)
    assert parse_operator("x - --x", QX).is_zero()


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_power_of_d(algebra):
    assert parse_operator("D^300", algebra) == Operator.d(algebra, 300)


@pytest.mark.parametrize(
    "text, algebra, position",
    [("x^100000", QX, 3), ("r^100000", C5, 3), ("(x^1000)^1000", QX, 4)],
)
def test_degree_cap_is_a_parse_error(text, algebra, position):
    from opfactor.parsing import MAX_DEGREE

    assert MAX_DEGREE >= 300
    with pytest.raises(ParseError) as info:
        parse_operator(text, algebra)
    assert info.value.position == position


# sha1 of json.dumps(operator_to_json(op), sort_keys=True) for large
# powers below the degree cap; recorded while Poly still stored Fraction
# coefficients, so they pin the integer form to the same exact results
NEAR_CAP_DIGESTS = [
    ("(n*D)^50", DIFF1, "e0098dc7f5cda195744271b6788973e5272b2124"),
    ("(x*i+D)^50", QUAT, "e57edd69383d03368ab4a1c0bb7765d230dc0847"),
    ("(x+D)^120", QX, "1b0011ce58780e3ab57b25ddcaa160132c2c924b"),
    # dense by dense at every step; recorded while compose still pushed
    # each coefficient of the right factor through the twist on its own
    ("((x+1)*i + x*j*D + D^2)^12", QUAT, "052eeb6803a8c5a1814d5969147bcd61036230fa"),
]


@pytest.mark.parametrize("text, algebra, digest", NEAR_CAP_DIGESTS)
def test_near_cap_powers_match_recorded_digests(text, algebra, digest):
    data = json.dumps(operator_to_json(parse_operator(text, algebra)), sort_keys=True)
    assert hashlib.sha1(data.encode()).hexdigest() == digest


def _too_long_literal():
    """A decimal literal one digit past the interpreter's int-string limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("the interpreter converts integer strings of any length")
    return "9" * (limit + 1)


@pytest.mark.parametrize(
    "template, position", [("%s*D", 1), ("x + %s", 5), ("x^%s", 3), ("(D^%s)", 4)]
)
def test_too_long_integer_literal_is_a_parse_error(template, position):
    with pytest.raises(ParseError) as info:
        parse_operator(template % _too_long_literal(), QX)
    assert info.value.position == position
    assert "integer literal too long" in str(info.value)


def test_degree_bound_adds_over_products():
    from opfactor.parsing import MAX_DEGREE

    half = MAX_DEGREE // 2
    assert parse_operator("3*x^%d*D^%d" % (half, half), QX).degree == half
    with pytest.raises(ParseError) as info:
        parse_operator("x^%d*D^%d" % (half, MAX_DEGREE - half + 1), QX)
    assert info.value.position == len("x^%d*" % half)
    # a power of a constant counts at least its exponent
    with pytest.raises(ParseError):
        parse_operator("(9^%d)^2" % MAX_DEGREE, QX)


def test_power_of_an_operator_is_repeated_composition():
    xd = parse_operator("x*D", QX)
    assert parse_operator("(x*D)^3", QX) == xd.compose(xd).compose(xd)


def test_juxtaposition_rejected():
    with pytest.raises(ParseError):
        parse_operator("2x", QX)
    with pytest.raises(ParseError):
        parse_operator("x D", QX)
    with pytest.raises(ParseError):
        parse_operator("(x)(x)", QX)


def test_unknown_symbols_rejected():
    with pytest.raises(ParseError):
        parse_operator("i", QX)
    with pytest.raises(ParseError):
        parse_operator("n", QX)
    with pytest.raises(ParseError):
        parse_operator("x", DIFF1)
    with pytest.raises(ParseError):
        parse_operator("x @ 1", QX)


def test_bad_exponents_rejected():
    with pytest.raises(ParseError):
        parse_operator("x^-1", QX)
    with pytest.raises(ParseError):
        parse_operator("x^D", QX)
    with pytest.raises(ParseError):
        parse_operator("x^", QX)


def test_nonunit_division_rejected():
    with pytest.raises(ParseError):
        parse_operator("1/2", C5)
    with pytest.raises(ParseError):
        parse_operator("1/(1 + r)", C5)
    with pytest.raises(ParseError):
        parse_operator("1/D", QX)
    with pytest.raises(ParseError):
        parse_operator("1/0", QX)


@pytest.mark.parametrize(
    "text, algebra, message, position",
    [
        ("x/D", QX, "cannot divide by an operator of positive degree", 2),
        ("x/(D-D)", QX, "division by 0, which is not a unit here", 2),
        ("x/(0*D)", QX, "division by 0, which is not a unit here", 2),
        ("D/(1+r)", C5, "division by 1 + r, which is not a unit here", 2),
        ("(2*D)/2", C5, "division by 2, which is not a unit here", 6),
    ],
)
def test_division_mixing_elements_and_operators_rejected(text, algebra, message, position):
    with pytest.raises(ParseError) as info:
        parse_operator(text, algebra)
    assert info.value.position == position
    assert message in str(info.value)


def test_mixed_element_and_operator_values():
    assert parse_operator("D/x", QX) == parse_operator("D*(1/x)", QX)
    for text in ("x^0", "0^0", "(D-D)^0"):
        assert parse_operator(text, QX) == Operator.identity(QX), text
    assert parse_operator("(D-D+D)^3", QX) == Operator.d(QX, 3)


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@given(data=st.data())
def test_parser_matches_the_operator_domain_reference(algebra, data):
    tree = data.draw(expr_trees(algebra))
    # small bounds keep the exact arithmetic quick
    assume(degree_bound(tree) <= 12)
    text = render(tree)
    try:
        want = ref_evaluate(tree, algebra)
    except (ValueError, NotAUnit):
        with pytest.raises(ParseError):
            parse_operator(text, algebra)
        return
    assert parse_operator(text, algebra).coeffs == want.coeffs, text
    if "D" not in text:
        assert parse_element(text, algebra) == want.coeff(0), text


def test_d_not_an_element():
    with pytest.raises(ParseError):
        parse_element("D", QX)
    with pytest.raises(ParseError):
        parse_element("x + D", QX)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_operator("", QX)
    with pytest.raises(ParseError):
        parse_operator("   ", QX)


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_print_parse_round_trip(algebra):
    rng = random.Random(1000)
    for _ in range(60):
        op = rand_operator(rng, algebra, 4)
        text = op.format()
        back = parse_operator(text, algebra)
        assert back.coeffs == op.coeffs, text


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_json_round_trip(algebra):
    rng = random.Random(1001)
    for _ in range(30):
        op = rand_operator(rng, algebra, 4)
        data = operator_to_json(op)
        assert data["algebra"] == algebra.name
        assert isinstance(data["coeffs"], list)
        back = operator_from_json(data, algebra)
        assert back == op
        # coefficient strings re-parse as elements too
        for text in data["coeffs"]:
            algebra.check(parse_element(text, algebra))


def test_json_algebra_mismatch():
    data = operator_to_json(Operator.d(QX))
    with pytest.raises(ValueError):
        operator_from_json(data, DIFF1)


def test_json_without_explicit_algebra():
    data = operator_to_json(Operator.d(QUAT) + Operator.identity(QUAT))
    assert operator_from_json(data) == Operator.d(QUAT) + Operator.identity(QUAT)


DIFF_HALF = get_algebra("diff", Fraction(-1, 2))


def test_json_round_trip_keeps_the_difference_constant():
    op = parse_operator("n*D^2 - 1/2*D + n", DIFF_HALF)
    data = operator_to_json(op)
    assert data["c"] == "-1/2"
    assert operator_from_json(data).algebra == DIFF_HALF
    assert operator_from_json(data) == op
    assert operator_from_json(data, DIFF_HALF) == op


def test_json_difference_constant_mismatch():
    with pytest.raises(ValueError):
        operator_from_json(operator_to_json(Operator.d(DIFF_HALF)), DIFF1)
    with pytest.raises(ValueError):
        operator_from_json(operator_to_json(Operator.d(DIFF1)), DIFF_HALF)
    untagged = {"algebra": "diff", "coeffs": ["0", "1"]}
    assert operator_from_json(untagged) == Operator.d(DIFF1)
    with pytest.raises(ValueError):
        operator_from_json(untagged, get_algebra("diff", Fraction(3)))


def test_json_difference_constant_exponent_is_bounded():
    data = {"algebra": "diff", "c": "1e4300", "coeffs": ["0", "1"]}
    assert operator_from_json(data).algebra == get_algebra("diff", Fraction(10) ** 4300)
    data["c"] = "1e1000000"
    with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
        operator_from_json(data)


@pytest.mark.parametrize("c", ["1/0", None, [1], True, False, "\uff11/\uff12"],
                         ids=["zero-denominator", "null", "list", "true", "false",
                              "fullwidth-digits"])
def test_json_malformed_difference_constant_is_a_value_error(c):
    data = {"algebra": "diff", "c": c, "coeffs": ["0", "1"]}
    with pytest.raises(ValueError) as info:
        operator_from_json(data)
    assert str(info.value) == "%r is not a rational number" % (c,)


@pytest.mark.parametrize("coeffs", ["12", [1], ["1", None], {"0": "1"}, None],
                         ids=["string", "number", "null-entry", "object", "null"])
def test_json_coefficients_must_be_a_list_of_strings(coeffs):
    # a string would otherwise be read one character per coefficient
    with pytest.raises(ValueError, match=r"^operator JSON 'coeffs' must be a list of strings$"):
        operator_from_json({"algebra": "qx", "coeffs": coeffs})


@pytest.mark.parametrize("field", ["algebra", "coeffs"])
def test_json_missing_field_is_a_value_error(field):
    data = {"algebra": "qx", "coeffs": ["1"]}
    del data[field]
    with pytest.raises(ValueError, match=r"^operator JSON has no '%s'$" % field):
        operator_from_json(data)


@pytest.mark.parametrize("data", [["qx", ["1"]], "qx", None], ids=["array", "string", "null"])
def test_json_that_is_not_an_object_is_a_value_error(data):
    with pytest.raises(ValueError, match=r"^operator JSON must be an object, not "):
        operator_from_json(data)
