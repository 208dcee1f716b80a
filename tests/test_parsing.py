"""Expression parsing, printing round trips, and JSON serialization."""

import ast
import hashlib
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from opfactor import (
    GroupRingC5Element,
    NotAUnit,
    Operator,
    ParseError,
    Quaternion,
    RationalFunction,
    get_algebra,
    operator_from_json,
    operator_to_json,
    parse_element,
    parse_operator,
)
from opfactor.base import Value
from opfactor.parsing import parse_fraction

from helpers import (
    ALL_ALGEBRAS,
    C5,
    DIFF1,
    QUAT,
    QX,
    degree_bound,
    expr_trees,
    rand_operator,
    DataDraws,
    RandomDraws,
    normal_form_trees,
    operators,
    ref_evaluate,
    render,
    render_tight,
    variable_name,
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


def _check_against_reference(tree, algebra):
    """parse_operator(text) has the reference's coefficients, and
    parse_element the constant one where the text has no D; both refuse
    the text where the reference does."""
    text = render_tight(tree)
    try:
        want = ref_evaluate(tree, algebra)
    except (ValueError, NotAUnit):
        with pytest.raises(ParseError):
            parse_operator(text, algebra)
        return
    assert parse_operator(text, algebra).coeffs == want.coeffs, text
    if "D" not in text:
        assert parse_element(text, algebra) == want.coeff(0), text


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@given(data=st.data())
def test_normal_form_texts_match_the_operator_domain_reference(algebra, data):
    _check_against_reference(normal_form_trees(DataDraws(data), algebra), algebra)


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@given(data=st.data())
def test_plain_factor_texts_match_the_operator_domain_reference(algebra, data):
    _check_against_reference(normal_form_trees(DataDraws(data), algebra, wide=True), algebra)


_V, _ZERO, _D = ("sym", "v"), ("int", 0), ("D",)

# (tree, the algebras whose symbols it uses); "v" stands for the variable
EDGE_TREES = [
    (("^", _ZERO, 0), ALL_ALGEBRAS),
    (("^", ("-", _D, _D), 0), ALL_ALGEBRAS),
    (("/", _V, _ZERO), ALL_ALGEBRAS),
    (("/", _V, ("*", _ZERO, _D)), ALL_ALGEBRAS),
    (("^", ("sym", "i"), 3), (QUAT,)),
    (("^", ("*", _V, ("sym", "i")), 2), (QUAT,)),
    (("/", _V, ("int", 2)), ALL_ALGEBRAS),
    (("/", ("^", _V, 7), ("^", _V, 3)), ALL_ALGEBRAS),
    # where monomial tuples meet dicts, errors and promoted values
    (("*", ("*", ("int", 2), ("+", _V, ("int", 1))), _V), ALL_ALGEBRAS),
    (("/", ("*", ("+", _V, ("int", 1)), ("^", _V, 2)), _V), ALL_ALGEBRAS),
    (("*", ("neg", 1, ("^", ("neg", 1, _V), 3)), ("sym", "i")), (QUAT,)),
    (("*", ("*", _D, _V), _D), ALL_ALGEBRAS),
    (("*", ("/", _V, _ZERO), _D), ALL_ALGEBRAS),
    (("/", ("/", ("^", _V, 7), ("^", _V, 3)), ("int", 2)), ALL_ALGEBRAS),
    (("*", ("neg", 2, ("^", _V, 2)), ("^", _D, 0)), ALL_ALGEBRAS),
]


def _with_variable(tree, algebra):
    if tree == _V:
        return ("sym", variable_name(algebra))
    if isinstance(tree, tuple):
        return tuple(_with_variable(t, algebra) for t in tree)
    return tree


@pytest.mark.parametrize("tree, algebra", [(t, a) for t, algebras in EDGE_TREES for a in algebras],
                         ids=lambda v: render_tight(v) if isinstance(v, tuple) else v.name)
def test_normal_form_edge_cases_match_the_operator_domain_reference(tree, algebra):
    _check_against_reference(_with_variable(tree, algebra), algebra)


def _structure(value):
    """A value's slots, recursively, as plain tuples whose repr shows each
    int and Fraction as it is stored."""
    if isinstance(value, Value):
        return (type(value).__name__,) + tuple(_structure(getattr(value, s))
                                               for s in type(value).__slots__)
    if isinstance(value, tuple):
        return tuple(_structure(v) for v in value)
    return value


# sha1 over 2,000 seeded normal-form texts per algebra of each outcome:
# the stored form of every coefficient, or the ParseError's position and
# message; recorded while every `*`, `/`, `+` and `^` of the text still
# ran through the algebra's element arithmetic
NORMAL_FORM_DIGESTS = {
    "qx": "acb2d67ab1617e281b7ca65051f356de00f174b1",
    "quat": "fdbcf8064c9b206dd15e50218eb2450a23fa679b",
    "diff": "db206f014e19b1c0a7ccf37ba29e18fcaf5c1e28",
    "c5": "f15bfa517ca68a9f7a05c45c37aa014d10681db0",
}


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_normal_form_texts_match_recorded_digests(algebra):
    draws = RandomDraws(random.Random("normal form " + algebra.name))
    outcomes = []
    for _ in range(2000):
        text = render_tight(normal_form_trees(draws, algebra))
        try:
            outcomes.append(repr(_structure(parse_operator(text, algebra).coeffs)))
        except ParseError as e:
            outcomes.append("%d %s" % (e.position, e.message))
    digest = hashlib.sha1("\n".join(outcomes).encode()).hexdigest()
    assert digest == NORMAL_FORM_DIGESTS[algebra.name]


# the tokens of rendered and spliced text: digit runs, else one character
_TOKEN_STARTS = re.compile(r"[0-9]+|\S")
# a message that quotes the token found where the error points
_QUOTED = re.compile(r"(?:unexpected character|unexpected token|found|symbol|unmatched) ('.*?')")


def _outcome(text, algebra):
    """The parsed operator's coefficients, or the ParseError's message."""
    try:
        return parse_operator(text, algebra).coeffs
    except ParseError as e:
        return e.message


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@given(data=st.data())
def test_error_positions_point_at_a_token_under_any_spacing(algebra, data):
    tree = data.draw(expr_trees(algebra))
    assume(degree_bound(tree) <= 12)
    tokens = _TOKEN_STARTS.findall(render(tree))
    spaces = st.text(alphabet=" \t\u00a0", max_size=3)
    # each token after its run of whitespace, and a last run alone
    pieces = [data.draw(spaces) + t for t in tokens + [""]]
    text = "".join(pieces)
    # whitespace between tokens changes no value and no message
    assert _outcome(text, algebra) == _outcome(" ".join(tokens), algebra), text
    at = data.draw(st.integers(0, len(tokens)))
    stray = data.draw(st.sampled_from([")", "^", "*", "é", "٢"]))
    spliced = "".join(pieces[:at]) + stray + "".join(pieces[at:])
    try:
        parse_operator(spliced, algebra)
    except ParseError as e:
        starts = {m.start() + 1 for m in _TOKEN_STARTS.finditer(spliced)}
        assert e.position in starts | {len(spliced) + 1}, (spliced, str(e))
        quoted = _QUOTED.search(e.message)
        if quoted:
            assert spliced[e.position - 1:].startswith(ast.literal_eval(quoted[1])), \
                (spliced, str(e))


def _spied(monkeypatch, algebras):
    """The list each element product, and each from_fraction and
    try_invert call of the algebras, is appended to, with its operands."""
    calls = []
    for cls in (Quaternion, GroupRingC5Element, RationalFunction):
        def product(a, b, name=cls.__name__ + ".__mul__", mul=cls.__mul__):
            calls.append((name, str(a), str(b)))
            return mul(a, b)
        monkeypatch.setattr(cls, "__mul__", product)
    for algebra in algebras:
        algebra.one()  # the algebra builds its 0 and 1 once, on first use
        for name in ("from_fraction", "try_invert"):
            def call(f, name=name, method=getattr(algebra, name)):
                calls.append((name, str(f)))
                return method(f)
            monkeypatch.setattr(algebra, name, call)
    return calls


SPIED_PARSES = [
    # a sum of monomials times powers of D: no element arithmetic at all
    ("quat", "x^3*j*D^3 + (x^2*i - 3*x^2*j)*D^2 + (-3*x*i + 6*x*j)*D + 3*i - 6*j", []),
    ("quat", "(2/x + 2*i)*D + 2/x - 2*j/x + 3/x^2 - (2*x - 6)/x*k", []),
    ("c5", "(-3 + r^2 + 2*r^3)*D^4 + (3*r - 3*r^2 - r^3 - r^4)*D^3 + (3 - r - r^2)*D^2"
           " + (1 - 2*r - r^2 + 3*r^4)*D + (-3*r + 2*r^3 + r^4)/-r^2", []),
    # a division by a sum, and a D left of x: the algebra computes, but
    # compose multiplies by no coefficient that is the shared one
    ("qx", "1/(x+1)", [("try_invert", "x + 1"),
                       ("RationalFunction.__mul__", "1", "1/(x + 1)")]),
    ("qx", "D*x", []),
]


def test_normal_form_text_runs_no_element_arithmetic(monkeypatch):
    algebras = {name: get_algebra(name) for name in ("qx", "quat", "c5")}
    calls = _spied(monkeypatch, algebras.values())
    for name, text, expected in SPIED_PARSES:
        calls.clear()
        first = parse_operator(text, algebras[name])
        assert calls == expected, text
        # nothing is kept from one parse to the next
        calls.clear()
        assert parse_operator(text, algebras[name]) == first
        assert calls == expected, text


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
        text = str(op)
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


def test_json_texts_are_rendered_once_and_copied_on_every_call(monkeypatch):
    op = parse_operator("(x + 1)/x*k*D^2 - i*D + 2", QUAT)
    rendered = []
    fmt = type(QUAT).format_element
    monkeypatch.setattr(type(QUAT), "format_element",
                        lambda self, f: rendered.append(f) or fmt(self, f))
    first = operator_to_json(op)
    first["coeffs"].append("oops")
    first["coeffs"][0] = "1"
    second = operator_to_json(op)
    assert second == operator_to_json(op) == {
        "algebra": "quat", "coeffs": ["2", "-i", "(x + 1)/x*k"]}
    assert rendered == list(op.coeffs)
    # the kept texts are no part of the value
    fresh = parse_operator("(x + 1)/x*k*D^2 - i*D + 2", QUAT)
    assert fresh._texts is None and op._texts is not None
    assert fresh == op and hash(fresh) == hash(op)


def test_a_repeated_kernel_prints_k_once(monkeypatch):
    from opfactor import KernelContext

    # two requests for one kernel on one algebra, served as perfbench's
    # worker serves them: parse, context, the JSON of K
    algebra = get_algebra("quat")
    rendered = []
    fmt = type(algebra).format_element
    monkeypatch.setattr(type(algebra), "format_element",
                        lambda self, f: rendered.append(f) or fmt(self, f))
    answers = []
    for _ in range(2):
        kernel = [parse_element(t, algebra) for t in ("x*k", "x^3*i")]
        ctx = KernelContext(algebra, kernel)
        answers.append(operator_to_json(ctx.K)["coeffs"])
    assert rendered == list(ctx.K.coeffs)
    assert answers[0] == answers[1] == [fmt(algebra, c) for c in ctx.K.coeffs]


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


@pytest.mark.parametrize("text, value", [
    ("12", Fraction(12)), ("-3/4", Fraction(-3, 4)), (" 1.5 ", Fraction(3, 2)),
    (".5", Fraction(1, 2)), ("5.", Fraction(5)), ("+2.5e-3", Fraction(1, 400)),
    ("1E+2", Fraction(100)), ("-0e00004300", Fraction(0)), ("4/6\n", Fraction(2, 3)),
])
def test_parse_fraction_reads_the_one_grammar(text, value):
    assert parse_fraction(text) == value


@pytest.mark.parametrize("text", [
    "1/ 2", "1 /2", "1_000", "1e1_0", "1/2.5", "1.5/2", "- 1", ".", "1e", "e5",
    "1.5e", "0x10", "inf", "nan", "\u00a01", "", "1/-2",
])
def test_parse_fraction_refuses_every_other_text(text):
    """Python 3.12 and later would read the first two, 3.11 and later the
    third; the grammar takes none of them on any Python."""
    with pytest.raises(ValueError) as info:
        parse_fraction(text)
    assert str(info.value) == "%r is not a rational number" % (text,)


@pytest.mark.parametrize("text", ["1e4301", "1e" + "9" * 5000, "1e000012345"])
def test_parse_fraction_exponent_bound_reads_the_digits(text):
    with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
        parse_fraction(text)


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


# operator powers twist only the base


def test_an_operator_power_advances_only_shifts_of_the_base(monkeypatch):
    algebra = get_algebra("diff")
    base = parse_operator("n + D", algebra)
    k = 12
    # endo^j . base for j < k - 1, and base^k composed from the left
    shifts, expected = [base], base
    for _ in range(k - 1):
        shifts.append(shifts[-1]._advanced())
        expected = base.compose(expected)
    advanced = []
    advance = Operator._advanced

    def spy(op):
        advanced.append(op)
        return advance(op)

    monkeypatch.setattr(Operator, "_advanced", spy)
    power = parse_operator("(n+D)^%d" % k, algebra)
    # one advance per power, each of a shift of the base, whose
    # coefficients stay of degree 1, never of the power so far
    assert advanced == shifts[:k - 1]
    assert power.coeffs == expected.coeffs


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@given(data=st.data())
def test_operator_powers_match_repeated_composition(algebra, data):
    base, k = data.draw(operators(algebra, 2)), data.draw(st.integers(0, 4))
    expected = Operator.identity(algebra)
    for _ in range(k):
        expected = base.compose(expected)
    assert parse_operator("(%s)^%d" % (base, k), algebra).coeffs == expected.coeffs


# the element memo


def test_a_repeated_element_text_is_parsed_once_per_algebra(monkeypatch):
    from opfactor import parsing

    algebra = get_algebra("quat")
    first = parse_element("x*k + 2/x", algebra)
    parses = []
    parse = parsing._Parser.parse

    def spy(parser):
        parses.append(parser.text)
        return parse(parser)

    monkeypatch.setattr(parsing._Parser, "parse", spy)
    assert parse_element("x*k + 2/x", algebra) is first
    assert parses == []
    # another text of the same value, and the same text on another instance
    assert parse_element("2/x + x*k", algebra) == first
    fresh = parse_element("x*k + 2/x", get_algebra("quat"))
    assert fresh == first and fresh is not first
    assert parses == ["2/x + x*k", "x*k + 2/x"]
    # operator texts are never kept
    parse_operator("x*k", algebra)
    parse_operator("x*k", algebra)
    assert parses[2:] == ["x*k", "x*k"]


def test_the_element_memo_keeps_at_most_its_bound():
    from opfactor.factorization import MEMO_SIZE

    algebra = get_algebra("qx")
    memo = algebra._element_memo
    texts = ["x^%d" % e for e in range(1, MEMO_SIZE + 5)]
    values = []
    for count, text in enumerate(texts, 1):
        values.append(parse_element(text, algebra))
        assert len(memo) == min(count, MEMO_SIZE)
    # the oldest went first
    assert list(memo) == texts[-MEMO_SIZE:]
    assert [memo[t] for t in texts[-MEMO_SIZE:]] == values[-MEMO_SIZE:]
    assert parse_element(texts[-1], algebra) is values[-1]
    assert parse_element(texts[0], algebra) is not values[0]
    assert list(memo) == texts[-MEMO_SIZE + 1:] + texts[:1]


def test_a_text_that_raises_is_never_stored():
    algebra = get_algebra("c5")
    for text in ("r +", "x", "1/(1 + r)"):
        for _ in range(2):
            with pytest.raises((ParseError, NotAUnit) if "/" in text else ParseError):
                parse_element(text, algebra)
    assert algebra._element_memo == {}
    parse_element("r", algebra)
    assert list(algebra._element_memo) == ["r"]


def test_a_repeated_kernel_text_reaches_the_kernel_memo_by_identity():
    from opfactor import KernelContext

    algebra = get_algebra("quat")
    texts = ("x*k", "x^3*i")
    first = KernelContext(algebra, [parse_element(t, algebra) for t in texts])
    second = KernelContext(algebra, [parse_element(t, algebra) for t in texts])
    assert all(a is b for a, b in zip(first.f, second.f))
    assert second.K is first.K
