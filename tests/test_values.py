"""Value semantics of the slotted value classes, and what importing the CLI
loads."""

import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import opfactor
from opfactor import (
    GroupRingC5Element,
    MixedAlgebras,
    NCMatrix,
    Operator,
    Poly,
    Quaternion,
    RationalFunction,
    get_algebra,
    parse_element,
    parse_operator,
)

from helpers import (
    ALL_ALGEBRAS,
    C5,
    QUAT,
    QX,
    c5_elements,
    factored_ratfuncs,
    operators,
    polys,
    quaternions,
    ratfuncs,
)

X = QX.symbols()["x"]

# each factory builds a fresh value equal to the one before it
VALUES = {
    "Operator": lambda: parse_operator("x*D + 1", QX),
    "NCMatrix": lambda: NCMatrix.from_rows(QX, [[X, QX.one()], [QX.zero(), X]]),
    "Poly": lambda: Poly([1, Fraction(-1, 2), 3]),
    # each on a fresh algebra: one instance returns its memoized value
    "RationalFunction": lambda: parse_element("(x^2 + 1)/(2*x - 1)", get_algebra("qx")),
    "Quaternion": lambda: QUAT.symbols()["i"],
    "GroupRingC5Element": lambda: GroupRingC5Element((1, 2, 0, 0, -1)),
    "TwistPair": lambda: QX.twist(X),
}

RF_ZERO = "RationalFunction(Poly(()), Poly((Fraction(1, 1),)), 'x')"
RF_ONE = "RationalFunction(Poly((Fraction(1, 1),)), Poly((Fraction(1, 1),)), 'x')"
RF_X = (
    "RationalFunction(Poly((Fraction(0, 1), Fraction(1, 1))), "
    "Poly((Fraction(1, 1),)), 'x')"
)

# the reprs the frozen dataclasses printed, and the matrix text of NCMatrix;
# MixedAlgebras messages carry them
REPRS = {
    "Quaternion": "Quaternion(a=%s, b=%s, c=%s, d=%s)" % (RF_ZERO, RF_ONE, RF_ZERO, RF_ZERO),
    "GroupRingC5Element": "GroupRingC5Element(coeffs=(1, 2, 0, 0, -1))",
    "NCMatrix": "NCMatrix([x, 1]; [0, x])",
    "TwistPair": "TwistPair(p=%s, q=%s)" % (RF_X, RF_ONE),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_compare_and_hash_equal(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert (a == 1) is False
    assert a != 1


@pytest.mark.parametrize("name", sorted(REPRS))
def test_reprs_keep_the_dataclass_text(name):
    assert repr(VALUES[name]()) == REPRS[name]


def test_mixed_algebras_message_names_the_value():
    with pytest.raises(MixedAlgebras) as info:
        C5.check(QUAT.symbols()["i"])
    assert str(info.value) == "%s is not an element of algebra 'c5'" % REPRS["Quaternion"]


@pytest.mark.parametrize("left, right", list(itertools.permutations(sorted(VALUES), 2)))
def test_values_of_different_classes_are_unequal(left, right):
    a, b = VALUES[left](), VALUES[right]()
    assert a != b and not a == b


@pytest.mark.parametrize(
    "name", ["Operator", "NCMatrix", "Poly", "Quaternion", "RationalFunction", "GroupRingC5Element"]
)
def test_value_classes_are_slotted(name):
    value = VALUES[name]()
    assert "__slots__" in type(value).__dict__
    assert not hasattr(value, "__dict__")


def test_importing_the_cli_loads_no_dataclasses():
    # -S skips site, whose hooks may import these modules themselves
    src = str(Path(opfactor.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, %r); import opfactor.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    ) % src
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


# subtraction: one merge with the sign, no negated copy

# pairs of operands of each class; the rational functions over powers of x
# take the slice branches of the sum, the factored ones its gcd branches
_OVER_X_POWERS = st.builds(lambda n, m: RationalFunction(n, Poly([0] * m + [1]), "x"),
                           polys(2), st.integers(0, 3))
SUBTRACTED = {
    "Poly": st.tuples(polys(3), polys(3)),
    "RationalFunction over x^m": st.tuples(_OVER_X_POWERS, _OVER_X_POWERS),
    "RationalFunction": st.tuples(factored_ratfuncs("x"), factored_ratfuncs("x")),
    "Quaternion": st.tuples(quaternions(), quaternions()),
    "GroupRingC5Element": st.tuples(c5_elements(), c5_elements()),
    "Operator": st.sampled_from(ALL_ALGEBRAS).flatmap(
        lambda algebra: st.tuples(operators(algebra), operators(algebra))),
}


def _slots(value):
    """What a value holds: an operator's coefficients, unfolded, or the
    slots of any other value class."""
    if isinstance(value, Operator):
        return value.coeffs
    return type(value)._slot_values(value)


def _is_the_shared_zero(value, operand):
    """value is zero, and is built from the shared zero where its class
    has one; arithmetic may also return a zero operand as it is."""
    if value is operand:
        return value.is_zero()
    if isinstance(value, Poly):
        return value is Poly.zero()
    if isinstance(value, RationalFunction):
        return value.num is Poly.zero() and value.den is Poly.one()
    if isinstance(value, Quaternion):
        return value.terms == () and value.zero is operand.zero
    return value.is_zero()


@pytest.mark.parametrize("name", sorted(SUBTRACTED))
@given(data=st.data())
def test_a_difference_has_the_slots_of_the_sum_with_the_negation(name, data):
    a, b = data.draw(SUBTRACTED[name])
    for x, y in ((a, b), (b, a), (a + b, b), (a, a)):
        assert _slots(x - y) == _slots(x + (-y))
    assert _is_the_shared_zero(a - a, a)
    assert _is_the_shared_zero((a + b) - (a + b), a + b)


def test_subtraction_negates_nothing(monkeypatch):
    qx, quat, c5 = (get_algebra(name) for name in ("qx", "quat", "c5"))
    pairs = [
        (Poly([1, 2]), Poly([3, 0, -1])),
        (Poly(), Poly([3, 0, -1])),
        # one denominator, a power of x on each side, and the gcd branch
        (parse_element("(x + 1)/(x - 1)", qx), parse_element("2/(x - 1)", qx)),
        (parse_element("1/x", qx), parse_element("3/x^2 + x", qx)),
        (parse_element("1/(x^2 - 1)", qx), parse_element("x/(x + 1)", qx)),
        (qx.zero(), parse_element("x/(x + 1)", qx)),
        # a unit only the right operand has, one both have, and cancellation
        (parse_element("x*i + 2*j", quat), parse_element("x*i - k + 1/x", quat)),
        (parse_element("x*i", quat), parse_element("x*i", quat)),
        (parse_element("r + 2", c5), parse_element("r^3 - r", c5)),
        (parse_operator("x*D + 1", qx), parse_operator("D^2 - x*D + 1", qx)),
        (parse_operator("i*D", quat), parse_operator("(x + k)*D^2 + j", quat)),
        (parse_operator("r", c5), parse_operator("r^2*D^2 - r", c5)),
    ]
    expected = [a + (-b) for a, b in pairs]
    negated = []
    for cls in (Poly, RationalFunction, Quaternion, GroupRingC5Element, Operator):
        def spy(value, real=cls.__neg__):
            negated.append(value)
            return real(value)

        monkeypatch.setattr(cls, "__neg__", spy)
    differences = [a - b for a, b in pairs]
    assert negated == []
    assert [_slots(d) for d in differences] == [_slots(e) for e in expected]
