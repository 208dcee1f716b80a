"""Value semantics of the slotted value classes, and what importing the CLI
loads."""

import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opfactor
from opfactor import (
    GroupRingC5Element,
    MixedAlgebras,
    NCMatrix,
    Poly,
    parse_element,
    parse_operator,
)

from helpers import C5, QUAT, QX

X = QX.symbols()["x"]

# each factory builds a fresh value equal to the one before it
VALUES = {
    "Operator": lambda: parse_operator("x*D + 1", QX),
    "NCMatrix": lambda: NCMatrix.from_rows(QX, [[X, QX.one()], [QX.zero(), X]]),
    "Poly": lambda: Poly([1, Fraction(-1, 2), 3]),
    "RationalFunction": lambda: parse_element("(x^2 + 1)/(2*x - 1)", QX),
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
