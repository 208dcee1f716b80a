"""Exact kernel-driven factorization in twisted operator algebras.

Operators here are finite sums  a_i . D^i  over a coefficient algebra
carrying an endomorphism D.  Given elements f_1 .. f_k whose iterated
images form an invertible structure matrix, the package constructs the
monic operator K of degree k annihilating all of them and factors any
other annihilating operator exactly as Q . K.  Four exact coefficient
algebras ship built in; see `opfactor.algebras`.
"""

from .algebras import (
    DifferenceAlgebra,
    DifferentialRationalAlgebra,
    GroupRingC5Algebra,
    QuaternionDifferentialAlgebra,
    SELECTORS,
    get_algebra,
)
from .base import Algebra, TwistPair
from .errors import (
    AlgebraError,
    MixedAlgebras,
    NotAUnit,
    NotInKernel,
    NotIntertwinable,
    NotInvertible,
    NotMonicizable,
    ParseError,
    ShapeMismatch,
    VerificationFailed,
)
from .factorization import KernelContext, right_divide_monic
from .groupring import GroupRingC5Element
from .ncmatrix import NCMatrix
from .operators import Operator
from .parsing import (
    operator_from_json,
    operator_to_json,
    parse_element,
    parse_operator,
)
from .poly import Poly
from .quaternion import Quaternion
from .ratfunc import RationalFunction

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraError",
    "DifferenceAlgebra",
    "DifferentialRationalAlgebra",
    "GroupRingC5Algebra",
    "GroupRingC5Element",
    "KernelContext",
    "MixedAlgebras",
    "NCMatrix",
    "NotAUnit",
    "NotInKernel",
    "NotIntertwinable",
    "NotInvertible",
    "NotMonicizable",
    "Operator",
    "ParseError",
    "Poly",
    "Quaternion",
    "QuaternionDifferentialAlgebra",
    "RationalFunction",
    "SELECTORS",
    "ShapeMismatch",
    "TwistPair",
    "VerificationFailed",
    "get_algebra",
    "operator_from_json",
    "operator_to_json",
    "parse_element",
    "parse_operator",
    "right_divide_monic",
]
