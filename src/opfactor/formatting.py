"""Small shared pieces for rendering elements back into expression text.

Every element formatter returns an Fmt record: the rendered text plus three
structural facts about its top level (is it a sum, does it contain a top
level division, does it start with a minus sign).  Callers embedding the
text into a larger expression use the flags to decide on parentheses.
"""

from __future__ import annotations

from typing import NamedTuple


class Fmt(NamedTuple):
    text: str
    is_sum: bool = False
    is_quotient: bool = False
    is_negative: bool = False


def int_text(n: int) -> str:
    """str(n), also past the interpreter's limit on int-string digits."""
    try:
        return str(n)
    except ValueError:  # more digits than one conversion may produce
        pass
    if n < 0:
        return "-" + int_text(-n)
    k = n.bit_length() * 3 // 20  # about half the digits; log10(2) > 0.3
    high, low = divmod(n, 10**k)
    return int_text(high) + int_text(low).zfill(k)


def fraction_text(q) -> str:
    """str(q) for a Fraction q, also past the limit on int-string digits."""
    text = int_text(q.numerator)
    return text if q.denominator == 1 else text + "/" + int_text(q.denominator)


def join_terms(terms) -> str:
    """Join (sign, body) pairs into `a + b - c` style text.

    Signs are -1 or +1, bodies are already rendered without a sign.  An
    empty list renders as "0".
    """
    out = []
    for sign, body in terms:
        if not out:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append((" - " if sign < 0 else " + ") + body)
    return "".join(out) if out else "0"
