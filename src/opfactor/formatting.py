"""Small shared pieces for rendering elements back into expression text.

Every element printer returns plain text in the grammar the parser reads.
A printer that embeds one element's text in a larger expression places
parentheses from the element's structure, not by rescanning its text:
each element class has a private `_signed()` that returns its sign, the
text of its magnitude, and whether that text is a sum or a quotient, each
read off its own fields.  The quaternion printer reads it off each
component, the operator printer off each coefficient.
`term` writes every term c*b^e of every printer; "1" is the only text of
the one in every algebra, so a coefficient is dropped by its text alone.
`int_poly` is the one writer of an integer polynomial, for the group ring
and for the integer numerator and denominator of a rational function; it
writes each sign and term in one pass over its pairs.
"""

from __future__ import annotations


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


def term(coeff: str, base: str, e: int) -> str:
    """The text of coeff*base^e: `coeff` alone for e = 0 or an empty base,
    the power alone for the coefficient "1", `base` for e = 1."""
    if not e or not base:
        return coeff
    power = base if e == 1 else "%s^%d" % (base, e)
    return power if coeff == "1" else "%s*%s" % (coeff, power)


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


def int_poly(pairs, base: str) -> str:
    """The text of the sum of c*base^e over the (e, c) pairs of ints, in
    their order; a zero c is skipped, and no term left prints as "0".
    One pass writes each sign and then the term of |c|, as join_terms
    would join them."""
    out = []
    for e, c in pairs:
        if c:
            if c < 0:
                out.append(" - " if out else "-")
                c = -c
            elif out:
                out.append(" + ")
            out.append(term(int_text(c), base, e))
    return "".join(out) if out else "0"
