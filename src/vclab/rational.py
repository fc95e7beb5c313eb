"""Parsing of exact rationals from "p/q", integer and decimal strings.  The
inverse is `str(Fraction)`, which prints "p/q", or "p" when the denominator
is 1."""

import re
import sys
from fractions import Fraction

# Fraction builds 10**exponent for a decimal literal, which takes seconds once
# the exponent nears 10^7, so exponents are held to the bound CPython puts on
# the digits of an int literal.
_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal literal like "0.25" into a Fraction."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    exponent = _EXPONENT_RE.search(text)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if exponent and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
        raise ValueError(f"rational {text!r} has an exponent above {limit} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"rational {text!r} must be p/q, an integer or a decimal such as 0.25") from None
