"""Parsing and formatting of exact rationals as "p/q" strings."""

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal literal like "0.25" into a Fraction."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"rational {text!r} must be p/q, an integer or a decimal such as 0.25") from None


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
