"""Formatting and parsing of rationals and rational intervals.

Rationals are ``fractions.Fraction`` values throughout the package; they
print reduced as ``p/q`` (just ``p`` when the denominator is 1) and closed
intervals print as ``[a, b]``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from overt.errors import ParseError


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_interval(lo: Fraction, hi: Fraction) -> str:
    return f"[{format_rational(lo)}, {format_rational(hi)}]"


def parse_rational(text: str, offset: int = 0) -> Fraction:
    """Parse ``p`` or ``p/q``; raises ParseError with the byte offset.

    ``offset`` is where text starts in the caller's input; a malformed
    rational is reported at its first non-blank character.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty rational", offset)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        at = offset + len(text) - len(text.lstrip())
        raise ParseError(f"malformed rational {text!r}", at) from None


def parse_rational_list(text: str, offset: int = 0, most: Optional[int] = None) -> list:
    """Comma-separated rationals, e.g. ``-3/2,0``.  A malformed value is
    reported at its offset, and so is the first value beyond ``most``."""
    out, at = [], offset
    for part in text.split(","):
        if len(out) == most:
            lead = at + len(part) - len(part.lstrip())
            raise ParseError(f"expected at most {most} values", lead)
        out.append(parse_rational(part, at))
        at += len(part) + 1
    return out
