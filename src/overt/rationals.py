"""Formatting and parsing of rationals and rational intervals, and the one
text cursor that every mini-language of the package reads through.

Rationals are ``fractions.Fraction`` values throughout the package; they
print reduced as ``p/q`` (just ``p`` when the denominator is 1) and closed
intervals print as ``[a, b]``.

Tokens (blanks may stand between tokens, never inside one):

    RAT := ["+" | "-"] DIGITS ["/" DIGITS]     the denominator nonzero
    INT := DIGITS
    DIGITS := one or more of the ASCII digits 0-9

Every reader takes a :class:`Cursor`, reads its value at the cursor's
position and leaves the cursor after it, so a reader of a larger form reads
its parts from the same cursor; ``Cursor.parse`` reads a whole text with
one reader.  A ParseError carries the absolute byte offset of the first
byte that does not fit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from overt.errors import ParseError

_DIGITS = frozenset("0123456789")
_WORD = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_interval(lo: Fraction, hi: Fraction) -> str:
    return f"[{format_rational(lo)}, {format_rational(hi)}]"


class Cursor:
    """A text and a position in it; every error is raised at a position in
    the text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        return ParseError(message, self.pos if at is None else at)

    def skip(self) -> int:
        """Skip blanks; returns the position of the next token."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return pos

    def peek(self) -> str:
        """The next non-blank character, or "" at the end."""
        at = self.skip()
        return self.text[at : at + 1]

    def at_end(self) -> bool:
        return self.skip() == len(self.text)

    def match(self, token: str) -> bool:
        if self.text.startswith(token, self.skip()):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.match(token):
            raise self.error(f"expected {token!r}")

    def finish(self, value):
        """The value read, once nothing but blanks is left."""
        if not self.at_end():
            raise self.error(f"trailing input {self.text[self.pos:]!r}")
        return value

    def parse(self, read: Callable[["Cursor"], object]):
        """The value ``read`` reads from the whole text.  A text nested too
        deep for the interpreter's stack is a ParseError at the byte reached."""
        try:
            value = read(self)
        except RecursionError:
            raise self.error("nesting too deep") from None
        return self.finish(value)

    def _run(self, chars: frozenset) -> str:
        start, text = self.pos, self.text
        while self.pos < len(text) and text[self.pos] in chars:
            self.pos += 1
        return text[start : self.pos]

    def _int(self, digits: str, at: int) -> int:
        try:
            return int(digits)
        except ValueError:  # beyond the interpreter's digit limit
            raise self.error(f"number too long ({len(digits)} digits)", at) from None

    def word(self) -> str:
        """The next run of ASCII letters, digits and '_', possibly empty."""
        self.skip()
        return self._run(_WORD)

    def digits(self) -> str:
        """The next run of ASCII digits, possibly empty."""
        self.skip()
        return self._run(_DIGITS)

    def integer(self) -> int:
        at = self.skip()
        digits = self.digits()
        if not digits:
            raise self.error("expected an integer", at)
        return self._int(digits, at)

    def rational(self) -> Fraction:
        """A RAT token; a malformed one is reported at its first byte."""
        at = self.skip()
        sign = -1 if self.text.startswith("-", at) else 1
        if self.text.startswith(("+", "-"), at):
            self.pos += 1
        num, den = self._run(_DIGITS), "1"
        if not num:
            raise self.error("expected a rational", at)
        if self.text.startswith("/", self.pos):
            self.pos += 1
            den = self._run(_DIGITS)
            if not den.strip("0"):
                raise self.error(f"malformed rational {self.text[at:self.pos]!r}", at)
        return Fraction(sign * self._int(num, at), self._int(den, at))

    def rationals(self, count: int) -> list:
        """Exactly ``count`` comma-separated rationals."""
        out = [self.rational()]
        for _ in range(count - 1):
            self.expect(",")
            out.append(self.rational())
        return out

    def rational_list(self, most: Optional[int] = None) -> list:
        """Comma-separated rationals; a value beyond ``most`` is reported at
        its first byte."""
        out = [self.rational()]
        while self.match(","):
            if len(out) == most:
                raise self.error(f"expected at most {most} values", self.skip())
            out.append(self.rational())
        return out

    def interval(self) -> tuple:
        """``(p,q)`` with p < q; an empty one is reported at its '('."""
        at = self.skip()
        self.expect("(")
        p = self.rational()
        self.expect(",")
        q = self.rational()
        self.expect(")")
        if p >= q:
            raise self.error(f"empty interval ({p},{q})", at)
        return (p, q)

    def separated(self, read: Callable[["Cursor"], object], sep: str) -> list:
        """The values read by ``read`` between ``sep`` marks; blank members
        are skipped."""
        out = []
        while True:
            if self.peek() not in (sep, ""):
                out.append(read(self))
            if not self.match(sep):
                return out


def parse_rational(text: str) -> Fraction:
    """``p`` or ``p/q`` and nothing else; raises ParseError with the byte
    offset."""
    return Cursor(text).parse(Cursor.rational)


def parse_rational_list(text: str, most: Optional[int] = None) -> list:
    """Comma-separated rationals, e.g. ``-3/2,0``.  A malformed value is
    reported at its offset, and so is the first value beyond ``most``."""
    return Cursor(text).parse(lambda cur: cur.rational_list(most))
