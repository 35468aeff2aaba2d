"""Parser for the set-spec mini-language.

Grammar (offsets in error messages are byte offsets into the input):

    spec := "cantor"
          | "interval:" RAT "," RAT
          | "points:" "(" RAT ["," RAT] ")" (";" "(" RAT ["," RAT] ")")*
          | "disk:" RAT "," RAT "," RAT
          | "segment:" RAT "," RAT "," RAT "," RAT
          | "union(" spec "," spec ")"
          | "image(affine:" RAT "," ... 6 in all ... "," spec ")"

Point specs with one coordinate live on the line, with two in the plane.
An image keeps its source's exact distance comparison where the map
carries it (see ``located.affine_image``).
"""

from __future__ import annotations

from fractions import Fraction

from overt import located
from overt.errors import ParseError
from overt.located import EpsilonNetFamily

_RAT_CHARS = set("0123456789/-+")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def match(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.match(token):
            raise ParseError(f"expected {token!r}", self.pos)

    def rational(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _RAT_CHARS:
            self.pos += 1
        chunk = self.text[start : self.pos]
        if not chunk:
            raise ParseError("expected a rational", start)
        try:
            return Fraction(chunk)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed rational {chunk!r}", start) from None

    def rationals(self, count: int) -> list[Fraction]:
        out = [self.rational()]
        for _ in range(count - 1):
            self.expect(",")
            out.append(self.rational())
        return out


def parse_set_spec(text: str) -> EpsilonNetFamily:
    cur = _Cursor(text)
    family = _parse_spec(cur)
    cur.skip_ws()
    if cur.pos != len(text):
        raise ParseError(f"trailing input {text[cur.pos:]!r}", cur.pos)
    return family


def _parse_spec(cur: _Cursor) -> EpsilonNetFamily:
    cur.skip_ws()
    start = cur.pos
    if cur.match("cantor"):
        return located.cantor_set()
    if cur.match("interval:"):
        at = cur.pos
        a, b = cur.rationals(2)
        if a >= b:
            raise ParseError(f"empty interval [{a}, {b}]", at)
        return located.interval_set(a, b)
    if cur.match("points:"):
        return _parse_points(cur)
    if cur.match("disk:"):
        at = cur.pos
        cx, cy, r = cur.rationals(3)
        if r <= 0:
            raise ParseError(f"disk radius must be positive, got {r}", at)
        return located.disk_set(cx, cy, r)
    if cur.match("segment:"):
        x1, y1, x2, y2 = cur.rationals(4)
        return located.segment_set(x1, y1, x2, y2)
    if cur.match("union("):
        a = _parse_spec(cur)
        cur.expect(",")
        b = _parse_spec(cur)
        cur.expect(")")
        return located.union_located(a, b)
    if cur.match("image("):
        cur.expect("affine:")
        coeffs = cur.rationals(6)
        cur.expect(",")
        src = _parse_spec(cur)
        cur.expect(")")
        return located.affine_image(src, located.affine_plane_map(*coeffs))
    word = cur.text[start:].split(":")[0].split("(")[0].strip() or cur.text[start:]
    raise ParseError(f"unknown set constructor {word!r}", start)


def _parse_points(cur: _Cursor) -> EpsilonNetFamily:
    start = cur.pos
    chunks = []
    while True:
        cur.expect("(")
        first = cur.rational()
        if cur.match(","):
            chunks.append((first, cur.rational()))
        else:
            chunks.append((first,))
        cur.expect(")")
        if not cur.match(";"):
            break
    dims = {len(c) for c in chunks}
    if dims == {1}:
        return located.point_set([c[0] for c in chunks])
    if dims == {2}:
        return located.plane_point_set(chunks)
    raise ParseError("points must be all 1-d or all 2-d", start)
