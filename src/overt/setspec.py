"""Parser for the set-spec mini-language.

Grammar (offsets in error messages are byte offsets into the input):

    spec := "cantor"
          | "interval:" RAT "," RAT
          | "points:" "(" RAT ["," RAT] ")" (";" "(" RAT ["," RAT] ")")*
          | "disk:" RAT "," RAT "," RAT
          | "segment:" RAT "," RAT "," RAT "," RAT
          | "union(" spec "," spec ")"
          | "image(affine:" RAT "," ... 6 in all ... "," spec ")"

RAT is the rational token of ``overt.rationals``.  Point specs with one
coordinate live on the line, with two in the plane.  An image of a
segment, an interval or a finite set is a segment or a finite set again,
under any map; a disk under a similarity of rational scale is a disk; a
union maps part by part; the Cantor set keeps its exact comparison under a
map whose column (a, d) is nonzero, and under a zero column is the point
(c, f).  Shears and irrational-scale images of disks carry nets only (see
``located.affine_image``).
"""

from __future__ import annotations

from overt import located
from overt.located import EpsilonNetFamily
from overt.rationals import Cursor


def parse_set_spec(text: str) -> EpsilonNetFamily:
    return Cursor(text).parse(_read_spec)


def _read_spec(cur: Cursor) -> EpsilonNetFamily:
    start = cur.skip()
    if cur.match("cantor"):
        return located.cantor_set()
    if cur.match("interval:"):
        at = cur.skip()
        a, b = cur.rationals(2)
        if a >= b:
            raise cur.error(f"empty interval [{a}, {b}]", at)
        return located.interval_set(a, b)
    if cur.match("points:"):
        return _read_points(cur)
    if cur.match("disk:"):
        at = cur.skip()
        cx, cy, r = cur.rationals(3)
        if r <= 0:
            raise cur.error(f"disk radius must be positive, got {r}", at)
        return located.disk_set(cx, cy, r)
    if cur.match("segment:"):
        x1, y1, x2, y2 = cur.rationals(4)
        return located.segment_set(x1, y1, x2, y2)
    if cur.match("union("):
        a = _read_spec(cur)
        cur.expect(",")
        b = _read_spec(cur)
        cur.expect(")")
        return located.union_located(a, b)
    if cur.match("image("):
        cur.expect("affine:")
        coeffs = cur.rationals(6)
        cur.expect(",")
        src = _read_spec(cur)
        cur.expect(")")
        return located.affine_image(src, located.affine_plane_map(*coeffs))
    raise cur.error(f"unknown set constructor {cur.word() or cur.text[start:]!r}", start)


def _read_points(cur: Cursor) -> EpsilonNetFamily:
    start = cur.skip()
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
    raise cur.error("points must be all 1-d or all 2-d", start)
