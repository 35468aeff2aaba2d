"""The distributive lattice of finite unions of open rational intervals.

Elements live inside a declared ambient open interval.  All operations are
exact: endpoints are rationals, join is set union, meet is set intersection,
and the order is set containment.  Normalization merges overlapping parts
but keeps merely touching parts separate: ``(0,1)|(1,2)`` is not ``(0,2)``,
because the point 1 is genuinely missing from the open set.

The well-inside relation ``u`` inside ``v`` is witnessed by an element ``w``
with ``u & w = 0`` and ``v | w = 1``; the maximal candidate is the gap
complement of ``u``, so the relation is decidable by a single construction.
Normality and strong-normality witnesses are built by quarter-splitting the
gaps between the regions each side must cover, which keeps the two covers
separated by the middle half of every gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from overt.errors import AmbientMismatch, InvariantViolation, PreconditionFailed
from overt.rationals import Cursor, format_rational

Part = tuple[Fraction, Fraction]


def _normalize_parts(parts: Iterable[Part], ambient: Part) -> tuple[Part, ...]:
    lo_amb, hi_amb = ambient
    clipped = []
    for p, q in parts:
        p, q = max(p, lo_amb), min(q, hi_amb)
        if p < q:
            clipped.append((p, q))
    clipped.sort()
    merged: list[list[Fraction]] = []
    for p, q in clipped:
        if merged and p < merged[-1][1]:  # strict overlap only; touching stays split
            merged[-1][1] = max(merged[-1][1], q)
        else:
            merged.append([p, q])
    return tuple((p, q) for p, q in merged)


@dataclass(frozen=True)
class IntervalElement:
    """Finite union of disjoint open rational intervals in an ambient interval."""

    ambient: Part
    parts: tuple[Part, ...]

    @staticmethod
    def make(ambient: Part, parts: Iterable[Part] = ()) -> "IntervalElement":
        lo, hi = Fraction(ambient[0]), Fraction(ambient[1])
        if lo >= hi:
            raise PreconditionFailed(f"degenerate ambient ({lo}, {hi})")
        norm = _normalize_parts(
            [(Fraction(p), Fraction(q)) for p, q in parts], (lo, hi)
        )
        return IntervalElement((lo, hi), norm)

    @staticmethod
    def zero(ambient: Part) -> "IntervalElement":
        return IntervalElement.make(ambient, ())

    @staticmethod
    def one(ambient: Part) -> "IntervalElement":
        return IntervalElement.make(ambient, (ambient,))

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @property
    def is_one(self) -> bool:
        return self.parts == (self.ambient,)

    def __str__(self):
        if self.is_zero:
            return "0"
        return "|".join(
            f"({format_rational(p)},{format_rational(q)})" for p, q in self.parts
        )


def _same_ambient(a: IntervalElement, b: IntervalElement) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")


def join(a: IntervalElement, b: IntervalElement) -> IntervalElement:
    _same_ambient(a, b)
    return IntervalElement.make(a.ambient, a.parts + b.parts)


def join_all(ambient: Part, elems: Sequence[IntervalElement]) -> IntervalElement:
    parts: list[Part] = []
    for e in elems:
        if e.ambient != ambient:
            raise AmbientMismatch(f"ambient {e.ambient} vs {ambient}")
        parts.extend(e.parts)
    return IntervalElement.make(ambient, parts)


def meet(a: IntervalElement, b: IntervalElement) -> IntervalElement:
    _same_ambient(a, b)
    parts = []
    for p, q in a.parts:
        for r, s in b.parts:
            lo, hi = max(p, r), min(q, s)
            if lo < hi:
                parts.append((lo, hi))
    return IntervalElement.make(a.ambient, parts)


def lattice_leq(a: IntervalElement, b: IntervalElement) -> bool:
    """Set containment; each (connected) part of a must fit in one part of b."""
    _same_ambient(a, b)
    for p, q in a.parts:
        if not any(r <= p and q <= s for r, s in b.parts):
            return False
    return True


# ---------------------------------------------------------------------------
# Complement pieces.  A piece is a connected component of a set difference,
# carrying closedness flags for its two ends (ends at the ambient boundary
# are always open, a degenerate single point is closed on both sides).
# ---------------------------------------------------------------------------

Piece = tuple[Fraction, Fraction, bool, bool]  # lo, hi, lo_closed, hi_closed


def _subtract_open(piece: Piece, hole: Part) -> list[Piece]:
    a, b, ac, bc = piece
    r, s = hole
    if s <= a or r >= b:  # open hole cannot touch the flagged endpoints either
        return [piece]
    out: list[Piece] = []
    # Left remainder: points of the piece that are <= r.
    if r > a:
        out.append((a, r, ac, True))
    elif r == a and ac:
        out.append((a, a, True, True))
    # Right remainder: points of the piece that are >= s.
    if s < b:
        out.append((s, b, True, bc))
    elif s == b and bc:
        out.append((b, b, True, True))
    return out


def difference_pieces(x: IntervalElement, y: IntervalElement) -> list[Piece]:
    """Connected components of the point set x minus y."""
    _same_ambient(x, y)
    pieces: list[Piece] = [(p, q, False, False) for p, q in x.parts]
    for hole in y.parts:
        nxt: list[Piece] = []
        for piece in pieces:
            nxt.extend(_subtract_open(piece, hole))
        pieces = nxt
    return sorted(pieces)


def complement_pieces(e: IntervalElement) -> list[Piece]:
    return difference_pieces(IntervalElement.one(e.ambient), e)


def gap_complement(u: IntervalElement) -> IntervalElement:
    """The largest element disjoint from u: the open gaps between its parts."""
    lo, hi = u.ambient
    cuts = [lo]
    for p, q in u.parts:
        cuts.extend((p, q))
    cuts.append(hi)
    gaps = [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)]
    return IntervalElement.make(u.ambient, gaps)


def _piece_cover(
    pieces: Sequence[Piece], opposite: Sequence[Fraction], ambient: Part
) -> IntervalElement:
    """Open element covering the pieces, extending closed ends by a quarter
    of the gap to the nearest opposing boundary (or the ambient end)."""
    lo_amb, hi_amb = ambient
    parts = []
    for a, b, ac, bc in pieces:
        if ac:
            left_obs = max([c for c in opposite if c < a], default=lo_amb)
            left_obs = max(left_obs, lo_amb)
            left = a - (a - left_obs) / 4
        else:
            left = a
        if bc:
            right_obs = min([c for c in opposite if c > b], default=hi_amb)
            right_obs = min(right_obs, hi_amb)
            right = b + (right_obs - b) / 4
        else:
            right = b
        parts.append((left, right))
    return IntervalElement.make(ambient, parts)


def _piece_coords(pieces: Sequence[Piece]) -> list[Fraction]:
    coords = []
    for a, b, _, _ in pieces:
        coords.extend((a, b))
    return coords


# ---------------------------------------------------------------------------
# Well inside, normality, covers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WellInsideWitness:
    """w with u & w = 0 and v | w = 1, both exactly."""

    w: IntervalElement


def well_inside(u: IntervalElement, v: IntervalElement) -> Optional[WellInsideWitness]:
    """Witness that u is well inside v, or None.

    The gap complement of u is the largest element disjoint from u, so a
    witness exists iff that particular element joins with v to the top.
    """
    _same_ambient(u, v)
    w = gap_complement(u)
    if not meet(u, w).is_zero:
        raise InvariantViolation("gap complement overlaps its element")
    if join(v, w).is_one:
        return WellInsideWitness(w)
    return None


def normality_witness(
    b1: IntervalElement, b2: IntervalElement
) -> tuple[IntervalElement, IntervalElement]:
    """Given b1 | b2 = 1, split it: c1 & c2 = 0, c1 | b1 = 1, c2 | b2 = 1."""
    _same_ambient(b1, b2)
    if not join(b1, b2).is_one:
        raise PreconditionFailed("normality witness needs b1 | b2 = 1")
    n1 = complement_pieces(b1)
    n2 = complement_pieces(b2)
    c1 = _piece_cover(n1, _piece_coords(n2), b1.ambient)
    c2 = _piece_cover(n2, _piece_coords(n1), b1.ambient)
    if not meet(c1, c2).is_zero:
        raise InvariantViolation("normality covers overlap")
    if not join(c1, b1).is_one or not join(c2, b2).is_one:
        raise InvariantViolation("normality cover misses its complement")
    return c1, c2


def strongly_normal_witness(
    a: IntervalElement, b: IntervalElement
) -> tuple[IntervalElement, IntervalElement]:
    """x, y with a <= b | x, b <= a | y and x & y = 0."""
    _same_ambient(a, b)
    nx = difference_pieces(a, b)
    ny = difference_pieces(b, a)
    x = _piece_cover(nx, _piece_coords(ny), a.ambient)
    y = _piece_cover(ny, _piece_coords(nx), a.ambient)
    if not meet(x, y).is_zero:
        raise InvariantViolation("strong normality covers overlap")
    if not lattice_leq(a, join(b, x)) or not lattice_leq(b, join(a, y)):
        raise InvariantViolation("strong normality cover misses its difference")
    return x, y


def finite_cover_decide(u: IntervalElement, family: Sequence[IntervalElement]) -> bool:
    """Does every element well inside u sit below the join of the family?

    For exact open elements this is equivalent to set containment of u in
    the join: any uncovered point of u admits a small closed neighbourhood
    inside u, hence an element well inside u that escapes the family.
    """
    joined = join_all(u.ambient, list(family)) if family else IntervalElement.zero(u.ambient)
    return lattice_leq(u, joined)


# ---------------------------------------------------------------------------
# Textual syntax: (p,q)|(r,s)|... with rationals as a/b; "0" and "1" denote
# bottom and top of the declared ambient.
# ---------------------------------------------------------------------------


def read_element(cur: Cursor, ambient: Part) -> IntervalElement:
    if cur.match("0"):
        return IntervalElement.zero(ambient)
    if cur.match("1"):
        return IntervalElement.one(ambient)
    parts = [cur.interval()]
    while cur.match("|"):
        parts.append(cur.interval())
    return IntervalElement.make(ambient, parts)


def parse_element(text: str, ambient: Part) -> IntervalElement:
    return Cursor(text).parse(lambda cur: read_element(cur, ambient))
