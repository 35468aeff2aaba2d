"""The distributive lattice of finite unions of open rational intervals.

Elements live inside a declared ambient open interval.  All operations are
exact: endpoints are rationals, join is set union, meet is set intersection,
and the order is set containment.  Normalization merges overlapping parts
but keeps merely touching parts separate: ``(0,1)|(1,2)`` is not ``(0,2)``,
because the point 1 is genuinely missing from the open set.

The well-inside relation ``u`` inside ``v`` is witnessed by an element ``w``
with ``u & w = 0`` and ``v | w = 1``; the maximal candidate is the gap
complement of ``u``, so u is well inside v iff ``join(v, gap_complement(u))``
is the top.  The definition of a model that uses the relation is checked in
``tests/helpers.py`` (``subset_models``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from overt.errors import AmbientMismatch, PreconditionFailed
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
# Well inside and covers.
# ---------------------------------------------------------------------------


def gap_complement(u: IntervalElement) -> IntervalElement:
    """The largest element disjoint from u: the open gaps between its parts."""
    lo, hi = u.ambient
    cuts = [lo]
    for p, q in u.parts:
        cuts.extend((p, q))
    cuts.append(hi)
    gaps = [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)]
    return IntervalElement.make(u.ambient, gaps)


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
