"""The modal lattice on generators dia(u), box(u) over a carrier lattice.

``dia(u)`` reads "the region meets u", ``box(u)`` reads "the region is
inside u".  Terms are lattice words over these generators modulo

1. dia u | dia v = dia (u | v)
2. box u & box v = box (u & v)
3. box u & dia v <= dia (u & v)
4. box (u | v) <= box u | dia v
5. dia 0 = 0
6. box 1 = 1

Equations 1, 2, 5, 6 are used as rewrites and 3 trims diamonds inside a
tile; 4 is an inequality and is never rewritten.  The normal form is a join
of *tiles* box(a) & dia(b_1) & ... & dia(b_k) with every b_i below a.

A model assigns to the carrier a positivity predicate: empty at bottom,
upward closed, splitting joins, and answering the well-inside dichotomy.
That definition is checked subset by subset in ``tests/helpers.py``
(``subset_models``), the oracle the enumeration here is tested against.
Models evaluate dia(u) as positivity of u and box(u) as "u joins with the
non-positive part to the top".  Carriers are distributive lattices; the
finite ones rely on it, since on a finite distributive carrier the models
are exactly the principal ones, {u : not u <= n} for each element n
(Birkhoff), which yields an exact inequality decision in |L| model
evaluations.  The syntactic normal-form comparison is sound but not claimed
complete, and is the only decision offered for infinite carriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional

from overt import intervals as ilat
from overt.errors import InvariantViolation, PreconditionFailed
from overt.intervals import IntervalElement
from overt.rationals import Cursor


# ---------------------------------------------------------------------------
# Carriers.
# ---------------------------------------------------------------------------


class Carrier:
    """A distributive lattice the modal terms range over.

    A carrier has a ``name`` and these members: ``elements()``, all
    elements or None when the carrier is infinite; ``leq(u, v)``,
    ``meet(u, v)`` and ``join(u, v)``; the elements ``bot`` and ``top``;
    ``format_element(u)``; and ``read_element(cur)``, which reads one
    element at a :class:`~overt.rationals.Cursor`.
    """

    def parse_element(self, text: str):
        return Cursor(text).parse(self.read_element)


MAX_CARRIER_ELEMENTS = 1024


def _check_carrier_size(count: int) -> None:
    if count > MAX_CARRIER_ELEMENTS:
        raise PreconditionFailed(
            f"carrier of {count} elements exceeds the cap of {MAX_CARRIER_ELEMENTS}"
        )


class FiniteCarrier(Carrier):
    """Finite distributive lattice given by explicit tables.

    Distributivity is a precondition, not checked: model enumeration and
    ``term_leq`` are exact only on distributive tables.  The builtin chains,
    Boolean lattices and grids are distributive.
    """

    def __init__(self, name, elems, leq, meet, join, bot, top, format_element, read_element):
        self.name = name
        self._elems = tuple(elems)
        self.leq = leq
        self.meet = meet
        self.join = join
        self.bot = bot
        self.top = top
        self.format_element = format_element
        self.read_element = read_element

    def elements(self):
        return self._elems


def chain(n: int) -> FiniteCarrier:
    """The n-element chain 0 < 1 < ... < n-1."""
    if n < 2:
        raise PreconditionFailed("chain needs at least two elements")
    _check_carrier_size(n)
    return FiniteCarrier(
        f"chain:{n}",
        range(n),
        lambda u, v: u <= v,
        min,
        max,
        0,
        n - 1,
        str,
        lambda cur: _read_index(cur, n),
    )


def _read_index(cur: Cursor, n: int) -> int:
    at = cur.skip()
    k = cur.integer()
    if k >= n:
        raise cur.error(f"chain index {k} out of range 0..{n - 1}", at)
    return k


_ATOMS = "abcdefgh"


def boolean(n: int) -> FiniteCarrier:
    """The Boolean lattice of subsets of n atoms (2**n elements)."""
    if not 1 <= n <= len(_ATOMS):
        raise PreconditionFailed(f"boolean carrier supports 1..{len(_ATOMS)} atoms")

    def fmt(mask: int) -> str:
        if mask == 0:
            return "{}"
        return "".join(_ATOMS[i] for i in range(n) if mask >> i & 1)

    def read(cur: Cursor) -> int:
        if cur.match("{}"):
            return 0
        at = cur.skip()
        atoms = cur.word()
        if not atoms:
            raise cur.error("expected atoms or {}", at)
        mask = 0
        for i, ch in enumerate(atoms):
            if ch not in _ATOMS[:n]:
                raise cur.error(f"unknown atom {ch!r}", at + i)
            mask |= 1 << _ATOMS.index(ch)
        return mask

    full = (1 << n) - 1
    return FiniteCarrier(
        f"bool:{n}",
        range(1 << n),
        lambda u, v: u & v == u,
        lambda u, v: u & v,
        lambda u, v: u | v,
        0,
        full,
        fmt,
        read,
    )


def grid(m: int, n: int) -> FiniteCarrier:
    """Product of two chains: pairs ordered componentwise."""
    if m < 2 or n < 2:
        raise PreconditionFailed("grid needs chains of length at least two")
    _check_carrier_size(m * n)
    elems = [(i, j) for i in range(m) for j in range(n)]

    def read(cur: Cursor):
        i = _read_index(cur, m)
        cur.expect(",")
        return (i, _read_index(cur, n))

    return FiniteCarrier(
        f"grid:{m},{n}",
        elems,
        lambda u, v: u[0] <= v[0] and u[1] <= v[1],
        lambda u, v: (min(u[0], v[0]), min(u[1], v[1])),
        lambda u, v: (max(u[0], v[0]), max(u[1], v[1])),
        (0, 0),
        (m - 1, n - 1),
        lambda u: f"{u[0]},{u[1]}",
        read,
    )


class IntervalCarrier(Carrier):
    """Finite unions of open rational intervals in an ambient: infinite."""

    leq = staticmethod(ilat.lattice_leq)
    meet = staticmethod(ilat.meet)
    join = staticmethod(ilat.join)
    format_element = staticmethod(str)

    def __init__(self, ambient: tuple):
        lo, hi = Fraction(ambient[0]), Fraction(ambient[1])
        self.ambient = (lo, hi)
        self.name = f"intervals:({lo},{hi})"
        self.bot = IntervalElement.zero(self.ambient)
        self.top = IntervalElement.one(self.ambient)

    def elements(self):
        return None

    def read_element(self, cur):
        return ilat.read_element(cur, self.ambient)


# ---------------------------------------------------------------------------
# Terms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dia:
    u: object


@dataclass(frozen=True)
class Box:
    u: object


@dataclass(frozen=True)
class TermMeet:
    left: object
    right: object


@dataclass(frozen=True)
class TermJoin:
    left: object
    right: object


class _Const:
    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


TERM_ZERO = _Const("0")
TERM_ONE = _Const("1")


def format_term(t, L: Carrier) -> str:
    if t is TERM_ZERO or t is TERM_ONE:
        return repr(t)
    if isinstance(t, Dia):
        return f"dia({L.format_element(t.u)})"
    if isinstance(t, Box):
        return f"box({L.format_element(t.u)})"
    if isinstance(t, TermMeet):
        return f"({format_term(t.left, L)} & {format_term(t.right, L)})"
    if isinstance(t, TermJoin):
        return f"({format_term(t.left, L)} | {format_term(t.right, L)})"
    raise PreconditionFailed(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Models.
# ---------------------------------------------------------------------------


def enumerate_models(L: Carrier) -> list[frozenset]:
    """All positivity models of a finite distributive carrier, ordered by
    size and then by the enumeration indices of their elements.

    The models are the principal ones, {u : not u <= n} for each n.  The
    non-positive elements of a model contain bottom, are down-closed and
    are closed under binary joins, so they form an ideal, and every ideal
    of a finite lattice is principal.  Conversely each such set is a model:
    on a distributive carrier the well-inside clause adds nothing, since
    u << v with witness w gives u = u & (v | w) = (u & v) | (u & w) = u & v,
    so u <= v.  Distinct n give distinct models.
    """
    elems = L.elements()
    if elems is None:
        raise PreconditionFailed("model enumeration needs a finite carrier")
    idx = {e: i for i, e in enumerate(elems)}
    models = [frozenset(u for u in elems if not L.leq(u, n)) for n in elems]
    models.sort(key=lambda m: (len(m), sorted(idx[e] for e in m)))
    return models


@dataclass
class Point:
    """A point of the modal lattice: boolean values for the generators."""

    dia: Callable[[object], bool]
    box: Callable[[object], bool]

    def evaluate(self, t) -> bool:
        if t is TERM_ZERO:
            return False
        if t is TERM_ONE:
            return True
        if isinstance(t, Dia):
            return bool(self.dia(t.u))
        if isinstance(t, Box):
            return bool(self.box(t.u))
        if isinstance(t, TermMeet):
            return self.evaluate(t.left) and self.evaluate(t.right)
        if isinstance(t, TermJoin):
            return self.evaluate(t.left) or self.evaluate(t.right)
        raise PreconditionFailed(f"not a term: {t!r}")


def nonpositive_join(L: Carrier, pos: frozenset):
    n = L.bot
    for e in L.elements():
        if e not in pos:
            n = L.join(n, e)
    return n


def loc_to_point(pos: frozenset, L: Carrier) -> Point:
    """The point with dia(u) = positivity and box(u) = "u fills the space up
    to the non-positive part".  Raises if a modal relation fails, naming it."""
    n = nonpositive_join(L, pos)
    point = Point(
        dia=lambda u: u in pos,
        box=lambda u: L.join(u, n) == L.top,
    )
    violations = validate_point(point, L)
    if violations:
        raise PreconditionFailed(
            "positivity data is not a model; failing relations: "
            + ", ".join(_describe_violation(L, v) for v in violations)
        )
    return point


def _describe_violation(L: Carrier, violation) -> str:
    rel, args = violation
    pretty = " ".join(L.format_element(a) for a in args)
    return f"relation {rel} at {pretty}" if args else f"relation {rel}"


def validate_point(point: Point, L: Carrier) -> list:
    """All failures of the six relations, each as (relation number, args)."""
    elems = L.elements()
    if elems is None:
        raise PreconditionFailed("point validation needs a finite carrier")
    out = []
    for u in elems:
        for v in elems:
            if point.dia(L.join(u, v)) != (point.dia(u) or point.dia(v)):
                out.append((1, (u, v)))
            if point.box(L.meet(u, v)) != (point.box(u) and point.box(v)):
                out.append((2, (u, v)))
            if point.box(u) and point.dia(v) and not point.dia(L.meet(u, v)):
                out.append((3, (u, v)))
            if point.box(L.join(u, v)) and not (point.box(u) or point.dia(v)):
                out.append((4, (u, v)))
    if point.dia(L.bot):
        out.append((5, (L.bot,)))
    if not point.box(L.top):
        out.append((6, (L.top,)))
    return out


def point_to_loc(point: Point, L: Carrier) -> frozenset:
    """Read the positivity model back off a point satisfying the relations."""
    violations = validate_point(point, L)
    if violations:
        raise PreconditionFailed(
            "point violates the modal relations: "
            + ", ".join(_describe_violation(L, v) for v in violations)
        )
    pos = frozenset(u for u in L.elements() if point.dia(u))
    if not is_principal_model(L, pos):
        raise InvariantViolation("diamond values of a valid point must form a model")
    return pos


def is_principal_model(L: Carrier, pos: frozenset) -> bool:
    """Whether pos is the principal model {u : not u <= n} of its
    non-positive join n, in O(|L|) lattice operations.  On a finite
    distributive carrier these are all the models (see
    :func:`enumerate_models`)."""
    n = nonpositive_join(L, pos)
    return all((u in pos) != L.leq(u, n) for u in L.elements())


def model_point(L: Carrier, pos: frozenset) -> Point:
    """loc_to_point without the validation pass (for bulk evaluation)."""
    n = nonpositive_join(L, pos)
    return Point(dia=lambda u: u in pos, box=lambda u: L.join(u, n) == L.top)


# ---------------------------------------------------------------------------
# Tile normal form.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tile:
    """box(a) & dia(b_1) & ... & dia(b_k) with each b_i <= a; the diamonds
    form a set, so equal tiles compare and hash equal with no sort."""

    box: object
    diamonds: frozenset


@dataclass(frozen=True)
class TileNormalForm:
    tiles: tuple


def _make_tile(L: Carrier, box, diamonds) -> Optional[Tile]:
    """Trim diamonds below the box (relation 3 as an equality inside a
    tile), drop the tile when a diamond dies (relation 5), keep diamonds as
    a minimal antichain."""
    trimmed = set()
    for d in diamonds:
        d = L.meet(d, box)
        if d == L.bot:
            return None
        trimmed.add(d)
    minimal = (d for d in trimmed if not any(L.leq(e, d) and e != d for e in trimmed))
    return Tile(box, frozenset(minimal))


def _tile_leq(L: Carrier, t1: Tile, t2: Tile) -> bool:
    """Sound syntactic tile comparison: boxes compare and every diamond of
    the larger is dominated from below."""
    if not L.leq(t1.box, t2.box):
        return False
    return all(any(L.leq(d1, d2) for d1 in t1.diamonds) for d2 in t2.diamonds)


def normalize(t, L: Carrier) -> TileNormalForm:
    """The join of tiles of t, pure diamonds merged into one (relation 1)
    and equal tiles kept once.  No tile absorbs another: :func:`term_leq`
    asks only whether each tile lies below some tile, and that answer does
    not change when a tile below another is dropped."""
    pure, rest = [], []
    for tile in _normalize_tiles(t, L):
        (pure if tile.box == L.top and len(tile.diamonds) == 1 else rest).append(tile)
    if len(pure) > 1:
        u = reduce(L.join, (d for tile in pure for d in tile.diamonds))
        pure = [Tile(L.top, frozenset({u}))]
    return TileNormalForm(tuple(dict.fromkeys(rest + pure)))


def _normalize_tiles(t, L: Carrier) -> list[Tile]:
    if t is TERM_ZERO:
        return []
    if t is TERM_ONE:
        return [Tile(L.top, frozenset())]
    if isinstance(t, Dia):
        tile = _make_tile(L, L.top, (t.u,))
        return [tile] if tile else []
    if isinstance(t, Box):
        return [Tile(t.u, frozenset())]
    if isinstance(t, TermJoin):
        return _normalize_tiles(t.left, L) + _normalize_tiles(t.right, L)
    if isinstance(t, TermMeet):
        left = _normalize_tiles(t.left, L)
        right = _normalize_tiles(t.right, L)
        out = []
        for t1 in left:
            for t2 in right:
                tile = _make_tile(
                    L, L.meet(t1.box, t2.box), t1.diamonds | t2.diamonds
                )
                if tile:
                    out.append(tile)
        return out
    raise PreconditionFailed(f"not a term: {t!r}")


def evaluate_nf(nf: TileNormalForm, point: Point) -> bool:
    for tile in nf.tiles:
        if point.box(tile.box) and all(point.dia(d) for d in tile.diamonds):
            return True
    return False


# ---------------------------------------------------------------------------
# Inequality decision.
# ---------------------------------------------------------------------------


def term_leq(s, t, L: Carrier) -> Optional[bool]:
    """s <= t in the modal lattice.

    Finite carriers: exact, by evaluating both terms at every model, read
    directly off its principal ideal n (see :func:`enumerate_models`): dia(u)
    holds when not u <= n, box(u) when u | n is the top.  Infinite carriers:
    the sound normal-form comparison; True is trustworthy, None is Unknown.
    """
    elems = L.elements()
    if elems is not None:
        top = L.top
        for n in elems:
            p = Point(dia=lambda u: not L.leq(u, n), box=lambda u: L.join(u, n) == top)
            if p.evaluate(s) and not p.evaluate(t):
                return False
        return True
    ns, nt = normalize(s, L), normalize(t, L)
    if all(any(_tile_leq(L, t1, t2) for t2 in nt.tiles) for t1 in ns.tiles):
        return True
    return None


# ---------------------------------------------------------------------------
# Parsing: dia(u), box(u), &, |, 0, 1, parentheses.
# ---------------------------------------------------------------------------


def parse_term(text: str, L: Carrier):
    return Cursor(text).parse(lambda cur: _read_join(cur, L))


def _read_join(cur: Cursor, L: Carrier):
    t = _read_meet(cur, L)
    while cur.match("|"):
        t = TermJoin(t, _read_meet(cur, L))
    return t


def _read_meet(cur: Cursor, L: Carrier):
    t = _read_factor(cur, L)
    while cur.match("&"):
        t = TermMeet(t, _read_factor(cur, L))
    return t


def _read_factor(cur: Cursor, L: Carrier):
    if cur.match("0"):
        return TERM_ZERO
    if cur.match("1"):
        return TERM_ONE
    if cur.match("("):
        t = _read_join(cur, L)
        cur.expect(")")
        return t
    for kw, ctor in (("dia", Dia), ("box", Box)):
        if cur.match(kw):
            cur.expect("(")
            u = L.read_element(cur)
            cur.expect(")")
            return ctor(u)
    if cur.at_end():
        raise cur.error("unexpected end of term")
    raise cur.error(f"unexpected character {cur.peek()!r}")


def parse_carrier(name: str) -> Carrier:
    """``chain:n``, ``bool:n``, ``grid:m,n`` or ``intervals:(a,b)``.

    Finite carriers are capped at ``MAX_CARRIER_ELEMENTS`` elements; the cap
    is checked from the sizes, before any element is built.
    """
    cur = Cursor(name)
    at = cur.skip()
    kind = cur.word()
    if kind not in ("chain", "bool", "grid", "intervals"):
        raise cur.error(f"unknown carrier {name!r}", at)
    cur.expect(":")
    if kind == "intervals":
        return IntervalCarrier(cur.finish(cur.interval()))
    at = cur.skip()
    sizes = [cur.integer()]
    if kind == "grid":
        if not cur.match(","):
            raise cur.error(f"grid needs two sizes, got {name!r}", at)
        sizes.append(cur.integer())
    cur.finish(None)
    return {"chain": chain, "bool": boolean, "grid": grid}[kind](*sizes)
