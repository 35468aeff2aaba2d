"""Inductively generated formal covers with bounded-depth derivation search.

A :class:`Base` presents a space: opaque basic opens, a decidable preorder,
and budget-indexed finite axiom families.  Cover judgments ``u below U`` are
established by finite derivation trees built from

* ``ref``    -- u belongs to the target family;
* ``ext``    -- u sits below a listed member of the target;
* axiom leaves -- a declared covering family of u is contained in the target;
* ``tra``    -- an axiom family for u, with one sub-derivation per member;
* ``poshyp`` -- the positively-closed discharge: with a decidable hereditary
  predicate F, the generating clause "if F(u) then u is covered" holds
  vacuously whenever F(u) fails.

The sublocales searched are the ones the paper's results run through,
closed and positively closed.  Closed sublocales do not need a rule of
their own: covering u by V in the closed sublocale determined by W means
covering u by V together with W, so the search simply enlarges the target.

The search returns ``None`` (Unknown) when no derivation is found within
the depth bound; Unknown is never a refutation.  On the formal reals it runs
on an integer view of the base: every endpoint is an integer over one scale
fixed before the search, and the derivation found is decoded to rationals
once, at the end.  It keeps one record per
element, for the one call only: the element's derivation of least depth
once found, else the highest depth at which it has none, and its
candidate instances.  Each element deepens on its own, one depth at a
time and only as far as a search asks, so every derivation found is of
least depth.  A visit costs one dictionary lookup, or none once a ``tra``
loop holds the member's record; the leaf rules, which do not depend on
the depth, are judged once per element, when its record is made, and the
instances are built once.  Every returned derivation passes
:func:`check_derivation`, which is written independently of the
search and validates each node locally.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from overt.errors import InvariantViolation, PreconditionFailed
from overt.intervals import IntervalElement, finite_cover_decide
from overt.rationals import Cursor, format_rational


class _Top:
    """Synthetic greatest element: the whole space, the left side of
    whole-space cover axioms."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "top"


TOP = _Top()


# ---------------------------------------------------------------------------
# Targets: finite element lists plus decidable membership predicates.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetPredicate:
    """Decidable membership oracle for a (possibly infinite) set of basics.

    The same shape serves as a positivity oracle on basic opens, since the
    positive basics are a set: ``filter_positive`` and
    ``check_positivity_axioms`` take one.

    ``hints`` are values (rational endpoints, elements) that instance
    synthesis may use when searching for derivations against this set.
    """

    name: str
    fn: Callable[[object], bool]
    hints: tuple = ()

    def __call__(self, e) -> bool:
        return bool(self.fn(e))


class EltSet:
    """Target of a cover judgment: listed elements plus predicate parts."""

    def __init__(self, listed: Iterable = (), predicates: Iterable[SetPredicate] = ()):
        self.listed = tuple(listed)
        self._listed_set = set(self.listed)
        self.predicates = tuple(predicates)

    def contains(self, e) -> bool:
        if e in self._listed_set:
            return True
        return any(p(e) for p in self.predicates)

    def extend(self, listed: Iterable = (), predicates: Iterable[SetPredicate] = ()) -> "EltSet":
        return EltSet(self.listed + tuple(listed), self.predicates + tuple(predicates))

    def hint_values(self) -> tuple:
        out = []
        for p in self.predicates:
            out.extend(p.hints)
        return tuple(out)

    def __repr__(self):
        preds = ",".join(p.name for p in self.predicates)
        return f"EltSet({list(self.listed)!r}{' + ' + preds if preds else ''})"


def as_target(family) -> EltSet:
    if isinstance(family, EltSet):
        return family
    return EltSet(listed=tuple(family))


# ---------------------------------------------------------------------------
# Sublocale specifications.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedSub:
    """Closed sublocale: complement of the (listed + predicate) open set."""

    listed: tuple = ()
    predicates: tuple = ()

    def __init__(self, listed: Iterable = (), predicates: Iterable[SetPredicate] = ()):
        object.__setattr__(self, "listed", tuple(listed))
        object.__setattr__(self, "predicates", tuple(predicates))


@dataclass(frozen=True)
class PosClosedSub:
    """Positively closed sublocale generated by a decidable hereditary
    predicate.  The predicate's hints feed instance synthesis."""

    pred: SetPredicate


# ---------------------------------------------------------------------------
# Derivations.
# ---------------------------------------------------------------------------

_STRUCTURAL_RULES = ("ref", "ext", "tra", "poshyp")


@dataclass(frozen=True)
class Derivation:
    rule: str
    element: object
    witness: object = None
    premises: tuple = ()

    def tree_depth(self) -> int:
        if not self.premises:
            return 1
        return 1 + max(p.tree_depth() for p in self.premises)

    def nodes(self):
        yield self
        for p in self.premises:
            yield from p.nodes()


# ---------------------------------------------------------------------------
# Bases.
# ---------------------------------------------------------------------------


class Base:
    """A presented space.  Subclasses supply the preorder and the axioms."""

    name = "base"

    def leq(self, u, v) -> bool:
        raise NotImplementedError

    def axiom_instances(self, u, budget: int) -> list[tuple[str, tuple]]:
        """Declared covering families of u, finitely many per budget,
        deterministic and monotone in the budget."""
        raise NotImplementedError

    def axiom_valid(self, axiom: str, u, family: tuple) -> bool:
        """Decide whether (axiom, u, family) is a legitimate instance.
        Used by the checker; independent of enumeration budgets."""
        raise NotImplementedError

    def candidate_instances(self, u, budget: int, target: EltSet) -> list[tuple[str, tuple]]:
        """Instances offered to the search; may be target-directed."""
        return self.axiom_instances(u, budget)

    def top(self):
        return None

    def sample_elements(self, rng: random.Random, count: int) -> list:
        raise NotImplementedError

    def format_element(self, u) -> str:
        raise NotImplementedError

    def read_element(self, cur: Cursor):
        """Read one element at the cursor."""
        raise NotImplementedError

    def parse_element(self, text: str):
        return Cursor(text).parse(self.read_element)


class FormalRealsBase(Base):
    """The coverage of the formal reals on open rational intervals.

    Elements are pairs (p, q) of rationals with p < q, ordered by inclusion.
    The declared axiom is the two-interval split: (p, s) is covered by
    {(p, r), (q, s)} whenever p <= q < r <= s.  Splits are exact covers, so
    every derivable judgment is semantically true; in particular judgments
    like (0,1) below {(0,1/2)} stay Unknown at every depth.

    With a declared ambient interval the base also carries a synthetic top
    covered by the ambient interval.

    A search on this base runs on its integer view (``_IntegerReals``): the
    same splits over integer endpoints, so that no ``Fraction`` is hashed or
    compared while it runs.
    """

    name = "reals"

    def __init__(self, ambient: Optional[tuple[Fraction, Fraction]] = None):
        self.ambient = None
        if ambient is not None:
            lo, hi = Fraction(ambient[0]), Fraction(ambient[1])
            if lo >= hi:
                raise PreconditionFailed(f"degenerate ambient ({lo}, {hi})")
            self.ambient = (lo, hi)

    def leq(self, u, v) -> bool:
        if v is TOP:
            return True
        if u is TOP:
            return False
        return v[0] <= u[0] and u[1] <= v[1]

    def top(self):
        return TOP if self.ambient is not None else None

    def axiom_valid(self, axiom: str, u, family: tuple) -> bool:
        if axiom == "amb":
            return u is TOP and self.ambient is not None and tuple(family) == (self.ambient,)
        if axiom != "split" or u is TOP or len(family) != 2:
            return False
        p, s = u
        for left, right in (family, (family[1], family[0])):
            if left is TOP or right is TOP:
                continue
            (lp, r), (q, rs) = left, right
            if lp == p and rs == s and p <= q < r <= s:
                return True
        return False

    def axiom_instances(self, u, budget: int) -> list[tuple[str, tuple]]:
        if u is TOP:
            return [("amb", (self.ambient,))] if self.ambient is not None else []
        return self.candidate_instances(u, budget, EltSet())

    def candidate_instances(self, u, budget: int, target: EltSet) -> list[tuple[str, tuple]]:
        if u is TOP:
            return self.axiom_instances(u, budget)
        p, s = u
        return _splits(p, s, p + (s - p) / 2, sorted(set(_pool_values(target))))

    def sample_elements(self, rng: random.Random, count: int) -> list:
        lo, hi = self.ambient if self.ambient is not None else (Fraction(-4), Fraction(4))
        span = hi - lo
        out = []
        for _ in range(count):
            den = 2 ** rng.randint(2, 5)
            a = rng.randint(0, den - 2)
            b = rng.randint(a + 1, den - 1)
            out.append((lo + span * Fraction(a, den), lo + span * Fraction(b, den)))
        return out

    def format_element(self, u) -> str:
        if u is TOP:
            return "top"
        return f"({format_rational(u[0])},{format_rational(u[1])})"

    def read_element(self, cur: Cursor):
        return TOP if cur.match("top") else cur.interval()


def _pool_values(target: EltSet) -> list:
    """The endpoints of the target's listed intervals and its rational hints,
    the split points a search on the reals may use besides midpoints."""
    pool = [x for e in target.listed if e is not TOP for x in e]
    pool.extend(Fraction(h) for h in target.hint_values() if isinstance(h, (Fraction, int)))
    return pool


def _splits(p, s, mid, pool: list) -> list[tuple[str, tuple]]:
    """The splits ((p, r), (q, s)) of (p, s) for q < r among p, s, the
    midpoint and the points of the sorted pool strictly between p and s, in
    increasing order of q, then of r.  The points are distinct, so each pair
    is a new family."""
    inner = pool[bisect_right(pool, p) : bisect_left(pool, s)]
    at = bisect_left(inner, mid)
    if at == len(inner) or inner[at] != mid:
        inner.insert(at, mid)
    points = [p, *inner, s]
    return [
        ("split", ((p, r), (q, s))) for i, q in enumerate(points) for r in points[i + 1 :]
    ]


class _IntegerReals(FormalRealsBase):
    """The formal reals of one search over integer endpoints: the element
    (p, s) is (p*S, s*S) for the scale S = L * 2**(depth + 1), L the lcm of
    the denominators of the root, the listed endpoints, the hints and the
    ambient.  An element k splits below the root has its endpoints in
    (1/(L*2**k))Z, and only k <= depth - 1 gets a record, so every midpoint
    the search takes is an exact halving.  The split points of the target
    are sorted once, when the view is made.  Predicates see decoded
    elements; ``decode_derivation`` turns the derivation found back into
    rationals.  The view keeps no target, so a search leaves no cycle."""

    def __init__(self, base: FormalRealsBase, u, target: EltSet, depth: int):
        pool = _pool_values(target)
        ends = [*pool, *(() if u is TOP else u), *(base.ambient or ())]
        self.scale = math.lcm(*(x.denominator for x in ends)) << (max(depth, 0) + 1)
        self.ambient = None if base.ambient is None else self.encode(base.ambient)
        self._pool = sorted({self._int(x) for x in pool})
        self._decoded: dict = {}

    def _int(self, x) -> int:
        return x.numerator * (self.scale // x.denominator)

    def encode(self, e):
        return e if e is TOP else (self._int(e[0]), self._int(e[1]))

    def decode(self, e):
        if e is TOP:
            return TOP
        out = self._decoded.get(e)
        if out is None:
            out = self._decoded[e] = (Fraction(e[0], self.scale), Fraction(e[1], self.scale))
        return out

    def decoding(self, pred: SetPredicate) -> SetPredicate:
        """The predicate on encoded elements."""
        fn, decode = pred.fn, self.decode
        return SetPredicate(pred.name, lambda e: fn(decode(e)))

    def encode_target(self, target: EltSet) -> EltSet:
        return EltSet(map(self.encode, target.listed), map(self.decoding, target.predicates))

    def candidate_instances(self, u, budget: int, target: EltSet) -> list[tuple[str, tuple]]:
        if u is TOP:
            return self.axiom_instances(u, budget)
        p, s = u
        if (p + s) & 1:
            raise InvariantViolation(f"the midpoint of ({p}, {s}) is off the scale {self.scale}")
        return _splits(p, s, (p + s) >> 1, self._pool)

    def decode_derivation(self, node: Derivation, done: dict) -> Derivation:
        """The node over rationals, each shared node decoded once (``done``
        maps a node's id to its decoding).  The rule says what a witness
        is: an element for ``ext``, a family for an axiom leaf, which is
        also what a ``tra`` node's head is."""
        out = done.get(id(node))
        if out is None:
            rule, dec = node.rule, self.decode
            if rule == "tra":
                premises = tuple(self.decode_derivation(n, done) for n in node.premises)
                out = Derivation(rule, dec(node.element), premises=premises)
            elif rule == "ext":
                out = Derivation(rule, dec(node.element), witness=dec(node.witness))
            elif rule in ("ref", "poshyp"):
                out = Derivation(rule, dec(node.element))
            else:
                out = Derivation(rule, dec(node.element), witness=tuple(map(dec, node.witness)))
            done[id(node)] = out
        return out


# ---------------------------------------------------------------------------
# Search.
# ---------------------------------------------------------------------------


class _Record:
    """What one search knows of one element.  A found record holds a
    derivation, ``found``, whose least depth is ``found_depth``; an open
    record has no derivation within ``failed_at``.  The leaf rules are
    judged when the record is made, so an open record starts at
    ``failed_at`` 1.  ``instances`` are the element's non-empty candidate
    instances, each as ``[axiom, family, member records]``, the records
    filled in as the ``tra`` loop first reaches each member."""

    __slots__ = ("element", "found", "found_depth", "failed_at", "instances")

    def __init__(self, element):
        self.element = element
        self.found = None
        self.found_depth = 1
        self.failed_at = 1
        self.instances = None


class _Searcher:
    def __init__(self, base: Base, target: EltSet, budget: int, sublocale):
        self.base = base
        self.target = target
        self.budget = budget
        self.posclosed = sublocale if isinstance(sublocale, PosClosedSub) else None
        self.records: dict = {}  # element -> _Record

    def _record(self, u) -> _Record:
        rec = self.records.get(u)
        if rec is None:
            rec = self.records[u] = _Record(u)
            rec.found = self._leaf(rec)
        return rec

    def deepen(self, u, depth: int) -> Optional[Derivation]:
        """A derivation of least depth within the depth, or None."""
        rec = self._record(u)
        try:
            return rec.found if self._search(rec, depth) else None
        finally:
            # Instances hold their members' records, and a family may hold
            # its own element, so the records form cycles: cut them, or
            # their memory would wait for the cyclic garbage collector.
            for r in self.records.values():
                r.instances = None

    def _search(self, rec: _Record, depth: int) -> bool:
        """Whether the element has a derivation within the depth; when it
        has, ``rec.found`` holds one of least depth.  An open record tries
        one depth after another, so the first success is at its least
        depth.  A search at depth d that reaches the element again asks
        for at most d - 1, its ``failed_at``, and is answered at once."""
        if rec.found is not None:
            return rec.found_depth <= depth
        while rec.failed_at < depth:
            d = rec.failed_at + 1
            for axiom, family, members in rec.instances:
                for i, f in enumerate(family):
                    if i == len(members):
                        members.append(self._record(f))
                    if not self._search(members[i], d - 1):
                        break
                else:
                    head = Derivation(axiom, rec.element, witness=tuple(family))
                    subs = (m.found for m in members)
                    rec.found = Derivation("tra", rec.element, premises=(head, *subs))
                    rec.found_depth = d
                    return True
            rec.failed_at = d
        return False

    def _leaf(self, rec: _Record) -> Optional[Derivation]:
        """The first leaf rule that closes the element: ref, poshyp, ext or
        an axiom family inside the target.  They do not depend on the depth,
        so each element is judged once; the candidate instances are built
        on the way, once, and only when ref, poshyp and ext all fail."""
        u, target = rec.element, self.target
        if target.contains(u):
            return Derivation("ref", u)
        if self.posclosed is not None and not self.posclosed.pred(u):
            return Derivation("poshyp", u)
        for b in target.listed:
            if b != u and self.base.leq(u, b):
                return Derivation("ext", u, witness=b)
        rec.instances = [
            [axiom, family, []]
            for axiom, family in self.base.candidate_instances(u, self.budget, target)
            if family
        ]
        for axiom, family, _ in rec.instances:
            if all(target.contains(f) for f in family):
                return Derivation(axiom, u, witness=tuple(family))
        return None


# The deepest search asked for.  Each element deepens one unit of depth
# at a time and the search recurses once per level, so a larger depth
# could run for hours or exhaust the interpreter's stack; at this cap every
# ``cover`` space answers in under a second at the default budget.
MAX_DEPTH = 256


def _check_depth(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise PreconditionFailed(f"search depth {depth} exceeds the cap of {MAX_DEPTH}")


def _least_derivation(
    base: Base, u, target: EltSet, depth: int, budget: int, posclosed: Optional[PosClosedSub]
) -> Optional[Derivation]:
    """A derivation of least depth within the depth, or None; a search on
    the formal reals runs on their integer view."""
    if type(base) is not FormalRealsBase:
        return _Searcher(base, target, budget, posclosed).deepen(u, depth)
    view = _IntegerReals(base, u, target, depth)
    if posclosed is not None:
        posclosed = PosClosedSub(view.decoding(posclosed.pred))
    searcher = _Searcher(view, view.encode_target(target), budget, posclosed)
    found = searcher.deepen(view.encode(u), depth)
    return None if found is None else view.decode_derivation(found, {})


def derive_cover(base: Base, u, family, depth: int, budget: int = 4) -> Optional[Derivation]:
    """Search for a derivation of ``u below family``; None means Unknown.

    A derivation found is of least depth, so success at a depth implies
    success at every larger depth.  A depth over ``MAX_DEPTH`` is refused
    before any search.  On the formal reals every split is an exact cover,
    so an interval with a point outside a listed family (no predicates, no
    top) is below it at no depth, and gets None without a search.
    """
    _check_depth(depth)
    target = as_target(family)
    plain = not target.predicates and TOP not in target.listed
    if type(base) is FormalRealsBase and u is not TOP and plain:
        parts = [IntervalElement.make(u, [v]) for v in target.listed]
        if not finite_cover_decide(IntervalElement.one(u), parts):
            return None
    return _least_derivation(base, u, target, depth, budget, None)


def sublocale_cover(
    base: Base, spec, u, family, depth: int, budget: int = 4
) -> Optional[Derivation]:
    """Derivation search in the extended system of the given sublocale, a
    :class:`ClosedSub` or a :class:`PosClosedSub`; any other spec, and a
    depth over ``MAX_DEPTH``, is refused before any search."""
    _check_depth(depth)
    target = as_target(family)
    if isinstance(spec, ClosedSub):
        target = target.extend(listed=spec.listed, predicates=spec.predicates)
        return derive_cover(base, u, target, depth, budget)
    if isinstance(spec, PosClosedSub):
        return _least_derivation(base, u, target, depth, budget, spec)
    raise PreconditionFailed(f"unknown sublocale spec {spec!r}")


# ---------------------------------------------------------------------------
# Independent checker.  Validates each node locally against the axioms; it
# shares no code with the search.
# ---------------------------------------------------------------------------


def check_derivation(base: Base, derivation: Derivation, u, family, sublocale=None) -> bool:
    target = as_target(family)
    if isinstance(sublocale, ClosedSub):
        target = target.extend(listed=sublocale.listed, predicates=sublocale.predicates)
        sublocale = None
    return _check_node(base, derivation, u, target, sublocale)


def _check_node(base: Base, node: Derivation, u, target: EltSet, sublocale) -> bool:
    if node.element != u:
        return False
    rule = node.rule
    if rule == "ref":
        return target.contains(u) and not node.premises
    if rule == "poshyp":
        return (
            isinstance(sublocale, PosClosedSub)
            and not sublocale.pred(u)
            and not node.premises
        )
    if rule == "ext":
        return (
            node.witness in set(target.listed)
            and base.leq(u, node.witness)
            and not node.premises
        )
    if rule == "tra":
        if not node.premises:
            return False
        head, *subs = node.premises
        if head.rule in _STRUCTURAL_RULES or head.element != u:
            return False
        fam = head.witness
        if not isinstance(fam, tuple) or len(subs) != len(fam):
            return False
        if not _check_node(base, head, u, as_target(fam), sublocale):
            return False
        return all(
            _check_node(base, sub, f, target, sublocale) for f, sub in zip(fam, subs)
        )
    # Axiom leaf.
    if node.premises:
        return False
    fam = node.witness
    if not isinstance(fam, tuple) or not fam:
        return False
    if not base.axiom_valid(rule, u, fam):
        return False
    return all(target.contains(f) for f in fam)


# ---------------------------------------------------------------------------
# Positivity predicates.
# ---------------------------------------------------------------------------


def filter_positive(family: Sequence, pos: SetPredicate) -> tuple:
    """The positive members of a family, order-stable."""
    return tuple(u for u in family if pos(u))


@dataclass
class JudgmentReport:
    index: int
    element: object
    derivation_ok: bool
    mon_vacuous: bool
    mon_ok: bool
    pos_cover_found: bool

    @property
    def ok(self) -> bool:
        return self.derivation_ok and self.mon_ok


@dataclass
class PositivityReport:
    entries: list = field(default_factory=list)

    @property
    def mon_failures(self) -> list:
        return [e for e in self.entries if not e.mon_ok]

    @property
    def all_mon_ok(self) -> bool:
        return not self.mon_failures

    @property
    def all_pos_found(self) -> bool:
        return all(e.pos_cover_found for e in self.entries)


def check_positivity_axioms(
    base: Base,
    pos: SetPredicate,
    judgments: Sequence[tuple],
    depth: int,
    budget: int = 4,
) -> PositivityReport:
    """Check the two positivity axioms against witnessed cover judgments.

    Each judgment is a triple (u, family, derivation).  Mon asks that a
    positive covered element has a positive member in its covering family;
    the other axiom asks that the element is still covered by just the
    positive members of the family, searched within the depth bound.
    """
    report = PositivityReport()
    for i, (u, family, derivation) in enumerate(judgments):
        fam = tuple(family)
        d_ok = derivation is None or check_derivation(base, derivation, u, fam)
        vac = not pos(u)
        mon_ok = vac or any(pos(f) for f in fam)
        positive = filter_positive(fam, pos)
        found = not fam or derive_cover(base, u, positive, depth, budget) is not None
        report.entries.append(JudgmentReport(i, u, d_ok, vac, mon_ok, found))
    return report


# ---------------------------------------------------------------------------
# Serialization: one-line s-expressions.
#
#   node   := (ref ELT) | (poshyp ELT) | (ext ELT ELT)
#           | (NAME ELT FAMILY)            -- axiom leaf, NAME its axiom
#           | (tra node (node ...))
#   FAMILY := (ELT ELT ...)
#
# ELT is whatever the base's own element reader reads at that point, blanks
# included, e.g. (0,3) or B(1/2; 0); `top` denotes the synthetic top.
# ---------------------------------------------------------------------------


def serialize_derivation(base: Base, node: Derivation) -> str:
    f = base.format_element
    rule = node.rule
    if rule in ("ref", "poshyp"):
        return f"({rule} {f(node.element)})"
    if rule == "ext":
        return f"(ext {f(node.element)} {f(node.witness)})"
    if rule == "tra":
        head, *subs = node.premises
        inner = " ".join(serialize_derivation(base, s) for s in subs)
        return f"(tra {serialize_derivation(base, head)} ({inner}))"
    fam = " ".join(f(x) for x in node.witness)
    return f"({rule} {f(node.element)} ({fam}))"


def parse_derivation(base: Base, text: str) -> Derivation:
    return Cursor(text).parse(lambda cur: _read_node(base, cur))


def _read_node(base: Base, cur: Cursor) -> Derivation:
    cur.expect("(")
    at = cur.skip()
    rule = cur.word()
    if not rule:
        raise cur.error("expected a rule name", at)
    if rule == "tra":
        head = _read_node(base, cur)
        subs = _read_group(cur, lambda c: _read_node(base, c))
        node = Derivation("tra", head.element, premises=(head, *subs))
    else:
        u = base.read_element(cur)
        if rule in ("ref", "poshyp"):
            node = Derivation(rule, u)
        elif rule == "ext":
            node = Derivation("ext", u, witness=base.read_element(cur))
        else:
            node = Derivation(rule, u, witness=_read_group(cur, base.read_element))
    cur.expect(")")
    return node


def _read_group(cur: Cursor, read) -> tuple:
    """``(`` then values read by ``read`` up to the matching ``)``."""
    cur.expect("(")
    out = []
    while not cur.match(")"):
        out.append(read(cur))
    return tuple(out)
