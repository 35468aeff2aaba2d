"""Inductively generated formal covers with bounded-depth derivation search.

A :class:`Base` presents a space: opaque basic opens, a decidable preorder,
and budget-indexed finite axiom families.  Cover judgments ``u below U`` are
established by finite derivation trees built from

* ``ref``    -- u belongs to the target family;
* ``ext``    -- u sits below a listed member of the target;
* axiom leaves -- a declared covering family of u is contained in the target;
* ``tra``    -- an axiom family for u, with one sub-derivation per member;
* ``open``   -- the open-sublocale rule (premises cover the meets of u with
  the opens defining the sublocale);
* ``poshyp`` -- the positively-closed discharge: with a decidable hereditary
  predicate F, the generating clause "if F(u) then u is covered" holds
  vacuously whenever F(u) fails.

Closed sublocales do not need a rule of their own: covering u by V in the
closed sublocale determined by W means covering u by V together with W, so
the search simply enlarges the target.

The search returns ``None`` (Unknown) when no derivation is found within
the depth bound; Unknown is never a refutation.  Every returned derivation
passes :func:`check_derivation`, which is written independently of the
search and validates each node locally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from overt.errors import ParseError, PreconditionFailed
from overt.rationals import format_rational, parse_rational


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
class OpenSub:
    """Open sublocale determined by the listed opens."""

    opens: tuple

    def __init__(self, opens: Iterable):
        object.__setattr__(self, "opens", tuple(opens))


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

_STRUCTURAL_RULES = ("ref", "ext", "tra", "open", "poshyp")


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

    def meet(self, u, v):
        """Canonical binary meet, or None when empty/unsupported."""
        return None

    def top(self):
        return None

    def sample_elements(self, rng: random.Random, count: int) -> list:
        raise NotImplementedError

    def format_element(self, u) -> str:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError


class FormalRealsBase(Base):
    """The coverage of the formal reals on open rational intervals.

    Elements are pairs (p, q) of rationals with p < q, ordered by inclusion.
    The declared axiom is the two-interval split: (p, s) is covered by
    {(p, r), (q, s)} whenever p <= q < r <= s.  Splits are exact covers, so
    every derivable judgment is semantically true; in particular judgments
    like (0,1) below {(0,1/2)} stay Unknown at every depth.

    With a declared ambient interval the base also carries a synthetic top
    covered by the ambient interval.
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

    def meet(self, u, v):
        if u is TOP:
            return v
        if v is TOP:
            return u
        lo, hi = max(u[0], v[0]), min(u[1], v[1])
        if lo < hi:
            return (lo, hi)
        return None

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
        p, s = u
        out = []
        seen = set()
        for k in range(1, max(1, budget) + 1):
            step = (s - p) / 2**k
            grid = [p + i * step for i in range(1, 2**k)]
            for qi in grid:
                for ri in grid:
                    if qi < ri:
                        fam = ((p, ri), (qi, s))
                        if fam not in seen:
                            seen.add(fam)
                            out.append(("split", fam))
        return out

    def candidate_instances(self, u, budget: int, target: EltSet) -> list[tuple[str, tuple]]:
        if u is TOP:
            return self.axiom_instances(u, budget)
        p, s = u
        pool = {p, s, p + (s - p) / 2}
        for e in target.listed:
            if e is not TOP:
                pool.add(e[0])
                pool.add(e[1])
        for h in target.hint_values():
            if isinstance(h, Fraction) or isinstance(h, int):
                pool.add(Fraction(h))
        points = sorted(x for x in pool if p <= x <= s)
        # The points are distinct, so each pair q < r is a new family.
        return [
            ("split", ((p, r), (q, s))) for i, q in enumerate(points) for r in points[i + 1 :]
        ]

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

    def parse_element(self, text: str):
        s = text.strip()
        if s == "top":
            return TOP
        at = len(text) - len(text.lstrip())
        if not (s.startswith("(") and s.endswith(")")):
            raise ParseError(f"expected (p,q), got {text!r}", at)
        halves = s[1:-1].split(",")
        if len(halves) != 2:
            raise ParseError(f"expected two endpoints in {text!r}", at)
        p = parse_rational(halves[0], at + 1)
        q = parse_rational(halves[1], at + len(halves[0]) + 2)
        if p >= q:
            raise ParseError(f"empty interval ({p},{q})", at)
        return (p, q)


# ---------------------------------------------------------------------------
# Search.
# ---------------------------------------------------------------------------


class _Searcher:
    def __init__(self, base: Base, target: EltSet, budget: int, sublocale, axiom_filter):
        self.base = base
        self.target = target
        self.budget = budget
        self.posclosed = sublocale if isinstance(sublocale, PosClosedSub) else None
        self.axiom_filter = axiom_filter
        self.found: dict = {}  # element -> (derivation, tree_depth)
        self.failed_at: dict = {}  # element -> highest depth that failed
        self.instances: dict = {}  # element -> filtered non-empty instances

    def deepen(self, u, depth: int) -> Optional[Derivation]:
        """Iterative deepening: found derivations stay as shallow as
        possible; success at a depth implies success at every larger depth."""
        for d in range(1, max(0, depth) + 1):
            out = self.search(u, d)
            if out is not None:
                return out
        return None

    def _instances(self, u) -> list:
        """The non-empty candidate instances of u that pass the filter, built
        once: they depend on (u, budget, target) only, all fixed here."""
        out = self.instances.get(u)
        if out is None:
            keep = self.axiom_filter
            out = [
                (axiom, family)
                for axiom, family in self.base.candidate_instances(u, self.budget, self.target)
                if family and (keep is None or keep(axiom, u, family))
            ]
            self.instances[u] = out
        return out

    def search(self, u, depth: int) -> Optional[Derivation]:
        if depth <= 0:
            return None
        hit = self.found.get(u)
        if hit is not None and hit[1] <= depth:
            return hit[0]
        if self.failed_at.get(u, 0) >= depth:
            return None
        d = self._attempt(u, depth)
        if d is not None:
            self.found[u] = (d, d.tree_depth())
        else:
            self.failed_at[u] = max(self.failed_at.get(u, 0), depth)
        return d

    def _attempt(self, u, depth: int) -> Optional[Derivation]:
        if self.target.contains(u):
            return Derivation("ref", u)
        if self.posclosed is not None and not self.posclosed.pred(u):
            return Derivation("poshyp", u)
        for b in self.target.listed:
            if b != u and self.base.leq(u, b):
                return Derivation("ext", u, witness=b)
        instances = self._instances(u)
        for axiom, family in instances:
            if all(self.target.contains(f) for f in family):
                return Derivation(axiom, u, witness=tuple(family))
        if depth <= 1:
            return None
        for axiom, family in instances:
            subs = []
            for f in family:
                sub = self.search(f, depth - 1)
                if sub is None:
                    subs = None
                    break
                subs.append(sub)
            if subs is not None:
                head = Derivation(axiom, u, witness=tuple(family))
                return Derivation("tra", u, premises=(head, *subs))
        return None


def derive_cover(
    base: Base,
    u,
    family,
    depth: int,
    budget: int = 4,
    axiom_filter: Optional[Callable[[str, object, tuple], bool]] = None,
) -> Optional[Derivation]:
    """Search for a derivation of ``u below family``; None means Unknown.

    Iterative deepening keeps found derivations as shallow as possible;
    success at a depth implies success at every larger depth.
    """
    return _Searcher(base, as_target(family), budget, None, axiom_filter).deepen(u, depth)


def sublocale_cover(
    base: Base,
    spec,
    u,
    family,
    depth: int,
    budget: int = 4,
    axiom_filter: Optional[Callable[[str, object, tuple], bool]] = None,
) -> Optional[Derivation]:
    """Derivation search in the extended system of the given sublocale."""
    target = as_target(family)
    if isinstance(spec, ClosedSub):
        target = target.extend(listed=spec.listed, predicates=spec.predicates)
        return derive_cover(base, u, target, depth, budget, axiom_filter)
    if isinstance(spec, PosClosedSub):
        return _Searcher(base, target, budget, spec, axiom_filter).deepen(u, depth)
    if isinstance(spec, OpenSub):
        if depth <= 0:
            return None
        premises = []
        for w in spec.opens:
            m = base.meet(u, w)
            if m is None:
                continue
            sub = derive_cover(base, m, target, depth - 1, budget, axiom_filter)
            if sub is None:
                return None
            premises.append(sub)
        return Derivation("open", u, witness=tuple(spec.opens), premises=tuple(premises))
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
    if rule == "open":
        if not isinstance(node.witness, tuple):
            return False
        expected = [base.meet(u, w) for w in node.witness]
        expected = [m for m in expected if m is not None]
        if len(expected) != len(node.premises):
            return False
        return all(
            _check_node(base, sub, m, target, None)
            for m, sub in zip(expected, node.premises)
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
    sublocale=None,
) -> PositivityReport:
    """Check the two positivity axioms against witnessed cover judgments.

    Each judgment is a triple (u, family, derivation).  Mon asks that a
    positive covered element has a positive member in its covering family;
    the other axiom asks that the element is still covered by just the
    positive members of the family, searched within the depth bound (in the
    sublocale's extended system when one is given).
    """
    report = PositivityReport()
    for i, (u, family, derivation) in enumerate(judgments):
        fam = tuple(family)
        d_ok = (
            check_derivation(base, derivation, u, fam, sublocale=sublocale)
            if derivation is not None
            else True
        )
        vac = not pos(u)
        mon_ok = vac or any(pos(f) for f in fam)
        positive = filter_positive(fam, pos)
        if not fam:
            found = True
        elif sublocale is not None:
            found = sublocale_cover(base, sublocale, u, positive, depth, budget) is not None
        else:
            found = derive_cover(base, u, positive, depth, budget) is not None
        report.entries.append(JudgmentReport(i, u, d_ok, vac, mon_ok, found))
    return report


# ---------------------------------------------------------------------------
# Serialization: one-line s-expressions.
#
#   node   := (ref ELT) | (poshyp ELT) | (ext ELT ELT)
#           | (NAME ELT FAMILY)            -- axiom leaf, NAME its axiom
#           | (tra node (node ...))
#           | (open ELT FAMILY (node ...))
#   FAMILY := (ELT ELT ...)
#
# Elements are printed by the base without internal whitespace, e.g. (0,3)
# or B(1/2;0); `top` denotes the synthetic top.
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
    if rule == "open":
        fam = " ".join(f(w) for w in node.witness)
        inner = " ".join(serialize_derivation(base, s) for s in node.premises)
        return f"(open {f(node.element)} ({fam}) ({inner}))"
    fam = " ".join(f(x) for x in node.witness)
    return f"({rule} {f(node.element)} ({fam}))"


def _lex_sexp(text: str, pos: int):
    """Parse one item; returns (item, next_pos).  Items are atoms (strings)
    or lists.  A parenthesized run with no whitespace and no inner parens is
    an element atom, not a list."""
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    if pos >= n:
        raise ParseError("unexpected end of derivation text", pos)
    if text[pos] != "(":
        start = pos
        depth = 0
        while pos < n:
            c = text[pos]
            if c == "(":
                depth += 1
            elif c == ")":
                if depth == 0:
                    break
                depth -= 1
            elif c.isspace() and depth == 0:
                break
            pos += 1
        return text[start:pos], pos
    # Find the matching paren.
    depth = 0
    end = pos
    while end < n:
        if text[end] == "(":
            depth += 1
        elif text[end] == ")":
            depth -= 1
            if depth == 0:
                break
        end += 1
    if depth != 0:
        raise ParseError("unbalanced parentheses", pos)
    inner = text[pos + 1 : end]
    if inner and not any(c.isspace() for c in inner) and "(" not in inner:
        return text[pos : end + 1], end + 1  # element atom like (0,3)
    items = []
    q = 0
    while True:
        while q < len(inner) and inner[q].isspace():
            q += 1
        if q >= len(inner):
            break
        item, q = _lex_sexp(inner, q)
        items.append(item)
    return items, end + 1


def parse_derivation(base: Base, text: str) -> Derivation:
    item, pos = _lex_sexp(text, 0)
    rest = text[pos:].strip()
    if rest:
        raise ParseError(f"trailing text {rest!r}", pos)
    return _node_from_item(base, item)


def _node_from_item(base: Base, item) -> Derivation:
    if not isinstance(item, list) or not item:
        raise ParseError(f"expected a derivation node, got {item!r}", 0)
    rule = item[0]
    if not isinstance(rule, str):
        raise ParseError("node must start with a rule name", 0)
    if rule in ("ref", "poshyp"):
        if len(item) != 2:
            raise ParseError(f"{rule} takes one element", 0)
        return Derivation(rule, _elt(base, item[1]))
    if rule == "ext":
        if len(item) != 3:
            raise ParseError("ext takes two elements", 0)
        return Derivation("ext", _elt(base, item[1]), witness=_elt(base, item[2]))
    if rule == "tra":
        if len(item) != 3 or not isinstance(item[2], list):
            raise ParseError("tra takes a head node and a premise list", 0)
        head = _node_from_item(base, item[1])
        subs = tuple(_node_from_item(base, s) for s in item[2])
        return Derivation("tra", head.element, premises=(head, *subs))
    if rule == "open":
        if len(item) != 4 or not isinstance(item[2], list) or not isinstance(item[3], list):
            raise ParseError("open takes an element, a family and premises", 0)
        fam = tuple(_elt(base, e) for e in item[2])
        subs = tuple(_node_from_item(base, s) for s in item[3])
        return Derivation("open", _elt(base, item[1]), witness=fam, premises=subs)
    if len(item) != 3 or not isinstance(item[2], list):
        raise ParseError(f"axiom {rule} takes an element and a family", 0)
    fam = tuple(_elt(base, e) for e in item[2])
    return Derivation(rule, _elt(base, item[1]), witness=fam)


def _elt(base: Base, item):
    if isinstance(item, list):
        if len(item) == 1 and isinstance(item[0], str):
            return base.parse_element(f"({item[0]})")
        raise ParseError(f"expected an element, got a list {item!r}", 0)
    return base.parse_element(item)
