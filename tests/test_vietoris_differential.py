"""Differential tests of the principal-model Vietoris decision.

``enumerate_models`` reads the models of a finite carrier off its principal
ideals, and ``term_leq`` evaluates terms at those ideals directly.  Both
are checked against ``helpers.subset_models``, which tests every subset of
the carrier against the definition of a model.  The step from one to the
other needs a distributive carrier, so distributivity of every builtin
carrier is checked too.

On an interval carrier ``term_leq`` answers only True or Unknown, from the
normal-form comparison.  A True is checked at the finite point sets K of
the reals, where ``helpers.interval_term_holds`` evaluates a term.  Only
the order of K among the endpoints of the query matters, so every K of at
most two representatives of that endpoint cut is tried.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cut_representatives, interval_term_holds, subset_models
from overt.rationals import format_rational
from overt.vietoris import (
    TERM_ONE,
    TERM_ZERO,
    Box,
    Dia,
    TermJoin,
    TermMeet,
    boolean,
    chain,
    enumerate_models,
    grid,
    is_principal_model,
    loc_to_point,
    parse_carrier,
    parse_term,
    point_to_loc,
    term_leq,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def builtin_carriers(limit):
    out = [chain(n) for n in range(2, limit + 1)]
    out += [boolean(n) for n in range(1, 9) if 2**n <= limit]
    out += [grid(m, n) for m in range(2, limit + 1) for n in range(2, limit + 1) if m * n <= limit]
    return out


UP_TO_16 = builtin_carriers(16)
UP_TO_12 = builtin_carriers(12)


def by_index(L, models):
    idx = {e: i for i, e in enumerate(L.elements())}
    return sorted(models, key=lambda m: (len(m), sorted(idx[e] for e in m)))


@pytest.mark.parametrize("L", UP_TO_16, ids=lambda L: L.name)
def test_models_equal_subset_brute_force(L):
    assert enumerate_models(L) == by_index(L, subset_models(L))


@pytest.mark.parametrize("L", builtin_carriers(8), ids=lambda L: L.name)
def test_principal_check_equals_model_check(L):
    # Every subset of the carrier, as in helpers.subset_models.
    elems = L.elements()
    models = set(subset_models(L))
    for mask in range(1 << len(elems)):
        pos = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        assert is_principal_model(L, pos) == (pos in models)
        if pos in models:
            assert point_to_loc(loc_to_point(pos, L), L) == pos


@pytest.mark.parametrize("L", UP_TO_16, ids=lambda L: L.name)
def test_builtin_carriers_distributive(L):
    elems = L.elements()
    for u in elems:
        for v in elems:
            for w in elems:
                assert L.meet(u, L.join(v, w)) == L.join(L.meet(u, v), L.meet(u, w))


def holds(t, L, pos):
    """A term at the model pos: dia(u) is positivity of u, box(u) says u
    joins the non-positive part to the top."""
    if t is TERM_ZERO:
        return False
    if t is TERM_ONE:
        return True
    if isinstance(t, Dia):
        return t.u in pos
    if isinstance(t, Box):
        negative = L.bot
        for e in L.elements():
            if e not in pos:
                negative = L.join(negative, e)
        return L.join(t.u, negative) == L.top
    if isinstance(t, TermMeet):
        return holds(t.left, L, pos) and holds(t.right, L, pos)
    return holds(t.left, L, pos) or holds(t.right, L, pos)


MODELS = {}


def brute_leq(s, t, L):
    if L.name not in MODELS:
        MODELS[L.name] = subset_models(L)
    return all(holds(t, L, pos) for pos in MODELS[L.name] if holds(s, L, pos))


def terms(L):
    elems = L.elements()
    leaves = st.one_of(
        st.sampled_from(elems).map(Dia),
        st.sampled_from(elems).map(Box),
        st.sampled_from([TERM_ZERO, TERM_ONE]),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(st.builds(TermMeet, sub, sub), st.builds(TermJoin, sub, sub)),
        max_leaves=8,
    )


@st.composite
def carrier_and_terms(draw):
    L = draw(st.sampled_from(UP_TO_12))
    return L, draw(terms(L)), draw(terms(L))


@SETTINGS
@given(carrier_and_terms())
def test_term_leq_matches_brute_force(case):
    L, s, t = case
    assert term_leq(s, t, L) is brute_leq(s, t, L)
    assert term_leq(t, s, L) is brute_leq(t, s, L)


def _element_text(parts, ambient) -> str:
    if not parts:
        return "0"
    if parts == (ambient,):
        return "1"
    return "|".join(f"({format_rational(p)},{format_rational(q)})" for p, q in parts)


def _term_text(t, ambient) -> str:
    if t[0] in ("0", "1"):
        return t[0]
    if t[0] in ("dia", "box"):
        return f"{t[0]}({_element_text(t[1], ambient)})"
    return f"({_term_text(t[1], ambient)} {t[0]} {_term_text(t[2], ambient)})"


def _ends(t) -> set:
    if t[0] in ("dia", "box"):
        return {x for part in t[1] for x in part}
    if t[0] in ("&", "|"):
        return _ends(t[1]) | _ends(t[2])
    return set()


@st.composite
def interval_query(draw):
    """An ambient with eighth ends, five elements of at most two parts
    whose ends lie on the eighths inside it, and terms s, t over them,
    where t is often s joined with more or s met with more."""
    a, b = draw(st.integers(-12, -1)), draw(st.integers(1, 12))
    ambient = (Fraction(a, 8), Fraction(b, 8))
    grid = [Fraction(k, 8) for k in range(a, b + 1)]
    part = st.lists(st.sampled_from(grid), min_size=2, max_size=2, unique=True).map(
        lambda ab: tuple(sorted(ab))
    )
    element = st.one_of(
        st.just(()), st.just((ambient,)), st.lists(part, min_size=1, max_size=2).map(tuple)
    )
    elems = draw(st.lists(element, min_size=5, max_size=5))
    leaves = st.one_of(
        st.sampled_from(elems).map(lambda e: ("dia", e)),
        st.sampled_from(elems).map(lambda e: ("box", e)),
        st.sampled_from([("0",), ("1",)]),
    )
    terms = st.recursive(
        leaves,
        lambda sub: st.tuples(st.sampled_from(["&", "|"]), sub, sub),
        max_leaves=8,
    )
    s, extra = draw(terms), draw(terms)
    shape = draw(st.sampled_from(["join", "meet", "free"]))
    if shape == "join":
        return ambient, s, ("|", s, extra)
    if shape == "meet":
        return ambient, ("&", s, extra), s
    return ambient, s, extra


@SETTINGS
@given(interval_query())
def test_interval_true_holds_at_finite_point_sets(query):
    ambient, s, t = query
    L = parse_carrier(f"intervals:({format_rational(ambient[0])},{format_rational(ambient[1])})")
    s_term, t_term = (parse_term(_term_text(x, ambient), L) for x in (s, t))
    answer = term_leq(s_term, t_term, L)
    assert answer in (True, None)
    if answer:
        reps = cut_representatives(_ends(s) | _ends(t) | set(ambient))
        for K in [()] + [(x,) for x in reps] + list(combinations(reps, 2)):
            assert interval_term_holds(t, K) or not interval_term_holds(s, K), K
