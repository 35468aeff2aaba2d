import random
from fractions import Fraction as F

import pytest

from overt import kernel
from overt.errors import PreconditionFailed
from overt.kernel import (
    TOP,
    ClosedSub,
    Derivation,
    EltSet,
    FormalRealsBase,
    OpenSub,
    PosClosedSub,
    SetPredicate,
    check_derivation,
    check_positivity_axioms,
    derive_cover,
    filter_positive,
    parse_derivation,
    serialize_derivation,
    sublocale_cover,
)

BASE = FormalRealsBase()


def iv(a, b):
    return (F(a), F(b))


OUT01 = SetPredicate(
    "out01",
    lambda e: e is not TOP and (e[1] <= 0 or e[0] >= 1),
    hints=(F(0), F(1)),
)


class TestDeriveCover:
    def test_reflexivity(self):
        d = derive_cover(BASE, iv(0, 1), [iv(0, 1)], 1)
        assert d is not None and d.rule == "ref"
        assert check_derivation(BASE, d, iv(0, 1), [iv(0, 1)])

    def test_pinned_axiom_instance(self):
        fam = [iv(0, 2), iv(1, 3)]
        d = derive_cover(BASE, iv(0, 3), fam, 2)
        assert d is not None
        assert serialize_derivation(BASE, d) == "(split (0,3) ((0,2) (1,3)))"
        assert check_derivation(BASE, d, iv(0, 3), fam)

    def test_depth_zero_unknown(self):
        assert derive_cover(BASE, iv(0, 1), [iv(0, 1)], 0) is None

    def test_semantically_false_cover_stays_unknown(self):
        assert derive_cover(BASE, iv(0, 1), [iv(0, F(1, 2))], 8) is None

    def test_monotone_in_depth(self):
        fam = [iv(0, 2), iv(1, 3)]
        for d in range(2, 6):
            assert derive_cover(BASE, iv(0, 3), fam, d) is not None

    def test_multi_step(self):
        fam = [iv(0, F(3, 5)), iv(F(2, 5), 1)]
        d = derive_cover(BASE, iv(0, 1), fam, 3)
        assert d is not None
        assert check_derivation(BASE, d, iv(0, 1), fam)

    def test_ext(self):
        d = derive_cover(BASE, iv(F(1, 4), F(1, 2)), [iv(0, 1)], 1)
        assert d is not None and d.rule == "ext"
        assert check_derivation(BASE, d, iv(F(1, 4), F(1, 2)), [iv(0, 1)])


class TestChecker:
    def test_rejects_wrong_family(self):
        d = Derivation("split", iv(0, 3), witness=(iv(0, 2), iv(2, 3)))
        # q=2, r=2 violates q < r
        assert not check_derivation(BASE, d, iv(0, 3), [iv(0, 2), iv(2, 3)])

    def test_rejects_family_outside_target(self):
        d = Derivation("split", iv(0, 3), witness=(iv(0, 2), iv(1, 3)))
        assert not check_derivation(BASE, d, iv(0, 3), [iv(0, 2)])

    def test_rejects_wrong_element(self):
        d = Derivation("ref", iv(0, 1))
        assert not check_derivation(BASE, d, iv(0, 2), [iv(0, 2)])

    def test_tra_composition(self):
        # u covered by V (axiom), every member of V covered by W: the
        # manually composed transitivity tree checks against W.
        u = iv(0, 3)
        V = (iv(0, 2), iv(1, 3))
        W = [iv(0, F(3, 2)), iv(1, 3), iv(F(1, 2), 2)]
        head = Derivation("split", u, witness=V)
        subs = []
        for v in V:
            sub = derive_cover(BASE, v, W, 3)
            assert sub is not None
            subs.append(sub)
        tree = Derivation("tra", u, premises=(head, *subs))
        assert check_derivation(BASE, tree, u, W)

    def test_rejects_tampered_tra(self):
        u = iv(0, 3)
        V = (iv(0, 2), iv(1, 3))
        head = Derivation("split", u, witness=V)
        bad = Derivation("tra", u, premises=(head, Derivation("ref", V[0])))
        assert not check_derivation(BASE, bad, u, [iv(0, 2)])


class TestSublocales:
    def test_closed_matches_plain_cover_on_extended_target(self):
        spec = ClosedSub(predicates=(OUT01,))
        u = iv(-1, 2)
        fam = [iv(F(-1, 2), F(3, 2))]
        for depth in range(1, 5):
            a = sublocale_cover(BASE, spec, u, fam, depth)
            b = derive_cover(BASE, u, EltSet(listed=tuple(fam), predicates=(OUT01,)), depth)
            assert (a is None) == (b is None)
        d = sublocale_cover(BASE, spec, u, fam, 4)
        assert d is not None
        assert check_derivation(BASE, d, u, fam, sublocale=spec)

    def test_closed_exhaustive_small_fragment(self):
        spec = ClosedSub(listed=(iv(2, 3),))
        universe = [iv(0, 1), iv(0, 2), iv(1, 2), iv(2, 3), iv(0, 3)]
        for u in universe:
            for v1 in universe:
                for v2 in universe:
                    fam = [v1, v2]
                    for depth in (1, 2, 3):
                        a = sublocale_cover(BASE, spec, u, fam, depth)
                        b = derive_cover(BASE, u, fam + [iv(2, 3)], depth)
                        assert (a is None) == (b is None)

    def test_open_sublocale(self):
        spec = OpenSub([iv(0, 1)])
        d = sublocale_cover(BASE, spec, iv(-5, 5), [iv(0, 1)], 3)
        assert d is not None and d.rule == "open"
        assert check_derivation(BASE, d, iv(-5, 5), [iv(0, 1)], sublocale=spec)

    def test_posclosed_base_clause(self):
        pos01 = SetPredicate(
            "pos01", lambda e: e is TOP or (e[0] < 1 and e[1] > 0), hints=(F(0), F(1))
        )
        spec = PosClosedSub(pos01)
        # an element satisfying the predicate is covered by the predicate's
        # slice through itself
        u = iv(F(1, 4), F(3, 4))
        d = sublocale_cover(BASE, spec, u, [u], 1)
        assert d is not None
        assert check_derivation(BASE, d, u, [u], sublocale=spec)
        # an element failing the predicate is covered by anything
        v = iv(2, 3)
        d2 = sublocale_cover(BASE, spec, v, [], 1)
        assert d2 is not None and d2.rule == "poshyp"
        assert check_derivation(BASE, d2, v, [], sublocale=spec)
        # but not in the plain system
        assert derive_cover(BASE, v, [], 3) is None


class TestSerialization:
    def test_round_trips(self):
        fam = [iv(0, 2), iv(1, 3)]
        d = derive_cover(BASE, iv(0, 3), fam, 2)
        text = serialize_derivation(BASE, d)
        assert parse_derivation(BASE, text) == d

        spec = ClosedSub(predicates=(OUT01,))
        d2 = sublocale_cover(BASE, spec, iv(-1, 2), [iv(F(-1, 2), F(3, 2))], 4)
        text2 = serialize_derivation(BASE, d2)
        assert parse_derivation(BASE, text2) == d2

        d3 = Derivation("poshyp", iv(2, 3))
        assert parse_derivation(BASE, serialize_derivation(BASE, d3)) == d3

    def test_single_member_family(self):
        d = Derivation("split", iv(0, 2), witness=(iv(0, 1), iv(1, 2)))
        tree = Derivation(
            "tra", iv(0, 2), premises=(d, Derivation("ref", iv(0, 1)), Derivation("ref", iv(1, 2)))
        )
        text = serialize_derivation(BASE, tree)
        assert parse_derivation(BASE, text) == tree

    def test_documented_example_parses(self):
        d = parse_derivation(BASE, "(split (0,3) ((0,2) (1,3)))")
        assert d.rule == "split" and d.element == iv(0, 3)


class TestPositivity:
    def test_filter_positive(self):
        pos = SetPredicate("ab", lambda u: u == "a")
        assert filter_positive(("a", "b"), pos) == ("a",)
        assert filter_positive((), pos) == ()

    def test_filter_positive_intervals(self):
        # which rational intervals meet [0, 1]
        pos = SetPredicate(
            "meets01", lambda e: e[0] < 1 and e[1] > 0
        )
        assert filter_positive((iv(0, 1), iv(2, 3)), pos) == (iv(0, 1),)

    def test_all_true_passes(self):
        pos = SetPredicate("always", lambda u: True)
        fam = (iv(0, 2), iv(1, 3))
        d = derive_cover(BASE, iv(0, 3), fam, 2)
        report = check_positivity_axioms(BASE, pos, [(iv(0, 3), fam, d)], depth=3)
        assert report.all_mon_ok and report.all_pos_found

    def test_all_false_vacuous(self):
        pos = SetPredicate("never", lambda u: False)
        d = derive_cover(BASE, iv(0, 1), [iv(0, 1)], 1)
        report = check_positivity_axioms(BASE, pos, [(iv(0, 1), (iv(0, 1),), d)], depth=1)
        assert report.all_mon_ok
        assert report.entries[0].mon_vacuous

    def test_mon_violation_pinpointed(self):
        # positive on (1,3) but on no member of a genuine splitting: the
        # undecided-region shape, forced finitely.
        pos = SetPredicate("broken", lambda u: u == iv(1, 3))
        fam = (iv(1, F(5, 2)), iv(2, 3))
        d = derive_cover(BASE, iv(1, 3), fam, 2)
        assert d is not None
        report = check_positivity_axioms(BASE, pos, [(iv(1, 3), fam, d)], depth=2)
        assert not report.all_mon_ok
        assert report.mon_failures[0].element == iv(1, 3)


class TestBaseContracts:
    def test_axiom_instances_deterministic_and_monotone(self):
        u = iv(0, 1)
        for budget in (1, 2, 3):
            a = BASE.axiom_instances(u, budget)
            b = BASE.axiom_instances(u, budget)
            assert a == b
            bigger = BASE.axiom_instances(u, budget + 1)
            assert set(map(repr, a)) <= set(map(repr, bigger))

    def test_leq_preorder_sampled(self):
        rng = random.Random(5)
        elems = BASE.sample_elements(rng, 12)
        for u in elems:
            assert BASE.leq(u, u)
        for u in elems:
            for v in elems:
                for w in elems:
                    if BASE.leq(u, v) and BASE.leq(v, w):
                        assert BASE.leq(u, w)

    def test_top_requires_ambient(self):
        assert BASE.top() is None
        based = FormalRealsBase(ambient=(F(-1), F(2)))
        assert based.top() is TOP
        d = derive_cover(based, TOP, [iv(-1, 2)], 1)
        assert d is not None and d.rule == "amb"
