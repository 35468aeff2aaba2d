import random
from fractions import Fraction as F

import pytest

from helpers import subset_models
from overt.errors import ParseError, PreconditionFailed
from overt.intervals import IntervalElement
from overt.vietoris import (
    Box,
    Dia,
    IntervalCarrier,
    Point,
    TERM_ONE,
    TERM_ZERO,
    TermJoin,
    TermMeet,
    boolean,
    chain,
    enumerate_models,
    evaluate_nf,
    format_term,
    grid,
    loc_to_point,
    model_point,
    normalize,
    parse_carrier,
    parse_term,
    point_to_loc,
    term_leq,
    validate_point,
)

CARRIERS = [chain(2), chain(3), chain(4), chain(5), boolean(3), grid(2, 2)]


def random_term(L, rng, depth=4):
    elems = L.elements()
    if depth == 0 or rng.random() < 0.3:
        k = rng.randrange(4)
        if k == 0:
            return Dia(elems[rng.randrange(len(elems))])
        if k == 1:
            return Box(elems[rng.randrange(len(elems))])
        return TERM_ZERO if k == 2 else TERM_ONE
    ctor = TermMeet if rng.random() < 0.5 else TermJoin
    return ctor(random_term(L, rng, depth - 1), random_term(L, rng, depth - 1))


class TestModels:
    def test_chain3_models_pinned(self):
        L = chain(3)
        # Exhaustive oracle: all upward-closed candidates checked by hand
        # give exactly the empty model, {top} and {middle, top}.
        assert [sorted(m) for m in enumerate_models(L)] == [[], [2], [1, 2]]

    def test_chain2_models_pinned(self):
        assert [sorted(m) for m in enumerate_models(chain(2))] == [[], [1]]

    def test_empty_model_always_present(self):
        for L in CARRIERS:
            assert frozenset() in enumerate_models(L)

    def test_exhaustive_enumeration_matches_axioms(self):
        for L in (chain(4), grid(2, 2)):
            brute = subset_models(L)
            assert sorted(map(sorted, brute)) == sorted(map(sorted, enumerate_models(L)))

    def test_all_relations_hold_in_every_model(self):
        for L in CARRIERS:
            for pos in enumerate_models(L):
                assert validate_point(model_point(L, pos), L) == []


class TestNormalize:
    def test_diamond_join_merges(self):
        L = chain(3)
        nf = normalize(TermJoin(Dia(1), Dia(2)), L)
        assert len(nf.tiles) == 1
        assert nf.tiles[0].box == L.top and nf.tiles[0].diamonds == {2}

    def test_diamond_bottom_vanishes(self):
        L = chain(3)
        assert normalize(Dia(0), L).tiles == ()

    def test_box_meet_diamond_tile(self):
        L = chain(3)
        nf = normalize(TermMeet(Box(1), Dia(2)), L)
        assert len(nf.tiles) == 1
        tile = nf.tiles[0]
        assert tile.box == 1 and tile.diamonds == {1}

    def test_tile_invariant_diamonds_below_box(self):
        rng = random.Random(101)
        for L in CARRIERS:
            for _ in range(60):
                nf = normalize(random_term(L, rng), L)
                for tile in nf.tiles:
                    for d in tile.diamonds:
                        assert L.leq(d, tile.box)

    def test_preserves_evaluation_everywhere(self):
        rng = random.Random(103)
        for L in CARRIERS:
            models = enumerate_models(L)
            points = [model_point(L, m) for m in models]
            for _ in range(200):
                t = random_term(L, rng)
                nf = normalize(t, L)
                for p in points:
                    assert p.evaluate(t) == evaluate_nf(nf, p)


class TestTermLeq:
    def test_box_join_inequality(self):
        L = chain(3)
        # box(u|v) <= box(u) | dia(v) with u=1, v=2: join is 2
        assert term_leq(Box(2), TermJoin(Box(1), Dia(2)), L) is True

    def test_diamond_not_below_box(self):
        L = chain(3)
        assert term_leq(Dia(1), Box(1), L) is False
        # countermodel exists: in {1, 2} the diamond holds, the box fails
        pos = frozenset({1, 2})
        p = model_point(L, pos)
        assert p.evaluate(Dia(1)) and not p.evaluate(Box(1))

    def test_reflexive(self):
        rng = random.Random(107)
        for L in CARRIERS[:3]:
            for _ in range(20):
                t = random_term(L, rng)
                assert term_leq(t, t, L) is True

    def test_syntactic_check_sound_on_finite(self):
        # When the normal-form comparison says True, the model check agrees.
        rng = random.Random(109)
        from overt.vietoris import _tile_leq

        for L in CARRIERS[:4]:
            for _ in range(80):
                s, t = random_term(L, rng), random_term(L, rng)
                ns, nt = normalize(s, L), normalize(t, L)
                syntactic = all(
                    any(_tile_leq(L, t1, t2) for t2 in nt.tiles) for t1 in ns.tiles
                )
                if syntactic:
                    assert term_leq(s, t, L) is True


class TestBiInterpretation:
    def test_round_trip_identity(self):
        for L in CARRIERS:
            for pos in enumerate_models(L):
                assert point_to_loc(loc_to_point(pos, L), L) == pos

    def test_all_box_true_point_is_empty_model(self):
        L = chain(3)
        p = Point(dia=lambda u: False, box=lambda u: True)
        assert point_to_loc(p, L) == frozenset()

    def test_pinned_point_values(self):
        L = chain(3)
        p = loc_to_point(frozenset({1, 2}), L)
        assert p.dia(1) is True
        assert p.box(1) is False  # nothing negative: box needs the top
        p0 = loc_to_point(frozenset(), L)
        assert not any(p0.dia(u) for u in L.elements())
        assert all(p0.box(u) for u in L.elements())

    def test_violating_point_reported_with_pair(self):
        L = chain(3)
        good = loc_to_point(frozenset({2}), L)
        bad = Point(dia=good.dia, box=lambda u: u >= 1)  # box(1) flipped on
        violations = validate_point(bad, L)
        assert violations
        rels = {v[0] for v in violations}
        assert 4 in rels  # box(0|1) holds but neither box(0) nor dia(1)
        pair = [v[1] for v in violations if v[0] == 4][0]
        assert len(pair) == 2
        with pytest.raises(PreconditionFailed):
            point_to_loc(bad, L)

    def test_invalid_model_rejected(self):
        L = chain(3)
        with pytest.raises(PreconditionFailed):
            loc_to_point(frozenset({0}), L)  # bottom positive


class TestIntervalCarrier:
    def test_located_interval_point(self):
        amb = (F(-1), F(2))
        L = IntervalCarrier(amb)

        def dia(e):
            # the element meets [0, 1]
            return any(p < 1 and q > 0 for p, q in e.parts)

        neg = IntervalElement.make(amb, [(F(-1), F(0)), (F(1), F(2))])

        def box(e):
            from overt.intervals import join

            return join(e, neg).is_one

        point = Point(dia=dia, box=box)
        assert point.evaluate(parse_term("dia((1/2,3/2))", L))
        assert point.evaluate(parse_term("box((-1/2,3/2))", L))
        assert not point.evaluate(parse_term("dia((3/2,2))", L))

    def test_syntactic_leq(self):
        L = IntervalCarrier((F(0), F(1)))
        t = parse_term("dia((0,1/2))", L)
        s = parse_term("dia((0,1/2)) & box((0,3/4))", L)
        assert term_leq(s, t, L) is True
        assert term_leq(t, TermJoin(Box(L.parse_element("(0,1/4)")), t), L) is True
        # incompleteness is allowed: unknown never contradicts
        assert term_leq(parse_term("box((0,1/2))", L), parse_term("box((0,3/4))", L), L) in (True, None)

    def test_normal_form_eval_against_interval_point(self):
        amb = (F(0), F(1))
        L = IntervalCarrier(amb)
        rng = random.Random(111)

        def rand_elt():
            den = 8
            a = rng.randint(0, den - 1)
            b = rng.randint(a + 1, den)
            return IntervalElement.make(amb, [(F(a, den), F(b, den))])

        def dia(e):
            return any(p < F(3, 4) and q > F(1, 4) for p, q in e.parts)

        neg = IntervalElement.make(amb, [(F(0), F(1, 4)), (F(3, 4), F(1))])

        def box(e):
            from overt.intervals import join

            return join(e, neg).is_one

        point = Point(dia=dia, box=box)
        for _ in range(100):
            t = rng.choice(
                [
                    Dia(rand_elt()),
                    Box(rand_elt()),
                    TermMeet(Box(rand_elt()), Dia(rand_elt())),
                    TermJoin(Dia(rand_elt()), TermMeet(Box(rand_elt()), Dia(rand_elt()))),
                ]
            )
            assert point.evaluate(t) == evaluate_nf(normalize(t, L), point)


class TestParsing:
    def test_round_trip(self):
        L = chain(3)
        for text in ("dia(1)", "box(2) & dia(1)", "(dia(0) | box(1)) & 1", "0"):
            t = parse_term(text, L)
            again = parse_term(format_term(t, L), L)
            assert again == t

    def test_carrier_names(self):
        assert parse_carrier("chain:4").name == "chain:4"
        assert parse_carrier("bool:3").name == "bool:3"
        assert parse_carrier("grid:2,2").name == "grid:2,2"
        assert parse_carrier("intervals:(0,1)").name == "intervals:(0,1)"
        with pytest.raises(ParseError):
            parse_carrier("ring:3")

    def test_bool_elements(self):
        L = boolean(3)
        t = parse_term("dia(ab) & box(c)", L)
        assert isinstance(t, TermMeet)

    def test_parse_errors_positioned(self):
        L = chain(3)
        with pytest.raises(ParseError):
            parse_term("dia(7)", L)
        with pytest.raises(ParseError):
            parse_term("dia(1", L)
