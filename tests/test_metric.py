import itertools
import random
from fractions import Fraction as F

import pytest

from helpers import line_ball_cover_holds
from overt import kernel
from overt.metric import (
    FormalBall,
    LineSegment,
    PlaneEuclid,
    PlaneMax,
    RationalLine,
    ball_leq,
    ball_lt,
    completion_base,
    distance_below,
    format_ball,
    parse_ball,
)

LINE = RationalLine()


def seen_set_segment_points(lo, hi, count):
    """The earlier enumeration of a segment: every level's grid again, with
    a seen-set."""
    out, seen = [], set()
    for level in itertools.count():
        den = 2**level
        for i in range(den + 1):
            q = lo + (hi - lo) * F(i, den)
            if q not in seen:
                seen.add(q)
                out.append(q)
                if len(out) >= count:
                    return out


def seen_set_line_points(count):
    """The earlier enumeration of the line: every stage again, with a
    seen-set."""
    out, seen = [], set()
    for stage in itertools.count():
        den = 2**stage
        bound = (stage + 1) * den
        for num in range(-bound, bound + 1):
            q = F(num, den)
            if q not in seen:
                seen.add(q)
                out.append(q)
                if len(out) >= count:
                    return out


class TestEnumeration:
    @pytest.mark.parametrize("lo, hi", [(F(-3, 7), F(5, 3)), (F(0), F(1)), (F(-2), F(5))])
    def test_segment_matches_seen_set(self, lo, hi):
        seg = LineSegment(lo, hi)
        for count in range(301):
            assert seg.enumerate_points(count) == seen_set_segment_points(lo, hi, count)
        assert seg.enumerate_points(0) == [lo]

    def test_line_matches_seen_set(self):
        for count in range(301):
            assert LINE.enumerate_points(count) == seen_set_line_points(count)
        assert LINE.enumerate_points(0) == [F(-1)]


def B(r, c):
    return FormalBall(F(c) if not isinstance(c, tuple) else c, F(r))


class TestBallOrder:
    def test_lt_examples(self):
        assert ball_lt(LINE, B(1, 0), B(3, 1))  # d=1 < 2
        assert not ball_lt(LINE, B(2, 0), B(1, 0))
        assert ball_lt(LINE, B(1, 0), B(2, 0))  # concentric shrink
        assert not ball_lt(LINE, B(1, 0), B(2, 1))  # boundary d = 1 = margin
        # A tie t = d is decided exactly in every space: not strictly inside,
        # but non-strictly; a negative threshold is below every distance.
        ties = [
            (LINE, F(0), F(1), F(1)),
            (LineSegment(F(-2), F(2)), F(-1, 2), F(3, 4), F(5, 4)),
            (PlaneMax(), (F(0), F(0)), (F(1), F(-3)), F(3)),
            (PlaneEuclid(), (F(0), F(0)), (F(3), F(4)), F(5)),
        ]
        for space, x, y, d in ties:
            assert space.compare_distance(x, y, d) == 0
            assert space.compare_distance(x, y, d - F(1, 1000)) == 1
            assert space.compare_distance(x, y, d + F(1, 1000)) == -1
            assert space.compare_distance(x, y, F(-1, 2)) == 1
            assert space.compare_distance(x, x, F(-1, 2)) == 1
            assert space.compare_distance(x, x, F(0)) == 0
            assert not ball_lt(space, FormalBall(x, F(1)), FormalBall(y, d + 1))
            assert ball_leq(space, FormalBall(x, F(1)), FormalBall(y, d + 1))

    def test_lt_concentric_asks_no_distance(self):
        # Concentric pairs, which every cell-filter leaf asks, are decided
        # by their radii alone.
        class NoDistance(RationalLine):
            def compare_distance(self, x, y, t):
                raise AssertionError("distance queried")

        space = NoDistance()
        for c in (F(0), F(-3, 7), (F(1, 2), F(5))):
            assert ball_lt(space, B(1, c), B(2, c))
            assert not ball_lt(space, B(2, c), B(2, c))
            assert not ball_lt(space, B(3, c), B(2, c))
        with pytest.raises(AssertionError):
            ball_lt(space, B(1, 0), B(2, 1))

    def test_leq_examples(self):
        assert ball_leq(LINE, B(1, 0), B(1, 0))
        assert ball_leq(LINE, B(1, 0), B(2, 1))  # exact tie decidable
        assert not ball_leq(LINE, B(2, 0), B(1, 0))

    def test_lt_implies_leq_sampled(self):
        rng = random.Random(3)
        for _ in range(200):
            a = B(F(rng.randint(1, 16), 8), F(rng.randint(-8, 8), 4))
            b = B(F(rng.randint(1, 16), 8), F(rng.randint(-8, 8), 4))
            if ball_lt(LINE, a, b):
                assert ball_leq(LINE, a, b)

    def test_lt_irreflexive(self):
        rng = random.Random(11)
        for _ in range(50):
            a = B(F(rng.randint(1, 16), 8), F(rng.randint(-8, 8), 4))
            assert not ball_lt(LINE, a, a)

    def test_lt_transitive_sampled(self):
        rng = random.Random(5)
        for _ in range(400):
            balls = [
                B(F(rng.randint(1, 32), 8), F(rng.randint(-8, 8), 4)) for _ in range(3)
            ]
            a, b, c = balls
            if ball_lt(LINE, a, b) and ball_lt(LINE, b, c):
                assert ball_lt(LINE, a, c)

    def test_refinement_characterization(self):
        # a <= b exactly when everything strictly inside a is strictly
        # inside b (sampled c's).
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            a = B(F(rng.randint(2, 16), 8), F(rng.randint(-4, 4), 2))
            b = B(F(rng.randint(2, 16), 8), F(rng.randint(-4, 4), 2))
            if not ball_leq(LINE, a, b):
                continue
            for _ in range(50):
                c = B(
                    F(rng.randint(1, 8), 16),
                    a.center + F(rng.randint(-8, 8), 16),
                )
                if ball_lt(LINE, c, a):
                    checked += 1
                    assert ball_lt(LINE, c, b)
        assert checked > 50


class TestPlaneSpaces:
    def test_max_metric_exact(self):
        p = PlaneMax()
        assert p.dist_sq((F(0), F(0)), (F(1), F(3))) == 9

    def test_euclid_squares(self):
        p = PlaneEuclid()
        assert p.dist_sq((F(0), F(0)), (F(3), F(4))) == 25
        assert p.dist_sq((F(1, 2), F(0)), (F(0), F(1, 3))) == F(13, 36)

    def test_euclid_ball_lt_via_squares(self):
        p = PlaneEuclid()
        a = FormalBall((F(0), F(0)), F(1))
        b = FormalBall((F(1), F(1)), F(3))
        # d = sqrt(2) < 2 exactly since 2 < 4
        assert ball_lt(p, a, b)
        c = FormalBall((F(1), F(1)), F(1) + F(1))  # margin 1, d = sqrt2 > 1
        assert not ball_lt(p, a, c)


class TestDistanceBelow:
    def test_below_bound_and_above_distance(self):
        p = PlaneEuclid()
        # Irrational: d = sqrt 2 < 2; the result is under 2 and bounds
        # sqrt 2 from above, checked on squares.
        v = distance_below(p, (F(0), F(0)), (F(1), F(1)), F(2))
        assert v < 2 and v * v >= 2
        # Rational: d = 5 is returned exactly.
        assert distance_below(p, (F(0), F(0)), (F(3), F(4)), F(11, 2)) == 5


class TestCompletionBase:
    def test_m2loc_instances_shape(self):
        # The 32 first points hold the quarters from -3 to 3: B(1; 0) has
        # families of radius 1/2 and 1/4, each one a cover of it.
        base = completion_base(LINE, 32)
        u = B(1, 0)
        instances = base.axiom_instances(u, 3)
        assert [(n, fam[0].radius) for n, fam in instances] == [("m2loc", F(1, 2)), ("m2loc", F(1, 4))]
        for _, fam in instances:
            rho = fam[0].radius
            assert {f.radius for f in fam} == {rho}
            assert all(abs(f.center - u.center) < u.radius + rho for f in fam)
            assert line_ball_cover_holds((u.center, u.radius), [(f.center, f.radius) for f in fam])

    def test_axiom_leaf_derivation(self):
        base = completion_base(LINE, 32)
        u = B(1, 0)
        name, fam = base.axiom_instances(u, 2)[0]
        d = kernel.derive_cover(base, u, fam, 1, budget=2)
        assert d is not None and d.rule == name == "m2loc"
        assert kernel.check_derivation(base, d, u, fam)

    def test_budget_monotone(self):
        base = completion_base(LINE, 8)
        u = B(1, 0)
        small = base.axiom_instances(u, 1)
        large = base.axiom_instances(u, 3)
        for inst in small:
            assert inst in large

    def test_top_and_uniform_families(self):
        seg = LineSegment(F(-1), F(2))
        base = completion_base(seg, 2**6 + 1)  # steps of 3/64
        m2 = [fam for n, fam in base.axiom_instances(kernel.TOP, 6) if n == "m2"]
        # radius 1/32 and 1/64 are finer than the steps
        assert [fam[0].radius for fam in m2] == [F(1, 2), F(1, 4), F(1, 8), F(1, 16)]
        for fam in m2:
            assert line_ball_cover_holds(None, [(f.center, f.radius) for f in fam], (seg.lo, seg.hi))
        # the top of the line has no m2 family
        assert completion_base(LINE, 1024).axiom_instances(kernel.TOP, 6) == []

    def test_plane_family_needs_every_grid_corner(self):
        # The 625 first points of the plane hold its quarter grid near 0.
        base = completion_base(PlaneEuclid(), 625)
        u = FormalBall((F(0), F(0)), F(1))
        name, fam = base.axiom_instances(u, 2)[-1]
        assert name == "m2loc" and fam[0].radius == F(1, 4)
        assert base.axiom_valid(name, u, fam)
        # Without the centre the grid's axes still span B(1; 0), but the
        # cells around 0 lose a corner.
        holed = tuple(f for f in fam if f.center != (F(0), F(0)))
        assert not base.axiom_valid(name, u, holed)

    def test_ambient_swallowing_ball(self):
        seg = LineSegment(F(-1), F(2))
        base = completion_base(seg, 17)
        big = FormalBall(F(1, 2), F(2))
        assert base.leq(kernel.TOP, big)
        d = kernel.derive_cover(base, kernel.TOP, [big], 1)
        assert d is not None and d.rule in ("ref", "ext")

    def test_positivity_always_passes(self):
        base = completion_base(LINE, 10)
        rng = random.Random(1)
        judgments = []
        for u in base.sample_elements(rng, 8):
            for name, fam in base.axiom_instances(u, 2)[:2]:
                judgments.append((u, fam, kernel.Derivation(name, u, witness=fam)))
        pos = kernel.SetPredicate("always", lambda u: True)
        report = kernel.check_positivity_axioms(base, pos, judgments, depth=2, budget=2)
        assert report.all_mon_ok and report.all_pos_found


class TestBallSyntax:
    def test_round_trip(self):
        for text in ("B(1/2; 0)", "B(1/3; 1/2,1/2)", "B(2; -7/3)"):
            ball = parse_ball(text)
            assert format_ball(ball) == text

    def test_base_serialization_with_balls(self):
        base = completion_base(LINE, 32)
        u = B(1, 0)
        insts = base.axiom_instances(u, 2)
        d = kernel.derive_cover(base, u, insts[0][1], 1, budget=2)
        text = kernel.serialize_derivation(base, d)
        assert kernel.parse_derivation(base, text) == d
