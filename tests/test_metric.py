import random
from fractions import Fraction as F

import pytest

from overt import kernel
from overt.errors import PreconditionFailed, UndecidableComparison
from overt.metric import (
    BallBase,
    FormalBall,
    LineSegment,
    MetricSpace,
    PlaneEuclid,
    PlaneMax,
    RationalLine,
    ball_leq,
    ball_lt,
    center_chooser,
    completion_base,
    filter_stage_refine,
    format_ball,
    make_stage,
    parse_ball,
    refine_between,
)

LINE = RationalLine()


def B(r, c):
    return FormalBall(F(c) if not isinstance(c, tuple) else c, F(r))


class TestBallOrder:
    def test_lt_examples(self):
        assert ball_lt(LINE, B(1, 0), B(3, 1))  # d=1 < 2
        assert not ball_lt(LINE, B(2, 0), B(1, 0))
        assert ball_lt(LINE, B(1, 0), B(2, 0))  # concentric shrink
        assert not ball_lt(LINE, B(1, 0), B(2, 1))  # boundary d = 1 = margin

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
        assert p.dist_exact((F(0), F(0)), (F(1), F(3))) == 3

    def test_euclid_squares(self):
        p = PlaneEuclid()
        assert p.dist_sq_exact((F(0), F(0)), (F(3), F(4))) == 25
        q = p.dist_approx((F(0), F(0)), (F(3), F(4)), F(1, 100))
        assert abs(q - 5) <= F(1, 100)

    def test_euclid_ball_lt_via_squares(self):
        p = PlaneEuclid()
        a = FormalBall((F(0), F(0)), F(1))
        b = FormalBall((F(1), F(1)), F(3))
        # d = sqrt(2) < 2 exactly since 2 < 4
        assert ball_lt(p, a, b)
        c = FormalBall((F(1), F(1)), F(1) + F(1))  # margin 1, d = sqrt2 > 1
        assert not ball_lt(p, a, c)


class _StubbornSpace(MetricSpace):
    """Approximation-only space whose oracle is forever consistent with an
    exact boundary tie."""

    name = "stubborn"

    def enumerate_points(self, count):
        return [F(k) for k in range(count)]

    def dist_approx(self, x, y, eps):
        return abs(x - y)  # claims |x-y| at every precision


class TestPrecisionFloor:
    def test_strict_tie_errors(self):
        s = _StubbornSpace()
        with pytest.raises(UndecidableComparison):
            ball_lt(s, B(1, 0), B(2, 1))  # margin exactly d

    def test_nonstrict_tie_true(self):
        s = _StubbornSpace()
        assert ball_leq(s, B(1, 0), B(2, 1))


class TestRefineBetween:
    def test_concentric_midpoint(self):
        assert refine_between(LINE, B(1, 0), B(3, 0)) == B(2, 0)

    def test_pinned_example(self):
        c = refine_between(LINE, B(F(1, 2), 0), B(3, 1))
        assert c == FormalBall(F(1), F(9, 4))
        assert ball_lt(LINE, B(F(1, 2), 0), c)
        assert ball_lt(LINE, c, B(3, 1))

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            refine_between(LINE, B(3, 0), B(1, 0))

    def test_strict_interpolation_sampled(self):
        rng = random.Random(9)
        for _ in range(200):
            a = B(F(rng.randint(1, 8), 8), F(rng.randint(-8, 8), 4))
            b = B(F(rng.randint(1, 32), 8), F(rng.randint(-8, 8), 4))
            if ball_lt(LINE, a, b):
                c = refine_between(LINE, a, b)
                assert ball_lt(LINE, a, c) and ball_lt(LINE, c, b)

    def test_euclid_interpolation(self):
        p = PlaneEuclid()
        a = FormalBall((F(0), F(0)), F(1, 2))
        b = FormalBall((F(1), F(1)), F(3))
        c = refine_between(p, a, b)
        assert ball_lt(p, a, c) and ball_lt(p, c, b)


class TestFilterStages:
    def test_concentric_refinement(self):
        stage = make_stage(LINE, [B(1, 0)])
        out = filter_stage_refine(LINE, stage, F(1, 4), center_chooser)
        assert out.last == B(F(1, 4), 0)
        assert [b.radius for b in out.chain] == [F(1), F(1, 2), F(1, 4)]

    def test_idempotent_at_target(self):
        stage = make_stage(LINE, [B(F(1, 8), 0)])
        out = filter_stage_refine(LINE, stage, F(1, 4), center_chooser)
        assert out.chain == stage.chain

    def test_sqrt2_convergents(self):
        # Continued-fraction oracle for sqrt 2: convergents by recurrence.
        convergents = [F(1), F(3, 2)]
        while len(convergents) < 10:
            p = convergents[-1]
            convergents.append(1 + 1 / (1 + p))
        assert F(577, 408) in convergents

        def chooser(ball, tol):
            for c in convergents:
                if abs(c - ball.center) <= tol:
                    return c
            raise AssertionError("no convergent close enough")

        stage = make_stage(LINE, [B(1, F(17, 12))])
        out = filter_stage_refine(LINE, stage, F(1, 4), chooser)
        assert out.last.radius <= F(1, 4)
        # the last ball contains 577/408 and the true square root
        assert abs(out.last.center - F(577, 408)) < out.last.radius
        lo = out.last.center - out.last.radius
        hi = out.last.center + out.last.radius
        assert lo * lo < 2 < hi * hi

    def test_uncertifiable_chooser_rejected(self):
        stage = make_stage(LINE, [B(1, 0)])
        with pytest.raises(PreconditionFailed):
            filter_stage_refine(LINE, stage, F(1, 4), lambda ball, tol: ball.center + 1)

    def test_chain_validation(self):
        with pytest.raises(PreconditionFailed):
            make_stage(LINE, [B(1, 0), B(1, 5)])


class TestCompletionBase:
    def test_m1_instances_shape(self):
        base = completion_base(LINE, 8)
        u = B(1, 0)
        instances = base.axiom_instances(u, 2)
        m1s = [(n, fam) for n, fam in instances if n == "m1"]
        assert m1s
        for _, fam in m1s:
            radii = {f.radius for f in fam}
            assert len(radii) == 1
            k = (u.radius - radii.pop()).denominator.bit_length() - 1
            assert k >= 1
            for f in fam:
                assert ball_lt(LINE, f, u)  # soundness of shrink families

    def test_axiom_leaf_derivation(self):
        base = completion_base(LINE, 8)
        u = B(1, 0)
        name, fam = [nf for nf in base.axiom_instances(u, 2) if nf[0] == "m1"][0]
        d = kernel.derive_cover(base, u, fam, 1, budget=2)
        assert d is not None and d.rule == "m1"
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
        base = completion_base(seg, 2**6 + 1)
        m2 = [fam for n, fam in base.axiom_instances(kernel.TOP, 4) if n == "m2"]
        assert m2
        assert base.m2_complete(4)
        # the uniform family at a complete level genuinely covers
        fam = [f for f in m2 if f[0].radius == F(1, 16)][0]
        for x in seg.enumerate_points(30):
            assert any(abs(x - f.center) < f.radius for f in fam)

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
        base = completion_base(LINE, 6)
        u = B(1, 0)
        insts = [nf for nf in base.axiom_instances(u, 2) if nf[0] == "m1"]
        d = kernel.derive_cover(base, u, insts[0][1], 1, budget=2)
        text = kernel.serialize_derivation(base, d)
        assert kernel.parse_derivation(base, text) == d
