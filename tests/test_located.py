import random
from fractions import Fraction as F

import pytest

from helpers import (
    cantor_oracle_distance,
    cantor_oracle_sup_distance,
    finite_hausdorff_leq,
)
from overt import kernel, located, metric
from overt.errors import AmbientMismatch, PreconditionFailed
from overt.located import (
    Decision,
    EpsilonNetFamily,
    LINE,
    LocatedPredicate,
    affine_plane_map,
    ball_region,
    box_set,
    cantor_distance,
    cantor_set,
    decide_located_pair,
    disk_set,
    distance_to_set,
    hausdorff_distance,
    interval_set,
    located_from_overt,
    meets_oracle,
    net_from_located,
    plane_point_set,
    point_set,
    predicate_from_net,
    promote_to_plane,
    segment_set,
    tvd_check,
    union_located,
)
from overt.metric import FormalBall, LineSegment


def B(r, c):
    return FormalBall(c if isinstance(c, tuple) else F(c), F(r))


class TestCantorOracle:
    def test_exact_distance_matches_brute_force(self):
        # Level-12 stage intervals as the independent oracle.
        for x in (F(1, 2), F(1, 4), F(5, 8), F(-1, 3), F(7, 5), F(17, 192)):
            d_oracle = cantor_oracle_distance(x, 12)
            d = cantor_distance(x)
            assert abs(d - d_oracle) <= F(1, 3**12)

    def test_half_is_one_sixth(self):
        assert cantor_oracle_distance(F(1, 2), 12) == F(1, 6)
        assert cantor_distance(F(1, 2)) == F(1, 6)

    def test_members(self):
        for x in (0, 1, F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 9)):
            assert cantor_distance(F(x)) == 0

    def test_widest_gap(self):
        assert cantor_oracle_sup_distance(12) == F(1, 6)


class TestDistance:
    def test_interval_from_outside(self):
        lo, hi = distance_to_set(interval_set(0, 1), F(2)).approximate(F(1, 8))
        assert lo <= 1 <= hi and hi - lo <= F(1, 8)

    def test_cantor_from_half(self):
        lo, hi = distance_to_set(cantor_set(), F(1, 2)).approximate(F(1, 32))
        assert lo <= F(1, 6) <= hi and hi - lo <= F(1, 32)

    def test_membership_gives_zero(self):
        S = point_set([F(3, 7)])
        lo, hi = distance_to_set(S, F(3, 7)).approximate(F(1, 64))
        assert lo == 0 and hi <= F(1, 64)

    def test_plane_distance(self):
        d = distance_to_set(disk_set(F(1, 2), F(1, 2), F(1, 4)), (F(2), F(1, 2)))
        lo, hi = d.approximate(F(1, 16))
        assert lo <= F(5, 4) <= hi


class TestDecide:
    def test_cantor_pair(self):
        ans = decide_located_pair(cantor_set(), B(F(1, 4), F(1, 2)), B(F(1, 3), F(1, 2)))
        assert ans is Decision.POS_OUTER

    def test_far_point(self):
        ans = decide_located_pair(point_set([0]), B(F(1, 4), 1), B(F(1, 2), 1))
        assert ans is Decision.NOT_POS_INNER

    def test_member(self):
        ans = decide_located_pair(interval_set(0, 1), B(F(1, 10), F(1, 2)), B(F(1, 5), F(1, 2)))
        assert ans is Decision.POS_OUTER

    def test_requires_strict_refinement(self):
        with pytest.raises(PreconditionFailed):
            decide_located_pair(interval_set(0, 1), B(1, 0), B(1, 0))

    def test_soundness_sampled(self):
        rng = random.Random(19)
        sets = [interval_set(0, 1), point_set([0, 1]), cantor_set(),
                union_located(interval_set(0, 1), interval_set(2, 3))]
        for S in sets:
            dv = S.distance_value
            for _ in range(150):
                den = 64
                x = F(rng.randint(-den, 3 * den), den)
                r = F(rng.randint(1, den), den)
                gap = F(rng.randint(1, den), den)
                inner, outer = B(r, x), B(r + gap, x)
                ans = decide_located_pair(S, inner, outer)
                if ans is Decision.POS_OUTER:
                    assert dv(x) < r + gap
                else:
                    assert dv(x) >= r

    def test_net_path_without_exact_compare(self):
        # Strip the exact oracle: the approximation path must still be sound.
        I = interval_set(0, 1)
        S = EpsilonNetFamily(LINE, I.net, name="approx01")
        for x, r, g, expect_meets in (
            (F(2), F(1, 4), F(1, 4), False),
            (F(1, 2), F(1, 4), F(1, 4), True),
        ):
            ans = decide_located_pair(S, B(r, x), B(r + g, x))
            if ans is Decision.POS_OUTER:
                assert max(F(0), -x, x - 1) < r + g
            else:
                assert max(F(0), -x, x - 1) >= r


class TestNetFromLocated:
    def test_two_point_set(self):
        P = predicate_from_net(point_set([0, 1]))
        kept = net_from_located(interval_set(0, 1), P, F(1, 4))
        assert kept
        for x in kept:
            assert min(abs(x), abs(x - 1)) <= F(1, 6)
        assert not any(F(2, 5) <= x <= F(3, 5) for x in kept)

    def test_full_ambient_keeps_everything(self):
        amb = interval_set(0, 1)
        P = predicate_from_net(interval_set(0, 1))
        kept = net_from_located(amb, P, F(1, 4))
        assert set(kept) == set(amb.net(F(1, 12)))

    def test_never_meets_gives_empty(self):
        never = LocatedPredicate(LINE, lambda i, o: Decision.NOT_POS_INNER, name="never")
        kept = net_from_located(interval_set(0, 1), never, F(1, 4))
        assert kept == ()

    def test_round_trip_net_is_close(self):
        # located -> net: the filtered net is 2-eps-close to the set.
        for S in (interval_set(0, 1), cantor_set(), point_set([0, 1])):
            P = predicate_from_net(S)
            for eps in (F(1, 4), F(1, 16)):
                kept = net_from_located(interval_set(0, 1), P, eps)
                assert finite_hausdorff_leq(kept, S.net(eps / 8), 2 * eps)

    def test_round_trip_predicate_agrees(self):
        # net -> predicate: rebuilt predicate agrees with the original on
        # pairs with a comfortable gap.
        S = interval_set(0, 1)
        eps = F(1, 16)
        kept = net_from_located(interval_set(0, 1), predicate_from_net(S), eps)
        rebuilt = predicate_from_net(point_set(kept))
        exact = predicate_from_net(S)
        rng = random.Random(23)
        for _ in range(100):
            x = F(rng.randint(-32, 64), 32)
            r = F(rng.randint(1, 32), 32)
            inner, outer = B(r, x), B(r + 4 * eps, x)
            a = rebuilt.decide(inner, outer)
            b = exact.decide(inner, outer)
            # both sound for the set up to 2 eps; they may disagree only
            # inside the tolerance band
            if a != b:
                d = S.distance_value(x)
                assert r - 2 * eps <= d <= r + 4 * eps + 2 * eps


class TestImagesAndUnions:
    def test_affine_image_of_interval(self):
        # x -> (2x, 0) takes [0, 1] to the segment from (0, 0) to (2, 0).
        img = located.affine_image(interval_set(0, 1), affine_plane_map(2, 0, 0, 0, 0, 0))
        target = segment_set(0, 0, 2, 0)
        for eps in (F(1, 4), F(1, 16)):
            assert finite_hausdorff_leq(img.net(eps), target.net(eps), 2 * eps, plane=True)

    def test_identity_image(self):
        # Under the identity the image nets are the Cantor set's, on the x-axis.
        S = cantor_set()
        img = located.affine_image(S, affine_plane_map(1, 0, 0, 0, 1, 0))
        for eps in (F(1, 8), F(1, 32)):
            assert img.net(eps) == [(x, F(0)) for x in S.net(eps)]

    def test_projection_of_square(self):
        square = box_set(0, 1, 0, 1)
        f = affine_plane_map(1, 0, 0, 0, 0, 0)  # (x, y) -> (x, 0)
        img = located.affine_image(square, f)
        seg = segment_set(0, 0, 1, 0)
        for eps in (F(1, 4), F(1, 8)):
            assert finite_hausdorff_leq(img.net(eps), seg.net(eps), 2 * eps, plane=True)

    def test_union_distance(self):
        U = union_located(interval_set(0, 1), interval_set(2, 3))
        lo, hi = distance_to_set(U, F(3, 2)).approximate(F(1, 16))
        assert lo <= F(1, 2) <= hi

    def test_union_idempotent_observationally(self):
        A = interval_set(0, 1)
        AA = union_located(A, A)
        rng = random.Random(29)
        for _ in range(60):
            x = F(rng.randint(-16, 32), 16)
            r = F(rng.randint(1, 16), 16)
            pair = (B(r, x), B(2 * r, x))
            assert decide_located_pair(A, *pair) == decide_located_pair(AA, *pair)

    def test_union_absorbs_member_point(self):
        U = union_located(cantor_set(), point_set([F(1, 2)]))
        lo, hi = distance_to_set(U, F(1, 2)).approximate(F(1, 64))
        assert lo == 0

    def test_union_space_mismatch(self):
        with pytest.raises(AmbientMismatch):
            union_located(interval_set(0, 1), disk_set(0, 0, 1))


class TestFinitePoints:
    def test_finite_sets_carry_their_points(self):
        assert point_set([1, 0, 1]).points == (F(1), F(0), F(1))
        assert plane_point_set([(0, 1)]).points == ((F(0), F(1)),)
        assert segment_set(1, 2, 1, 2).points == ((F(1), F(2)),)  # degenerate
        assert union_located(point_set([0]), point_set([2])).points == (F(0), F(2))
        assert promote_to_plane(point_set([3])).points == ((F(3), F(0)),)
        # Affine images of finite sets are the mapped finite sets.
        shear = affine_plane_map(1, F(1, 2), 0, 0, 1, 0)
        assert located.affine_image(plane_point_set([(0, 1)]), shear).points == ((F(1, 2), F(1)),)

    def test_other_sets_have_none(self):
        shear = affine_plane_map(1, F(1, 2), 0, 0, 1, 0)
        for S in (interval_set(0, 1), cantor_set(), disk_set(0, 0, 1), segment_set(0, 0, 1, 1),
                  box_set(0, 1, 0, 1), union_located(point_set([0]), interval_set(1, 2)),
                  located.affine_image(disk_set(0, 0, 1), shear)):
            assert S.points is None


class TestHausdorff:
    def test_nested_intervals(self):
        lo, hi = hausdorff_distance(interval_set(0, 1), interval_set(0, 2)).approximate(F(1, 16))
        assert lo <= 1 <= hi

    def test_interval_vs_cantor(self):
        lo, hi = hausdorff_distance(interval_set(0, 1), cantor_set()).approximate(F(1, 64))
        assert lo <= F(1, 6) <= hi

    def test_self_distance_zero(self):
        for A, eps in (
            (interval_set(0, 1), F(1, 32)),
            (cantor_set(), F(1, 32)),
            (disk_set(F(1, 2), F(1, 2), F(1, 4)), F(1, 16)),
        ):
            lo, hi = hausdorff_distance(A, A).approximate(eps)
            assert lo == 0

    def test_symmetry_exact(self):
        A, C = interval_set(0, 1), cantor_set()
        for eps in (F(1, 8), F(1, 64)):
            assert hausdorff_distance(A, C).approximate(eps) == hausdorff_distance(C, A).approximate(eps)

    def test_triangle_with_slack(self):
        A, Bs, C = interval_set(0, 1), interval_set(0, 2), point_set([3])
        eps = F(1, 32)
        ab = hausdorff_distance(A, Bs).approximate(eps)[1]
        bc = hausdorff_distance(Bs, C).approximate(eps)[1]
        ac = hausdorff_distance(A, C).approximate(eps)[0]
        assert ac <= ab + bc + 3 * eps


class TestDichotomyAdapters:
    def test_constant_positive_mon(self):
        base = metric.completion_base(LINE, 10)
        raw = LocatedPredicate(LINE, lambda i, o: Decision.POS_OUTER, name="always")
        pos = kernel.SetPredicate("from-raw", lambda b: True)
        rng = random.Random(31)
        judgments = []
        for u in base.sample_elements(rng, 10):
            for name, fam in base.axiom_instances(u, 2)[:1]:
                judgments.append((u, fam, None))
        rep = kernel.check_positivity_axioms(base, pos, judgments, depth=2, budget=2)
        assert rep.all_mon_ok

    def test_mon_on_sampled_cover_instances(self):
        # The exact [0,1] predicate satisfies the monotonicity axiom on 200
        # sampled m2loc judgments: each family covers its ball at every
        # point, so a ball that meets [0,1] has a member that meets it,
        # tangent balls included.
        base = metric.completion_base(LINE, 16)
        dv = interval_set(0, 1).distance_value
        pos = kernel.SetPredicate(
            "pos01", lambda b: b is kernel.TOP or dv(b.center) < b.radius
        )
        rng = random.Random(99)
        judgments = []
        while len(judgments) < 200:
            u = base.sample_elements(rng, 1)[0]
            insts = base.axiom_instances(u, 2)
            if not insts:
                continue
            name, fam = insts[rng.randrange(len(insts))]
            judgments.append((u, fam, kernel.Derivation(name, u, witness=fam)))
        rep = kernel.check_positivity_axioms(base, pos, judgments, depth=2, budget=2)
        assert rep.all_mon_ok

    def test_upward_violation_reported(self):
        # a predicate positive on a ball but on no ball of a family covering
        # it: Mon fails on an m2loc family.
        base = metric.completion_base(LINE, 32)
        u = B(1, 0)
        name, fam = base.axiom_instances(u, 2)[0]
        pos = kernel.SetPredicate("only-u", lambda b: b == u)
        judgments = [(u, fam, kernel.Derivation(name, u, witness=fam))]
        rep = kernel.check_positivity_axioms(base, pos, judgments, depth=1, budget=2)
        assert not rep.all_mon_ok
        assert rep.mon_failures[0].element == u


class TestOvertToLocated:
    def test_matches_exact_predicate(self):
        amb = (F(-1), F(2))
        for S in (interval_set(0, 1), point_set([0, 1]), cantor_set()):
            derived = located_from_overt(meets_oracle(S, amb), amb)
            exact = predicate_from_net(S)
            rng = random.Random(37)
            for _ in range(200):
                den = 2**8
                x = F(rng.randint(-den, 2 * den), den)
                r = F(rng.randint(1, den), den)
                gap = F(rng.randint(1, den), den)
                inner, outer = B(r, x), B(r + gap, x)
                assert derived.decide(inner, outer) == exact.decide(inner, outer)

    def test_ball_region_clips(self):
        amb = (F(-1), F(2))
        e = ball_region(B(10, 0), amb)
        assert e.is_one


class TestTvd:
    def test_contained_interval_holds(self):
        seg = LineSegment(F(-1), F(2))
        P = predicate_from_net(interval_set(0, F(1, 2), space=seg))
        Z = [B(F(1, 2), F(1, 4))]
        rep = tvd_check(P, Z, depth=4, budget=200)
        assert rep.verdict == "holds"

    def test_empty_open_unknown(self):
        seg = LineSegment(F(-1), F(2))
        P = predicate_from_net(interval_set(0, F(1, 2), space=seg))
        rep = tvd_check(P, [], depth=3, budget=200)
        assert rep.verdict == "unknown"
        assert not rep.cover_found

    def test_whole_space_in_z(self):
        seg = LineSegment(F(-1), F(2))
        P = predicate_from_net(interval_set(0, F(1, 2), space=seg))
        Z = [FormalBall(F(1, 2), F(2))]
        rep = tvd_check(P, Z, depth=1, budget=64)
        assert rep.verdict == "holds"

    def test_no_false_positive(self):
        # [0, 3/2] is not inside (-1/4, 3/4): the check must not claim it.
        seg = LineSegment(F(-1), F(2))
        P = predicate_from_net(interval_set(0, F(3, 2), space=seg))
        Z = [B(F(1, 2), F(1, 4))]
        rep = tvd_check(P, Z, depth=4, budget=200)
        assert rep.verdict == "unknown"


class TestPromotion:
    def test_promote_exactness(self):
        S = promote_to_plane(interval_set(0, 1))
        assert S.distance_compare((F(2), F(0)), F(1)) == 0
        assert S.distance_compare((F(1, 2), F(3, 4)), F(1, 2)) > 0
        assert S.distance_compare((F(1, 2), F(1, 4)), F(1, 2)) < 0
