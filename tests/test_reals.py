from fractions import Fraction as F

import pytest

from helpers import sqrt2_refiner
from overt import reals
from overt.errors import PreconditionFailed
from overt.reals import (
    DedekindReal,
    GapDecision,
    UpperReal,
    compare_with_gap,
    exact_gap_witness,
    from_rational,
    min_finite,
    scale_shift,
    sqrt_real,
    upper_to_dedekind,
)


def sqrt2():
    return DedekindReal(sqrt2_refiner, name="sqrt2-oracle")


class TestFromRational:
    def test_exact(self):
        assert from_rational(F(3, 2)).approximate(F(1, 10)) == (F(3, 2), F(3, 2))

    def test_zero(self):
        assert from_rational(0).approximate(F(1)) == (0, 0)

    def test_negative_any_precision(self):
        assert from_rational(F(-7, 3)).approximate(F(1, 100)) == (F(-7, 3), F(-7, 3))


class TestCompareWithGap:
    def test_lower(self):
        assert compare_with_gap(from_rational(F(1, 3)), F(3, 10), F(4, 10)) is GapDecision.LOWER_SIDE

    def test_upper(self):
        assert compare_with_gap(from_rational(F(1, 3)), F(2, 5), F(1, 2)) is GapDecision.UPPER_SIDE

    def test_sqrt2_between(self):
        # Oracle first: 1.4 < sqrt 2 < 1.5, checked on squares.
        assert F(14, 10) ** 2 < 2 < F(15, 10) ** 2
        assert compare_with_gap(sqrt2(), F(14, 10), F(15, 10)) is GapDecision.LOWER_SIDE

    def test_rejects_bad_gap(self):
        with pytest.raises(PreconditionFailed):
            compare_with_gap(from_rational(0), F(1), F(1))

    def test_answers_track_the_value(self):
        # Sampled soundness: the answer never contradicts the known value.
        x = from_rational(F(5, 7))
        grid = [F(k, 16) for k in range(-4, 20)]
        for s in grid:
            for t in grid:
                if s < t:
                    ans = compare_with_gap(x, s, t)
                    if ans is GapDecision.LOWER_SIDE:
                        assert s < F(5, 7)
                    else:
                        assert F(5, 7) < t

    def test_cross_query_consistency(self):
        # LOWER_SIDE at s' forbids UPPER_SIDE at any t <= s'.
        x = sqrt2()
        grid = [F(k, 8) for k in range(0, 24)]
        answers = {}
        for s in grid:
            for t in grid:
                if s < t:
                    answers[(s, t)] = compare_with_gap(x, s, t)
        for (s1, t1), a1 in answers.items():
            for (s2, t2), a2 in answers.items():
                if a1 is GapDecision.UPPER_SIDE and a2 is GapDecision.LOWER_SIDE:
                    assert not t1 <= s2


class TestMinFinite:
    def test_rationals(self):
        m = min_finite([from_rational(F(3, 2)), from_rational(F(4, 3))])
        assert m.approximate(F(1, 10)) == (F(4, 3), F(4, 3))

    def test_singleton_observational(self):
        x = sqrt2()
        m = min_finite([x])
        for eps in (F(1, 4), F(1, 32), F(1, 128)):
            assert m.approximate(eps) == x.approximate(eps)

    def test_with_irrational(self):
        m = min_finite([sqrt2(), from_rational(2)])
        lo, hi = m.approximate(F(1, 100))
        assert hi - lo <= F(1, 100)
        assert lo * lo <= 2 <= hi * hi

    def test_commutative_associative(self):
        xs = [from_rational(F(7, 5)), sqrt2(), from_rational(F(3, 2))]
        a = min_finite(xs)
        b = min_finite(list(reversed(xs)))
        c = min_finite([min_finite(xs[:2]), xs[2]])
        for eps in (F(1, 8), F(1, 64)):
            assert a.approximate(eps) == b.approximate(eps)
            la, ha = a.approximate(eps)
            lc, hc = c.approximate(eps)
            assert max(la, lc) <= min(ha, hc)  # both bracket the same value

    def test_rejects_empty(self):
        with pytest.raises(PreconditionFailed):
            min_finite([])


class TestRefinementInvariants:
    def test_intervals_intersect_across_precisions(self):
        for x in (from_rational(F(-7, 3)), sqrt2(), sqrt_real(5), min_finite([sqrt2(), from_rational(2)])):
            eps = [F(1, 2**k) for k in range(1, 21)]
            boxes = [x.approximate(e) for e in eps]
            for (e1, (lo1, hi1)) in zip(eps, boxes):
                for (e2, (lo2, hi2)) in zip(eps, boxes):
                    assert max(lo1, lo2) <= min(hi1, hi2)
                    if e1 < e2:  # finer interval sits inside the widened coarse one
                        assert lo2 - e2 <= lo1 and hi1 <= hi2 + e2

    def test_width_bound_enforced(self):
        bad = DedekindReal(lambda eps: (F(0), F(2)), name="bad")
        with pytest.raises(PreconditionFailed):
            bad.approximate(F(1, 2))

    def test_repr_never_refines(self):
        def never(eps):
            raise AssertionError(f"refined at {eps}")

        assert repr(DedekindReal(never, name="x")) == "DedekindReal(x)"

        asked = (F(1, 4), F(1, 64))

        def only_asked(eps):
            if eps not in asked:
                never(eps)
            return sqrt2_refiner(eps)

        x = DedekindReal(only_asked, name="x")
        _, fine = (x.approximate(eps) for eps in asked)
        assert repr(x) == f"DedekindReal(x ~ {reals.format_interval(*fine)})"


class TestScaleShift:
    def test_affine_of_sqrt2(self):
        y = scale_shift(sqrt2(), F(-3), F(1))  # 1 - 3 sqrt 2
        lo, hi = y.approximate(F(1, 50))
        assert hi - lo <= F(1, 50)
        # brackets 1 - 3 sqrt 2: check endpoints on squares of (1 - v)/3
        assert ((1 - hi) / 3) ** 2 <= 2 <= ((1 - lo) / 3) ** 2


class TestUpperReals:
    def test_stream_monotone(self):
        u = UpperReal(lambda n: F(1) + F(1, 2**n), name="1+2^-n")
        bs = u.bounds(32)
        assert all(b2 <= b1 for b1, b2 in zip(bs, bs[1:]))

    def test_constant_stream(self):
        u = UpperReal(lambda n: F(1), name="const1")
        x = upper_to_dedekind(u, exact_gap_witness(F(1)))
        for eps in (F(1, 4), F(1, 16), F(1, 128)):
            lo, hi = x.approximate(eps)
            assert lo <= 1 <= hi and hi - lo <= eps

    def test_decreasing_stream(self):
        u = UpperReal(lambda n: F(1) + F(1, 2**n), name="1+2^-n")
        x = upper_to_dedekind(u, exact_gap_witness(F(1)))
        lo, hi = x.approximate(F(1, 8))
        assert lo <= 1 <= hi and hi - lo <= F(1, 8)

    def test_distance_stream_to_interval(self):
        # d(2, [0,1]) = 1, presented as a bound stream plus a gap witness.
        def bound(n):
            # crude overestimates shrinking to 1
            return F(1) + F(3, 2**n) if n else F(4)

        u = UpperReal(bound, name="d(2,[0,1])")
        x = upper_to_dedekind(u, exact_gap_witness(F(1)))
        lo, hi = x.approximate(F(1, 16))
        assert lo <= 1 <= hi and hi - lo <= F(1, 16)

    def test_distance_stream_with_net_witness(self):
        # The same distance, with both the stream and the witness computed
        # from epsilon-nets of the interval rather than from the known value.
        from overt.located import distance_to_set, interval_set

        S = interval_set(0, 1)

        def bound(n):
            # upper bounds from net evaluation, forced non-increasing
            best = None
            for k in range(n + 1):
                eps = F(1, 2**k)
                b = min(abs(F(2) - y) for y in S.net(eps)) + eps
                best = b if best is None else min(best, b)
            return best

        u = UpperReal(bound, name="net-d(2,[0,1])")
        witness = reals.gap_witness_of(distance_to_set(S, F(2)))
        x = upper_to_dedekind(u, witness)
        lo, hi = x.approximate(F(1, 16))
        assert lo <= 1 <= hi and hi - lo <= F(1, 16)

    def test_witness_from_refiner(self):
        u = UpperReal(lambda n: F(2) + F(1, n + 1), name="to-sqrt-ish")
        witness = reals.gap_witness_of(from_rational(F(2)))
        x = upper_to_dedekind(u, witness)
        lo, hi = x.approximate(F(1, 32))
        assert lo <= 2 <= hi
