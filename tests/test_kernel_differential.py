"""Differential tests of the indexed ball families and the cached search.

On the rational line and its segments ``BallBase`` answers "the listed
points within r of c" from its points sorted once; every other space is
scanned with ``compare_distance``.  The families are checked against
``helpers.points_within`` and against the same base built over a wrapper
space the index does not recognise, and the searches over both bases must
return identical derivations.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import points_within
from overt.kernel import TOP, check_derivation, derive_cover
from overt.located import interval_set, predicate_from_net, tvd_check
from overt.metric import BallBase, FormalBall, LineSegment, MetricSpace, RationalLine

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEARCH_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


class Wrapped(MetricSpace):
    """The same space behind a type the line index does not know."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def enumerate_points(self, count):
        return self.inner.enumerate_points(count)

    def dist_sq(self, x, y):
        return self.inner.dist_sq(x, y)

    def is_grid_complete(self, k, point_budget):
        return self.inner.is_grid_complete(k, point_budget)

    def ball_covers_space(self, ball):
        return self.inner.ball_covers_space(ball)


def dyadic(lo, hi):
    return st.integers(lo * 8, hi * 8).map(lambda n: F(n, 8))


@st.composite
def line_spaces(draw):
    if draw(st.booleans()):
        return RationalLine()
    lo = draw(dyadic(-3, 2))
    return LineSegment(lo, lo + F(draw(st.integers(1, 24)), 8))


@st.composite
def base_and_ball(draw):
    """A base on a line and a ball whose center is a listed point or lies a
    dyadic step off one, so that points at distance exactly r are common."""
    space = draw(line_spaces())
    base = BallBase(space, draw(st.integers(1, 90)))
    center = draw(st.sampled_from(base.points)) + draw(dyadic(-1, 1)) / draw(st.sampled_from([1, 2, 4]))
    radius = F(draw(st.integers(1, 24)), draw(st.sampled_from([4, 8, 16])))
    return base, FormalBall(center, radius)


@SETTINGS
@given(base_and_ball(), st.integers(1, 6))
def test_families_match_scans(case, k):
    base, u = case
    scanned = BallBase(Wrapped(base.space), base.point_budget)
    margin = F(1, 2**k)
    shrink = ()
    if margin < u.radius:
        near = points_within(base.points, u.center, margin)
        shrink = tuple(FormalBall(y, u.radius - margin) for y in near)
    assert base._shrink_family(u, k) == shrink
    uniform = tuple(FormalBall(y, margin) for y in points_within(base.points, u.center, u.radius + margin))
    assert base._uniform_family(u, k) == uniform
    assert base.axiom_instances(u, k) == scanned.axiom_instances(u, k)
    assert base.axiom_instances(TOP, k) == scanned.axiom_instances(TOP, k)


def test_points_at_distance_r_excluded():
    base = BallBase(LineSegment(F(0), F(1)), 9)  # the eighths of [0, 1]
    u = FormalBall(F(1, 2), F(1, 4))
    assert [f.center for f in base._uniform_family(u, 3)] == points_within(base.points, F(1, 2), F(3, 8))
    assert {f.center for f in base._uniform_family(u, 3)} == {F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4)}
    v = FormalBall(F(1, 2), F(1, 2))
    assert {f.center for f in base._shrink_family(v, 2)} == {F(3, 8), F(1, 2), F(5, 8)}


@SEARCH_SETTINGS
@given(line_spaces(), dyadic(-1, 1), st.integers(2, 8), st.integers(2, 3), st.integers(8, 40))
def test_derive_cover_same_over_wrapper(space, c, r8, depth, budget):
    # B(r; c) is covered by the balls of radius r at c -/+ r/2, through the
    # localized uniform families of radius 1/16 when r >= 1/4.
    r = F(r8, 8)
    ball = FormalBall(c, r)
    family = [FormalBall(c - r / 2, r), FormalBall(c + r / 2, r)]
    indexed = BallBase(space, budget)
    scanned = BallBase(Wrapped(space), budget)
    for u in (ball, TOP):
        d = derive_cover(indexed, u, family, depth, budget=4)
        assert d == derive_cover(scanned, u, family, depth, budget=4)
        if d is not None:
            assert check_derivation(indexed, d, u, family)


@SEARCH_SETTINGS
@given(st.integers(0, 4), st.integers(2, 6), st.sampled_from([F(-1, 16), F(1, 16), F(1, 8)]))
def test_tvd_check_same_over_wrapper(a8, w8, margin):
    # One ball around [a, b], with a margin, or falling short of it.
    seg = LineSegment(F(-1), F(2))
    a, b = F(a8, 8), F(a8 + w8, 8)
    Z = [FormalBall((a + b) / 2, (b - a) / 2 + margin)]
    reports = [
        tvd_check(predicate_from_net(interval_set(a, b, space=space)), Z, depth=4, budget=129)
        for space in (seg, Wrapped(seg))
    ]
    assert reports[0] == reports[1]
