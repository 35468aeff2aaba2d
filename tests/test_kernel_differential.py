"""Differential tests of the indexed ball families and the cached search.

On the rational line and its segments ``BallBase`` answers "the listed
points within r of c", and whether their balls cover the element, from its
points sorted once; every other space is scanned with ``compare_distance``
and judged on the family's own centres.  The families are checked against
``helpers.points_within`` and ``helpers.line_family_covers`` and against
the same base built over a wrapper space the index does not recognise, and
the searches over both bases must return identical derivations.

The line spaces compare distances and find the points near a ball in
integers; both are checked against ``Fraction`` arithmetic, on non-dyadic
values and on ties.  A search on the formal reals runs over integer
endpoints; at ``MAX_DEPTH`` with denominators 3, 5 and 7 it must stay on its
scale and return only derivations the checker accepts.

The search itself, with its per-element records, is checked against
``helpers.derivable_within``, plain recursion over the candidate families:
it answers Unknown exactly when the oracle finds no derivation within the
depth, and otherwise returns a checked derivation of the least depth, in
which every member premise of a ``tra`` node is of its own least depth.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    derivable_within,
    least_derivation_depth,
    line_ball_cover_holds,
    line_family_covers,
    plane_cover_holds_at,
    points_within,
)
from overt.kernel import (
    MAX_DEPTH,
    TOP,
    ClosedSub,
    EltSet,
    FormalRealsBase,
    SetPredicate,
    as_target,
    check_derivation,
    derive_cover,
    sublocale_cover,
)
from overt.located import interval_set, predicate_from_net, tvd_check
from overt.metric import (
    BallBase,
    FormalBall,
    LineSegment,
    MetricSpace,
    PlaneEuclid,
    RationalLine,
    completion_base,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEARCH_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
ORACLE_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


class Wrapped(MetricSpace):
    """The same space behind a type the line index does not know."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def enumerate_points(self, count):
        return self.inner.enumerate_points(count)

    def dist_sq(self, x, y):
        return self.inner.dist_sq(x, y)

    def extent(self, u):
        return self.inner.extent(u)

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


def extent_of(space, u):
    """The range a family must span: the ball's, clipped to a segment; the
    segment itself for the top; None for the top of the line."""
    segment = isinstance(space, LineSegment)
    if u is TOP:
        return (space.lo, space.hi) if segment else None
    lo, hi = u.center - u.radius, u.center + u.radius
    return (max(lo, space.lo), min(hi, space.hi)) if segment else (lo, hi)


@SETTINGS
@given(base_and_ball(), st.integers(1, 6))
def test_families_match_scans(case, k):
    base, u = case
    scanned = BallBase(Wrapped(base.space), base.point_budget)
    rho = F(1, 2**k)
    for v, near in ((u, points_within(base.points, u.center, u.radius + rho)), (TOP, base.points)):
        box = extent_of(base.space, v)
        covers = box is not None and bool(near) and line_family_covers(near, *box, rho)
        assert base._uniform_family(v, k) == (tuple(FormalBall(y, rho) for y in near) if covers else ())
        assert scanned._uniform_family(v, k) == base._uniform_family(v, k)
        assert base.axiom_instances(v, k) == scanned.axiom_instances(v, k)


def test_points_at_distance_r_excluded():
    base = BallBase(LineSegment(F(0), F(1)), 9)  # the eighths of [0, 1]
    u = FormalBall(F(1, 2), F(1, 4))
    assert [f.center for f in base._uniform_family(u, 3)] == points_within(base.points, F(1, 2), F(3, 8))
    assert {f.center for f in base._uniform_family(u, 3)} == {F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4)}
    # 1/4 and 3/4 lie at exactly r + 1/8 from 1/2; the open ball reaches up
    # to, not onto, 3/8 and 5/8, so the three eighths between cover it.
    v = FormalBall(F(1, 2), F(1, 8))
    assert {f.center for f in base._uniform_family(v, 3)} == {F(3, 8), F(1, 2), F(5, 8)}
    # Eighths leave gaps wider than 1/16: no family of that radius.
    assert base._uniform_family(u, 4) == () and base._uniform_family(TOP, 4) == ()


@SEARCH_SETTINGS
@given(line_spaces(), dyadic(-1, 1), st.integers(2, 8), st.integers(2, 3), st.integers(8, 40))
def test_derive_cover_same_over_wrapper(space, c, r8, depth, budget):
    # B(r; c) is covered by the balls of radius r at c -/+ r/2, through the
    # localized uniform families wherever the listed points are dense
    # enough.
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


def eighths(lo, hi):
    return st.integers(lo * 8, hi * 8).map(lambda n: F(n, 8))


@st.composite
def reals_judgments(draw):
    """(base, u, family) over the formal reals: a dyadic interval, or the top
    of an ambient, against a chain of overlapping dyadic intervals across
    it, often with one link dropped, or against one to three random
    intervals."""
    ambient = (F(0), F(1)) if draw(st.booleans()) else None
    base = FormalRealsBase(ambient)
    if ambient is not None and draw(st.booleans()):
        u, (a, b) = TOP, ambient
    else:
        lo, hi = sorted(draw(st.lists(st.integers(0, 16), min_size=2, max_size=2, unique=True)))
        a, b = F(lo, 16), F(hi, 16)
        u = (a, b)
    if draw(st.integers(0, 3)):
        cuts = sorted(set(draw(st.lists(st.integers(1, 15), min_size=1, max_size=4))))
        ends = [a] + [a + (b - a) * F(c, 16) for c in cuts] + [b]
        spill = F(draw(st.integers(1, 3)), 64)
        family = [(lo - spill, hi + spill) for lo, hi in zip(ends, ends[1:])]
        if draw(st.booleans()):
            family.pop(draw(st.integers(0, len(family) - 1)))
        return base, u, family

    def interval(lo, hi):
        a = draw(eighths(lo, hi))
        return (a, a + F(draw(st.integers(1, 6)), 8))

    return base, u, [interval(-1, 1) for _ in range(draw(st.integers(1, 3)))]


@st.composite
def segment_judgments(draw):
    """(base, u, family) over the ball base of [0, 1] at its eighths: the top
    or a ball at an eighth, against two balls of a shared radius a quarter
    of the way either side of its centre, or one to three random balls."""
    base = BallBase(LineSegment(F(0), F(1)), 9)

    def ball():
        return FormalBall(draw(eighths(0, 1)), F(draw(st.integers(1, 8)), 8))

    u = TOP if draw(st.booleans()) else ball()
    if draw(st.integers(0, 3)):
        c, r = (F(1, 2), F(1, 2)) if u is TOP else (u.center, u.radius)
        s = r * F(draw(st.integers(2, 6)), 4)
        return base, u, [FormalBall(c - r / 2, s), FormalBall(c + r / 2, s)]
    return base, u, [ball() for _ in range(draw(st.integers(1, 3)))]


def assert_search_matches_oracle(base, u, family, depth, budget):
    d = derive_cover(base, u, family, depth, budget=budget)
    least = least_derivation_depth(base, u, as_target(family), depth, budget)
    assert (d is None) == (least is None)
    if d is not None:
        assert check_derivation(base, d, u, family)
        assert d.tree_depth() == least


@ORACLE_SETTINGS
@given(reals_judgments(), st.integers(1, 4), st.sampled_from([2, 4]))
def test_reals_search_matches_oracle(judgment, depth, budget):
    assert_search_matches_oracle(*judgment, depth, budget)


@ORACLE_SETTINGS
@given(segment_judgments(), st.integers(1, 3), st.integers(1, 3))
def test_segment_search_matches_oracle(judgment, depth, budget):
    assert_search_matches_oracle(*judgment, depth, budget)


def assert_subderivations_least(base, u, family, depth, budget):
    """The root of a returned derivation, and every member premise of each
    of its ``tra`` nodes, is of its element's least depth for the target;
    a ``tra`` head is an axiom node and is not checked."""
    d = derive_cover(base, u, family, depth, budget=budget)
    if d is None:
        return
    target = as_target(family)
    checked = [d] + [sub for node in d.nodes() if node.rule == "tra" for sub in node.premises[1:]]
    least = {}
    for node in checked:
        if node.element not in least:
            least[node.element] = least_derivation_depth(base, node.element, target, depth, budget)
        assert node.tree_depth() == least[node.element]


@ORACLE_SETTINGS
@given(reals_judgments(), st.integers(1, 4), st.sampled_from([2, 4]))
def test_reals_subderivations_least(judgment, depth, budget):
    assert_subderivations_least(*judgment, depth, budget)


# B(1/2; 1/8) has a derivation of depth 2, but a search that meets it
# first with depth 3 left, under B(3/4; 0), finds one of depth 3 first.
SEGMENT_MEMBER_CASE = (
    BallBase(LineSegment(F(0), F(1)), 9),
    FormalBall(F(0), F(3, 4)),
    [FormalBall(F(1, 4), F(1, 8)), FormalBall(F(7, 8), F(3, 8)), FormalBall(F(1, 8), F(1, 4))],
)


@ORACLE_SETTINGS
@given(segment_judgments(), st.integers(1, 3), st.integers(1, 3))
@example(SEGMENT_MEMBER_CASE, 4, 3)
def test_segment_subderivations_least(judgment, depth, budget):
    assert_subderivations_least(*judgment, depth, budget)


def tvd_oracle(P, Z, depth, budget) -> str:
    """The verdict of ``tvd_check`` from ``derivable_within``: the top below
    Z and the negative balls, and each default sample below Z in the
    positively closed sublocale."""
    base = completion_base(P.space, budget)
    notpos = SetPredicate("notpos", lambda b: b is not TOP and not P.pos_exact(b))
    cover = derivable_within(base, TOP, EltSet(Z, (notpos,)), depth, budget)
    samples = [TOP] + [FormalBall(c, F(1, 4)) for c in base.points[:6]]
    pos = lambda b: b is TOP or P.pos_exact(b)  # noqa: E731
    found = all(derivable_within(base, s, EltSet(Z), depth, budget, pos) for s in samples)
    return "holds" if cover and found else "unknown"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6), st.integers(1, 4), st.sampled_from([F(-1, 8), F(0), F(1, 8)]),
       st.integers(1, 3))
def test_tvd_check_matches_oracle(a8, w8, margin, depth):
    seg = LineSegment(F(0), F(1))
    a, b = F(a8, 8), F(min(a8 + w8, 8), 8)
    Z = (FormalBall((a + b) / 2, (b - a) / 2 + margin + F(1, 8)),)
    P = predicate_from_net(interval_set(a, b, space=seg))
    assert tvd_check(P, Z, depth=depth, budget=9).verdict == tvd_oracle(P, Z, depth, 9)


# ---------------------------------------------------------------------------
# Soundness at points: every derived ball cover holds at every point.
# ---------------------------------------------------------------------------


@st.composite
def line_ball_judgments(draw):
    """(base, segment, u, family, depth, budget) on ``loc:q`` or a segment at
    the point budgets of ``overt cover``: the top or a ball against two
    balls either side of its centre, or one to three random balls."""
    budget = draw(st.integers(1, 4))
    segment = draw(st.sampled_from([None, (F(-1), F(1)), (F(-1, 3), F(2, 5))]))
    if segment is None:
        base = completion_base(RationalLine(), max(budget * 8, 16))
    else:
        base = completion_base(LineSegment(*segment), 2 ** max(budget, 4) + 1)

    def ball():
        return FormalBall(draw(eighths(-2, 2)), F(draw(st.integers(1, 16)), 8))

    u = TOP if draw(st.integers(0, 3)) == 0 else ball()
    if draw(st.booleans()):
        c, r = (F(0), F(1)) if u is TOP else (u.center, u.radius)
        s = r * F(draw(st.integers(2, 6)), 4)
        family = [FormalBall(c - r / 2, s), FormalBall(c + r / 2, s)]
    else:
        family = [ball() for _ in range(draw(st.integers(1, 3)))]
    return base, segment, u, family, draw(st.integers(1, 4)), budget


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(line_ball_judgments())
def test_derived_line_ball_covers_hold_at_points(judgment):
    base, segment, u, family, depth, budget = judgment
    d = derive_cover(base, u, family, depth, budget=budget)
    if d is not None:
        target = None if u is TOP else (u.center, u.radius)
        assert line_ball_cover_holds(target, [(b.center, b.radius) for b in family], segment)


def circle_points(c, r, n):
    """n rational points on the circle of radius r about c, from the
    Pythagorean parametrisation ((1 - t^2), 2t) / (1 + t^2), t = i/n."""
    out = []
    for i in range(-n, n + 1):
        t = F(i, n)
        x, y = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        out += [(c[0] + r * x, c[1] + r * y), (c[0] - r * x, c[1] - r * y)]
    return out


def points_of_ball(c, r):
    """Rational points strictly inside B(r; c): a grid of step r/8, and the
    points just inside its rim and halfway out."""
    grid = [(c[0] + r * F(i, 8), c[1] + r * F(j, 8)) for i in range(-8, 9) for j in range(-8, 9)]
    rims = circle_points(c, r * F(63, 64), 12) + circle_points(c, r / 2, 6)
    return [x for x in grid if (x[0] - c[0]) ** 2 + (x[1] - c[1]) ** 2 < r * r] + rims


@st.composite
def plane_ball_judgments(draw):
    """(base, u, family) on ``loc:q2``: a ball near the origin against the
    four balls a quarter-diagonal out from its centre, sometimes with one
    dropped, or one to three random balls.  The 625 listed points hold the
    quarter grid over [-3, 3]^2."""
    base = completion_base(PlaneEuclid(), 625)
    quarter = eighths(-1, 1).map(lambda x: x - x % F(1, 4))
    c = (draw(quarter), draw(quarter))
    r = F(draw(st.integers(3, 4)), 4)
    u = FormalBall(c, r)
    if draw(st.integers(0, 2)):
        s = r * F(draw(st.integers(4, 6)), 4)
        family = [FormalBall((c[0] + a * r / 2, c[1] + b * r / 2), s) for a in (-1, 1) for b in (-1, 1)]
        if draw(st.integers(0, 2)) == 0:
            family.pop(draw(st.integers(0, 3)))
    else:
        family = [FormalBall((draw(quarter), draw(quarter)), F(draw(st.integers(2, 12)), 8))
                  for _ in range(draw(st.integers(1, 3)))]
    return base, u, family


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(plane_ball_judgments(), st.integers(1, 3), st.integers(2, 3))
def test_derived_plane_ball_covers_hold_at_points(judgment, depth, budget):
    base, u, family = judgment
    d = derive_cover(base, u, family, depth, budget=budget)
    if d is not None:
        balls = [(b.center, b.radius) for b in family]
        assert all(plane_cover_holds_at(x, balls) for x in points_of_ball(u.center, u.radius))


def test_plane_ball_judgments_reach_m2loc():
    # The four balls of radius 5/4 a quarter-diagonal out from the centre
    # cover B(1; 0) only through an m2loc family, of radius 1/4; with one of
    # them dropped the cover is false at points, and nothing is derived.
    base = completion_base(PlaneEuclid(), 625)
    u = FormalBall((F(0), F(0)), F(1))
    family = [FormalBall((a, b), F(5, 4)) for a in (F(-1, 2), F(1, 2)) for b in (F(-1, 2), F(1, 2))]
    d = derive_cover(base, u, family, 2, budget=3)
    assert d is not None and d.premises[0].rule == "m2loc"
    assert check_derivation(base, d, u, family)
    assert derive_cover(base, u, family[1:], 3, budget=3) is None


# ---------------------------------------------------------------------------
# Integer arithmetic against Fraction arithmetic.
# ---------------------------------------------------------------------------


def non_dyadic(lo, hi):
    return st.builds(F, st.integers(lo * 35, hi * 35), st.sampled_from([1, 3, 5, 7, 12, 35]))


@st.composite
def non_dyadic_line_spaces(draw):
    if draw(st.booleans()):
        return RationalLine()
    lo = draw(non_dyadic(-3, 2))
    return LineSegment(lo, lo + draw(non_dyadic(1, 3)))


@SETTINGS
@given(non_dyadic_line_spaces(), non_dyadic(-3, 3), non_dyadic(-3, 3), non_dyadic(-2, 2),
       st.sampled_from(["free", "tie", "zero"]))
@example(RationalLine(), F(1, 3), F(1, 3), F(0), "free")
@example(LineSegment(F(-1, 3), F(2, 5)), F(1, 7), F(-1, 5), F(-12, 35), "free")
def test_line_compare_distance_matches_squares(space, x, y, t, mode):
    # A tie d = t, a zero threshold, and otherwise any t, negative ones too.
    t = {"free": t, "tie": abs(x - y), "zero": F(0)}[mode]
    dsq = space.dist_sq(x, y)
    expected = 1 if t < 0 else (dsq > t * t) - (dsq < t * t)
    assert space.compare_distance(x, y, t) == expected


@SETTINGS
@given(non_dyadic_line_spaces(), st.integers(1, 90), non_dyadic(0, 2), st.integers(1, 6), st.data())
def test_near_matches_scan(space, budget, r, k, data):
    # The centre sits r + 2**-k or r off a listed point, or off a point
    # shifted by a non-dyadic offset, so that points at distance exactly
    # r + 2**-k, and listed points on the ends of the ball, are common.
    if r == 0:
        r = F(1, 3)
    rho = F(1, 2**k)
    base = BallBase(space, budget)
    y = data.draw(st.sampled_from(base.points))
    offsets = [-r - rho, r + rho, -r, r, F(0), r / 3]
    c = y + data.draw(st.sampled_from(offsets)) + data.draw(st.sampled_from([F(0), F(1, 7)]))
    u = FormalBall(c, r)
    near = [z for z in base.points if abs(z - c) < r + rho]
    assert near == points_within(base.points, c, r + rho)
    covers = bool(near) and line_family_covers(near, *extent_of(space, u), rho)
    assert base._uniform_family(u, k) == (tuple(FormalBall(z, rho) for z in near) if covers else ())


def out_of(lo, hi):
    """The intervals outside [lo, hi], with lo and hi as hints."""
    return SetPredicate("out", lambda e: e is not TOP and (e[1] <= lo or e[0] >= hi),
                        hints=(lo, hi))


@st.composite
def deep_reals_judgments(draw):
    """(base, u, family, closed) over the formal reals with ends over 3, 5
    and 7: an interval or the top of an ambient against a chain across it,
    often with a gap, and sometimes a closed sublocale with its own hints."""
    den = draw(st.sampled_from([3, 5, 7, 15, 21, 35]))
    lo, hi = sorted(draw(st.lists(st.integers(-den, 2 * den), min_size=2, max_size=2, unique=True)))
    a, b = F(lo, den), F(hi, den)
    ambient = (a, b) if draw(st.booleans()) else None
    u = TOP if ambient is not None and draw(st.booleans()) else (a, b)
    cuts = sorted(set(draw(st.lists(st.integers(1, 34), min_size=1, max_size=3))))
    ends = [a] + [a + (b - a) * F(c, 35) for c in cuts] + [b]
    spill = F(draw(st.integers(0, 2)), draw(st.sampled_from([3, 5, 7])) * 7)
    family = [(x - spill, y + spill) for x, y in zip(ends, ends[1:])]
    closed = None
    if draw(st.booleans()):
        closed = ClosedSub(predicates=(out_of(a + (b - a) / 3, b - (b - a) / 5),))
    return FormalRealsBase(ambient), u, family, closed


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(deep_reals_judgments())
def test_reals_search_at_max_depth_stays_exact(judgment):
    base, u, family, closed = judgment
    if closed is None:
        d = derive_cover(base, u, family, MAX_DEPTH)
    else:
        d = sublocale_cover(base, closed, u, family, MAX_DEPTH)
    if d is not None:
        assert check_derivation(base, d, u, family, sublocale=closed)
