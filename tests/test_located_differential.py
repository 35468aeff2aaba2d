"""Randomised differential tests of the exact-first located queries.

Distances and Hausdorff distances answered from a set's exact comparison
are checked against the independent oracles of ``helpers`` and against the
net path, which is reached by wrapping the same net function without an
exact comparison.  Every bracket must have width at most eps (net-path
brackets less), contain the oracle value and
meet the net-path bracket; swapping the arguments of a Hausdorff distance
must give the identical interval, and a pair with one net-only set must
sweep nets both ways.  The cell descent of exact pairs is checked against
closed forms down to fine precisions, plateaus included, and by a count of
its comparisons.  Net-only dichotomies must agree with the oracles.
Images under affine maps are checked the same way, against oracles
written from the mapped geometry, and the exact Hausdorff distance of two
finite sets against its closed form.  The nearest-point index of a net is
checked against brute force, and a space outside the grid spaces, with
the same exact squared distances, checks the one-cell index that scans.
"""

import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    affine_apply,
    box_dist_sq,
    box_net,
    bracket_holds_min_root,
    cantor_oracle_distance,
    disk_distance_sign,
    disk_net,
    finite_hausdorff_1d,
    finite_hausdorff_leq,
    finite_hausdorff_sq,
    grid_line_net,
    min_root_sign,
    point_sq,
    root_at_least,
    root_at_most,
    segment_dist_sq,
    stretch_sq_at_most,
    union_distance_1d,
    union_hausdorff_1d,
)
from overt import located
from overt.errors import PreconditionFailed
from overt.located import (
    LINE,
    PLANE,
    Decision,
    EpsilonNetFamily,
    LocatedPredicate,
    box_set,
    cantor_set,
    decide_located_pair,
    disk_set,
    distance_to_set,
    hausdorff_distance,
    interval_set,
    net_from_located,
    plane_point_set,
    point_set,
    predicate_from_net,
    promote_to_plane,
    segment_set,
    union_located,
)
from overt.metric import FormalBall, LineSegment, MetricSpace, PlaneMax
from overt.plot import PlotSpec, pixel_radius, render_plot
from overt.reals import sqrt_bounds

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
NET_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)

CANTOR_LEVEL = 10
CANTOR_TOL = F(1, 3**CANTOR_LEVEL)

# A rotation by a 3-4-5 angle, then a shift.
ROT = (F(3, 5), F(-4, 5), F(1), F(4, 5), F(3, 5), F(-1))

# Rational unit vectors, so that a diameter of a rational disk is rational.
DIRECTIONS = [(F(1), F(0)), (F(0), F(1)), (F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)),
              (F(5, 13), F(12, 13))]


def rat(lo, hi, den):
    return st.fractions(min_value=F(lo), max_value=F(hi), max_denominator=den)


def plane_pt(den=4):
    return st.tuples(rat(-1, 1, den), rat(-1, 1, den))


def net_only(S):
    """The same set without its exact comparison: every query takes nets."""
    return EpsilonNetFamily(S.space, S.net, name=f"nets({S.name})")


def loose_interval(a, b):
    """[a, b] with its exact distance value but the loosest nets the
    contract allows: interior points 2 eps apart and one point eps beyond
    each end, none of them on an end."""
    a, b = F(a), F(b)

    def net(eps):
        n = max(1, -(-(b - a) // (2 * eps)))
        inner = [a + (2 * k + 1) * (b - a) / (2 * n) for k in range(n)]
        return [a - eps] + inner + [b + eps]

    return EpsilonNetFamily(LINE, net, distance_value=interval_set(a, b).distance_value,
                            name=f"loose[{a},{b}]")


def loose_segment(a, b):
    """The segment [a, b] with its exact comparison but loose nets: the
    midpoints of pieces at most 2 eps long, and one point at most eps
    beyond each end."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    l1 = abs(dx) + abs(dy)  # at least the Euclidean length

    def net(eps):
        n = max(1, -(-l1 // (2 * eps)))
        pts = [(a[0] + dx * F(2 * k + 1, 2 * n), a[1] + dy * F(2 * k + 1, 2 * n)) for k in range(n)]
        if l1:
            ox, oy = dx * eps / l1, dy * eps / l1
            pts += [(a[0] - ox, a[1] - oy), (b[0] + ox, b[1] + oy)]
        return pts

    return EpsilonNetFamily(PLANE, net, distance_compare=segment_set(*a, *b).distance_compare,
                            name="loose-segment")


# The net half of a distance bracket takes the net at eps/3 and one square
# root to eps/6, so its width is at most 5 eps/6, with a grid index or by a
# scan; a Hausdorff sweep over nets at eps/6 gives at most 3 eps/4.
NET_DISTANCE_WIDTH = F(5, 6)
NET_HAUSDORFF_WIDTH = F(3, 4)


def width_ok(bracket, eps):
    lo, hi = bracket
    return 0 <= lo <= hi and hi - lo <= eps


def meet(b1, b2):
    return max(b1[0], b2[0]) <= min(b1[1], b2[1])


# ---------------------------------------------------------------------------
# Sets with their independent oracles.
# ---------------------------------------------------------------------------


@st.composite
def line_sets(draw):
    """(set, intervals, cantor): the set is the union of the closed
    intervals, and of the middle-thirds set when ``cantor`` holds."""
    kind = draw(st.sampled_from(["interval", "points", "union", "cantor", "cantor-union"]))
    if kind == "interval":
        a = draw(rat(-2, 2, 8))
        b = a + draw(rat(0, 2, 8))
        return interval_set(a, b), [(a, b)], False
    if kind == "points":
        pts = draw(st.lists(rat(-2, 2, 16), min_size=1, max_size=5))
        return point_set(pts), [(p, p) for p in pts], False
    if kind == "union":
        a = draw(rat(-2, 0, 8))
        b = a + draw(rat(0, 1, 8))
        pts = draw(st.lists(rat(0, 2, 16), min_size=1, max_size=3))
        return union_located(interval_set(a, b), point_set(pts)), [(a, b)] + [(p, p) for p in pts], False
    if kind == "cantor":
        return cantor_set(), [], True
    a = draw(rat(-3, -1, 8))
    b = a + draw(rat(0, 1, 8))
    return union_located(interval_set(a, b), cantor_set()), [(a, b)], True


def line_distance_bounds(intervals, cantor, x):
    """Rational bounds lower <= d(x, set) <= upper, exact without the
    middle-thirds set and within 3**-10 with it."""
    big = F(10**6)
    d = union_distance_1d(x, intervals) if intervals else big
    if not cantor:
        return d, d
    k = cantor_oracle_distance(x, CANTOR_LEVEL)
    return min(d, k), min(d, k + CANTOR_TOL)


@st.composite
def plane_sets(draw):
    """(set, parts): d(x, set) is the minimum over ``parts(x)`` of
    max(0, sqrt(q) + shift)."""
    kind = draw(st.sampled_from(["disk", "segment", "points", "union"]))
    disk = segment = None
    if kind in ("disk", "union"):
        c = draw(plane_pt())
        r = draw(rat(F(1, 8), F(1, 2), 8))
        disk = (disk_set(c[0], c[1], r), lambda x: [(point_sq(x, c), -r)])
    if kind in ("segment", "union"):
        a, b = draw(plane_pt()), draw(plane_pt())
        segment = (segment_set(a[0], a[1], b[0], b[1]), lambda x: [(segment_dist_sq(x, a, b), 0)])
    if kind == "points":
        pts = draw(st.lists(plane_pt(8), min_size=1, max_size=4))
        return plane_point_set(pts), lambda x: [(point_sq(x, p), 0) for p in pts]
    if kind == "union":
        (S1, o1), (S2, o2) = disk, segment
        return union_located(S1, S2), lambda x: o1(x) + o2(x)
    return disk or segment


# ---------------------------------------------------------------------------
# Distances.
# ---------------------------------------------------------------------------


@SETTINGS
@given(line_sets(), rat(-4, 4, 16), st.sampled_from([F(1, 2), F(1, 8), F(1, 64), F(1, 1024)]))
def test_line_distance_is_exact(case, x, eps):
    S, intervals, cantor = case
    lo, hi = distance_to_set(S, x).approximate(eps)
    assert lo == hi  # every builtin line set has an exact distance value
    lower, upper = line_distance_bounds(intervals, cantor, x)
    assert lower <= lo <= upper


@SETTINGS
@given(plane_sets(), plane_pt(8), st.sampled_from([F(1, 4), F(1, 16), F(1, 256)]))
def test_plane_distance_contains_oracle(case, x, eps):
    S, parts = case
    bracket = distance_to_set(S, x).approximate(eps)
    assert width_ok(bracket, eps)
    assert bracket_holds_min_root(*bracket, parts(x))


@NET_SETTINGS
@given(line_sets(), rat(-4, 4, 16), st.sampled_from([F(1, 4), F(1, 32)]))
def test_line_distance_meets_net_path(case, x, eps):
    S, intervals, cantor = case
    exact = distance_to_set(S, x).approximate(eps)
    nets = distance_to_set(net_only(S), x).approximate(eps)
    assert width_ok(nets, NET_DISTANCE_WIDTH * eps) and meet(exact, nets)
    lower, upper = line_distance_bounds(intervals, cantor, x)
    assert nets[0] <= upper and lower <= nets[1]


@NET_SETTINGS
@given(plane_sets(), plane_pt(8), st.sampled_from([F(1, 4), F(1, 8)]))
def test_plane_distance_meets_net_path(case, x, eps):
    S, parts = case
    exact = distance_to_set(S, x).approximate(eps)
    nets = distance_to_set(net_only(S), x).approximate(eps)
    assert width_ok(nets, NET_DISTANCE_WIDTH * eps) and meet(exact, nets)
    assert bracket_holds_min_root(*nets, parts(x))


def _no_net(eps):
    raise AssertionError("an exact set built a net")


@pytest.mark.parametrize(
    "S, x",
    [
        (EpsilonNetFamily(LINE, _no_net, distance_value=interval_set(0, 1).distance_value), F(7, 3)),
        (EpsilonNetFamily(LINE, _no_net, distance_value=cantor_set().distance_value), F(1, 2)),
        (EpsilonNetFamily(PLANE, _no_net, distance_compare=disk_set(0, 0, 1).distance_compare),
         (F(3, 2), F(1, 3))),
        (EpsilonNetFamily(PLANE, _no_net, distance_compare=segment_set(0, 0, 1, 1).distance_compare),
         (F(1), F(0))),
    ],
)
def test_exact_set_never_builds_a_net(S, x):
    for eps in (F(1, 4), F(1, 4096)):
        assert width_ok(distance_to_set(S, x).approximate(eps), eps)


def test_compare_only_distance_is_exact_when_probed():
    # d((-3/2, 0), unit disk) = 1/2 is met by the gallop 0, 1/4, 1/2.
    S = disk_set(0, 0, 1)
    assert distance_to_set(S, (F(-3, 2), F(0))).approximate(F(1, 4)) == (F(1, 2), F(1, 2))
    assert distance_to_set(S, (F(1, 3), F(1, 3))).approximate(F(1, 4)) == (0, 0)


# ---------------------------------------------------------------------------
# Hausdorff distances.
# ---------------------------------------------------------------------------


def interval_sets():
    return line_sets().filter(lambda case: not case[2])


def check_hausdorff(A, Bs, eps, holds):
    """Width, oracle containment and literal symmetry of H(A, B)."""
    ab = hausdorff_distance(A, Bs).approximate(eps)
    assert width_ok(ab, eps)
    assert holds(*ab)
    assert hausdorff_distance(Bs, A).approximate(eps) == ab
    return ab


@SETTINGS
@given(interval_sets(), interval_sets(), st.sampled_from([F(1, 4), F(1, 64), F(1, 512)]))
def test_line_hausdorff_contains_oracle(ca, cb, eps):
    h = union_hausdorff_1d(ca[1], cb[1])
    check_hausdorff(ca[0], cb[0], eps, lambda lo, hi: lo <= h <= hi)


@SETTINGS
@given(rat(-1, 0, 8), rat(1, 2, 8), st.sampled_from([F(1, 16), F(1, 256)]))
def test_cantor_hausdorff_contains_oracle(a, b, eps):
    # [a, b] contains [0, 1]: its farthest points from the set are its ends
    # and the middle of the widest gap, at 1/6.
    h = max(-a, b - 1, F(1, 6))
    check_hausdorff(interval_set(a, b), cantor_set(), eps, lambda lo, hi: lo <= h <= hi)


@st.composite
def plane_pairs(draw):
    """(A, B, q, shift) with H(A, B) = sqrt(q) + shift in closed form."""
    kind = draw(st.sampled_from(["diameter", "disks", "segments", "points"]))
    if kind == "diameter":
        c, r = draw(plane_pt()), draw(rat(F(1, 8), F(1, 2), 8))
        ux, uy = draw(st.sampled_from(DIRECTIONS))
        seg = segment_set(c[0] - r * ux, c[1] - r * uy, c[0] + r * ux, c[1] + r * uy)
        return disk_set(c[0], c[1], r), seg, r * r, 0
    if kind == "disks":
        c1, c2 = draw(plane_pt()), draw(plane_pt())
        r1, r2 = draw(rat(F(1, 8), F(1, 2), 8)), draw(rat(F(1, 8), F(1, 2), 8))
        return disk_set(c1[0], c1[1], r1), disk_set(c2[0], c2[1], r2), point_sq(c1, c2), abs(r1 - r2)
    if kind == "segments":
        # d(., segment) is convex, so the largest endpoint distance is H.
        a1, b1, a2, b2 = (draw(plane_pt()) for _ in range(4))
        q = max(segment_dist_sq(a1, a2, b2), segment_dist_sq(b1, a2, b2),
                segment_dist_sq(a2, a1, b1), segment_dist_sq(b2, a1, b1))
        return segment_set(*a1, *b1), segment_set(*a2, *b2), q, 0
    # Many source points: the exact H^2 of a finite pair must not lose the
    # farthest one.
    P = draw(st.lists(plane_pt(8), min_size=1, max_size=40))
    Q = draw(st.lists(plane_pt(8), min_size=1, max_size=5))
    return plane_point_set(P), plane_point_set(Q), finite_hausdorff_sq(P, Q), 0


@SETTINGS
@given(plane_pairs(), st.sampled_from([F(1, 4), F(1, 8)]))
def test_plane_hausdorff_contains_oracle(case, eps):
    A, Bs, q, shift = case
    check_hausdorff(A, Bs, eps,
                    lambda lo, hi: root_at_least(q, shift, lo) and root_at_most(q, shift, hi))


# Loose nets sit at the edge of the net contract, so a sweep that leans on
# the builtin nets being finer than promised fails here.


@SETTINGS
@given(rat(-2, 2, 8), rat(0, 2, 8), st.lists(rat(-3, 3, 16), min_size=1, max_size=4),
       st.sampled_from([F(1, 2), F(1, 8), F(1, 64)]))
def test_line_hausdorff_loose_nets(a, length, pts, eps):
    h = union_hausdorff_1d([(a, a + length)], [(p, p) for p in pts])
    check_hausdorff(loose_interval(a, a + length), point_set(pts), eps,
                    lambda lo, hi: lo <= h <= hi)


@SETTINGS
@given(plane_pt(), plane_pt(), plane_pt(), plane_pt(), st.sampled_from([F(1, 2), F(1, 8)]))
def test_plane_hausdorff_loose_nets(a1, b1, a2, b2, eps):
    q = max(segment_dist_sq(a1, a2, b2), segment_dist_sq(b1, a2, b2),
            segment_dist_sq(a2, a1, b1), segment_dist_sq(b2, a1, b1))
    check_hausdorff(loose_segment(a1, b1), loose_segment(a2, b2), eps,
                    lambda lo, hi: root_at_least(q, 0, lo) and root_at_most(q, 0, hi))


@NET_SETTINGS
@given(interval_sets(), interval_sets(), st.sampled_from([F(1, 4), F(1, 32)]))
def test_line_hausdorff_meets_net_path(ca, cb, eps):
    exact = hausdorff_distance(ca[0], cb[0]).approximate(eps)
    nets = hausdorff_distance(net_only(ca[0]), net_only(cb[0])).approximate(eps)
    assert width_ok(nets, NET_HAUSDORFF_WIDTH * eps) and meet(exact, nets)


@NET_SETTINGS
@given(plane_pairs())
def test_plane_hausdorff_meets_net_path(case):
    A, Bs, _, _ = case
    eps = F(1, 4)
    exact = hausdorff_distance(A, Bs).approximate(eps)
    nets = hausdorff_distance(net_only(A), net_only(Bs)).approximate(eps)
    assert width_ok(nets, NET_HAUSDORFF_WIDTH * eps) and meet(exact, nets)


@NET_SETTINGS
@given(plane_pairs(), st.booleans())
def test_mixed_hausdorff_takes_nets_both_ways(case, swap):
    # A pair where one set has no exact comparison sweeps nets in both
    # directions, exactly as a pair of net-only sets does.
    A, Bs, q, shift = case
    if swap:
        A, Bs = Bs, A
    eps = F(1, 4)
    mixed = check_hausdorff(A, net_only(Bs), eps,
                            lambda lo, hi: root_at_least(q, shift, lo) and root_at_most(q, shift, hi))
    assert mixed == hausdorff_distance(net_only(A), net_only(Bs)).approximate(eps)


@pytest.mark.parametrize("k", range(1, 16))
def test_net_hausdorff_pads_the_root_bracket(k):
    # One point each, with nets at the edge of the contract: the net points
    # lie delta beyond the set points along (3/5, 4/5), at (0, 0) and
    # (1, 1), so the net distance sqrt(2) exceeds the true one by nearly
    # 2 delta and has a root bracket as wide as the precision allows.  A
    # lower end padded by 2 delta alone lies above the true distance for
    # about half of these eps.
    eps = F(1, 2**k)
    d = eps / 6
    a, b = (3 * d / 5, 4 * d / 5), (1 - 3 * d / 5, 1 - 4 * d / 5)
    A = EpsilonNetFamily(PLANE, lambda e: [(a[0] - 3 * e / 5, a[1] - 4 * e / 5)])
    B = EpsilonNetFamily(PLANE, lambda e: [(b[0] + 3 * e / 5, b[1] + 4 * e / 5)])
    q = point_sq(a, b)
    check_hausdorff(A, B, eps, lambda lo, hi: root_at_least(q, 0, lo) and root_at_most(q, 0, hi))


def test_cantor_hausdorff_meets_net_path():
    A, C = interval_set(F(-1, 4), F(5, 4)), cantor_set()
    for eps in (F(1, 8), F(1, 64)):
        exact = hausdorff_distance(A, C).approximate(eps)
        nets = hausdorff_distance(net_only(A), net_only(C)).approximate(eps)
        assert meet(exact, nets)


# ---------------------------------------------------------------------------
# The cell descent of exact pairs, against closed forms: every bracket holds
# the value, is at most eps wide and is the same with the arguments swapped
# (``check_hausdorff``).  The precisions reach well below the sets' sizes,
# so that the descent runs many levels deep.  Two finite sets take the exact
# finite path instead; a finite set against an infinite one gives the
# descent one cell of side 0 per point.
# ---------------------------------------------------------------------------

DESCENT = settings(max_examples=25, deadline=None, derandomize=True, database=None)
DESCENT_EPS = st.sampled_from([F(1, 16), F(1, 64), F(1, 256)])


def holds_root(q, shift):
    return lambda lo, hi: root_at_least(q, shift, lo) and root_at_most(q, shift, hi)


@DESCENT
@given(plane_pt(), rat(F(1, 8), 1, 8), st.sampled_from(DIRECTIONS), DESCENT_EPS)
def test_descent_disk_and_diameter(c, r, u, eps):
    seg = segment_set(c[0] - r * u[0], c[1] - r * u[1], c[0] + r * u[0], c[1] + r * u[1])
    check_hausdorff(disk_set(c[0], c[1], r), seg, eps, lambda lo, hi: lo <= r <= hi)


@DESCENT
@given(plane_pt(), plane_pt(8), rat(F(1, 8), 1, 8), rat(F(1, 16), 1, 16), DESCENT_EPS)
def test_descent_disks(c1, c2, r1, r2, eps):
    # H(D(c1, r1), D(c2, r2)) = |c1 - c2| + |r1 - r2|; with c2 near c1 and
    # r2 small, often a small disk inside a large one: the small disk's
    # direction is a plateau at 0 below the other's supremum.
    check_hausdorff(disk_set(c1[0], c1[1], r1), disk_set(c2[0], c2[1], r2), eps,
                    holds_root(point_sq(c1, c2), abs(r1 - r2)))


@DESCENT
@given(plane_pt(), plane_pt(), plane_pt(), plane_pt(), DESCENT_EPS)
def test_descent_segments(a1, b1, a2, b2, eps):
    # d(., segment) is convex, so the largest endpoint distance is H.
    q = max(segment_dist_sq(a1, a2, b2), segment_dist_sq(b1, a2, b2),
            segment_dist_sq(a2, a1, b1), segment_dist_sq(b2, a1, b1))
    check_hausdorff(segment_set(*a1, *b1), segment_set(*a2, *b2), eps, holds_root(q, 0))


@DESCENT
@given(st.lists(plane_pt(16), min_size=1, max_size=12),
       st.lists(plane_pt(16), min_size=1, max_size=12), DESCENT_EPS)
def test_descent_finite_plane_sets(P, Q, eps):
    check_hausdorff(plane_point_set(P), plane_point_set(Q), eps,
                    holds_root(finite_hausdorff_sq(P, Q), 0))


@DESCENT
@given(st.lists(rat(-2, 2, 64), min_size=1, max_size=12),
       st.lists(rat(-2, 2, 64), min_size=1, max_size=12), DESCENT_EPS)
def test_descent_finite_line_sets(P, Q, eps):
    h = finite_hausdorff_1d(P, Q)
    assert check_hausdorff(point_set(P), point_set(Q), eps, lambda lo, hi: lo <= h <= hi) == (h, h)
    # On the x-axis of the plane the points keep their finite structure.
    A, B = located.promote_to_plane(point_set(P)), located.promote_to_plane(point_set(Q))
    check_hausdorff(A, B, eps, lambda lo, hi: lo <= h <= hi)


@DESCENT
@given(st.lists(rat(-2, 2, 64), min_size=1, max_size=12), st.booleans(), DESCENT_EPS)
def test_descent_finite_set_against_an_interval(P, swap, eps):
    a, b = min(P) - F(1, 8), max(P) + F(1, 4)
    A, B = point_set(P), interval_set(a, b)
    if swap:
        A, B = B, A
    h = union_hausdorff_1d([(p, p) for p in P], [(a, b)])
    check_hausdorff(A, B, eps, lambda lo, hi: lo <= h <= hi)


@st.composite
def interval_unions(draw):
    """(set, intervals): a union of up to three closed intervals, some of
    them points."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(rat(-2, 2, 16))
        parts.append((a, a + draw(st.sampled_from([F(0), F(1, 16), F(1, 2), F(3, 2)]))))
    S = interval_set(*parts[0])
    for p in parts[1:]:
        S = union_located(S, interval_set(*p))
    return S, parts


@DESCENT
@given(interval_unions(), interval_unions(), DESCENT_EPS)
def test_descent_line_unions(ca, cb, eps):
    h = union_hausdorff_1d(ca[1], cb[1])
    check_hausdorff(ca[0], cb[0], eps, lambda lo, hi: lo <= h <= hi)


@DESCENT
@given(rat(-1, 0, 16), rat(1, 2, 16), st.sampled_from([F(1, 64), F(1, 1024)]))
def test_descent_interval_and_cantor(a, b, eps):
    h = max(-a, b - 1, F(1, 6))
    check_hausdorff(interval_set(a, b), cantor_set(), eps, lambda lo, hi: lo <= h <= hi)


MAX_PLANE = PlaneMax()


def max_metric_box(x0, x1, y0, y1):
    """A box under the max metric: d(p, box) = max of the axis distances."""

    def cmp(p, t):
        d = max(F(0), x0 - p[0], p[0] - x1, y0 - p[1], p[1] - y1)
        return (d > t) - (d < t)

    return EpsilonNetFamily(MAX_PLANE, box_set(x0, x1, y0, y1).net, distance_compare=cmp,
                            name="max-box")


@DESCENT
@given(st.tuples(rat(-1, 1, 8), rat(0, 1, 8), rat(-1, 1, 8), rat(0, 1, 8)),
       st.tuples(rat(-1, 1, 8), rat(0, 1, 8), rat(-1, 1, 8), rat(0, 1, 8)),
       st.sampled_from([F(1, 16), F(1, 64)]))
def test_descent_max_metric_boxes(b1, b2, eps):
    # Under the max metric a box is a product of intervals, and H of
    # products is the larger H of the factors.  The supremum is often
    # attained along a whole edge, which the descent refines end to end.
    e1 = (b1[0], b1[0] + b1[1], b1[2], b1[2] + b1[3])
    e2 = (b2[0], b2[0] + b2[1], b2[2], b2[2] + b2[3])
    h = max(abs(u - v) for u, v in zip(e1, e2))
    check_hausdorff(max_metric_box(*e1), max_metric_box(*e2), eps, lambda lo, hi: lo <= h <= hi)


@DESCENT
@given(st.one_of(plane_sets(), line_sets().map(lambda c: c[:1]),
                 st.deferred(lambda: similar_plane_images())),
       st.sampled_from([F(1, 8), F(1, 32)]))
def test_descent_plateau_at_zero(case, eps):
    # H(A, A) = 0 is a plateau over all of A: the lower end must be 0
    # itself, which a lower bound without its -rho would overshoot.
    S = case[0]
    assert check_hausdorff(S, S, eps, lambda lo, hi: lo == 0)[1] <= eps


def test_descent_compares_few_cells():
    # H(disk, diameter) at 1/64 settles by cells near the two points where
    # the supremum is attained; a sweep over a source net at eps/4 compares
    # some 200,000 points.
    calls = []

    def counted(S):
        def cmp(p, t):
            calls.append(p)
            return S.distance_compare(p, t)

        return EpsilonNetFamily(PLANE, S.net, distance_compare=cmp, name=S.name)

    A, B = counted(disk_set(0, 0, 1)), counted(segment_set(-1, 0, 1, 0))
    lo, hi = hausdorff_distance(A, B).approximate(F(1, 64))
    assert lo <= 1 <= hi and hi - lo <= F(1, 64)
    assert len(calls) < 2000


# ---------------------------------------------------------------------------
# The nearest-point index of a net, against brute force.  The points are
# spread over a range much wider than the cells, so searches cross many
# empty rings, start outside the occupied cells and end by the
# sparse-net scan as well as by the ring bound.
# ---------------------------------------------------------------------------


def index_of(space, pts, eps):
    return EpsilonNetFamily(space, lambda e: list(pts), name="pts").net_index(eps)


def max_sq(p, q):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1])) ** 2


INDEX_EPS = st.sampled_from([F(1, 64), F(1, 8), F(1, 2)])
SPACES_2D = [(PLANE, point_sq), (PlaneMax(), max_sq)]


def wide_pt():
    return st.tuples(rat(-4, 4, 16), rat(-4, 4, 16))


@SETTINGS
@given(st.lists(rat(-4, 4, 16), min_size=1, max_size=30), rat(-6, 6, 16), INDEX_EPS,
       st.none() | rat(0, 4, 16))
def test_line_index_min_sq_is_brute_force(pts, x, eps, floor):
    m = min(point_sq((x, 0), (p, 0)) for p in pts)
    index = index_of(LINE, pts, eps)
    assert index.min_sq(x) == m
    # With a floor the search may stop early, at a distance to a net point.
    v = index.min_sq(x, floor)
    assert v == m or m <= v <= floor


@SETTINGS
@given(st.sampled_from(SPACES_2D), st.lists(wide_pt(), min_size=1, max_size=30),
       st.tuples(rat(-6, 6, 16), rat(-6, 6, 16)), INDEX_EPS, st.none() | rat(0, 4, 16))
def test_plane_index_min_sq_is_brute_force(metric, pts, p, eps, floor):
    space, dsq = metric
    m = min(dsq(p, q) for q in pts)
    index = index_of(space, pts, eps)
    assert index.min_sq(p) == m
    v = index.min_sq(p, floor)
    assert v == m or m <= v <= floor


@SETTINGS
@given(st.lists(rat(-4, 4, 16), min_size=1, max_size=20),
       st.lists(rat(-4, 4, 16), min_size=1, max_size=20), INDEX_EPS)
def test_line_sweep_is_finite_hausdorff(P, Q, eps):
    h = max(index_of(LINE, Q, eps).max_min_sq(P), index_of(LINE, P, eps).max_min_sq(Q))
    assert h == finite_hausdorff_1d(P, Q) ** 2


@SETTINGS
@given(st.sampled_from(SPACES_2D), st.lists(wide_pt(), min_size=1, max_size=20),
       st.lists(wide_pt(), min_size=1, max_size=20), INDEX_EPS)
def test_plane_sweep_is_finite_hausdorff(metric, P, Q, eps):
    space, dsq = metric
    h = max(index_of(space, Q, eps).max_min_sq(P), index_of(space, P, eps).max_min_sq(Q))
    if dsq is point_sq:
        assert h == finite_hausdorff_sq(P, Q)
    else:
        assert h == max(max(min(dsq(p, q) for q in Q) for p in P),
                        max(min(dsq(q, p) for p in P) for q in Q))


class _ScanOnly(MetricSpace):
    """The rational line and the Euclidean plane, with exact squared
    distances, behind a type outside ``_GRID_SPACES``: its nearest-point
    index has one cell, so every net query scans the net."""

    name = "scan"

    def dist_sq(self, x, y):
        return point_sq(x, y) if isinstance(x, tuple) else (x - y) ** 2


SCAN = _ScanOnly()


def on_scan(S):
    """The same nets in a space without an index, with no exact comparison."""
    return EpsilonNetFamily(SCAN, S.net, name=f"scan({S.name})")


@NET_SETTINGS
@given(rat(-2, 2, 8), rat(0, 2, 8), rat(-4, 4, 16), st.sampled_from([F(1, 4), F(1, 32)]))
def test_approx_space_line_distance_contains_truth(a, length, x, eps):
    S = on_scan(loose_interval(a, a + length))
    index = S.net_index(eps)
    assert index.cell is None and list(index.buckets) == [(0, 0)]
    bracket = distance_to_set(S, x).approximate(eps)
    d = union_distance_1d(x, [(a, a + length)])
    assert width_ok(bracket, NET_DISTANCE_WIDTH * eps) and bracket[0] <= d <= bracket[1]


@NET_SETTINGS
@given(plane_sets(), plane_pt(8), st.sampled_from([F(1, 2), F(1, 4)]))
def test_approx_space_plane_distance_contains_truth(case, x, eps):
    S, parts = case
    bracket = distance_to_set(on_scan(S), x).approximate(eps)
    assert width_ok(bracket, NET_DISTANCE_WIDTH * eps)
    assert bracket_holds_min_root(*bracket, parts(x))


@NET_SETTINGS
@given(rat(-2, 2, 8), rat(0, 2, 8), st.lists(rat(-3, 3, 16), min_size=1, max_size=4),
       st.sampled_from([F(1, 4), F(1, 16)]))
def test_approx_space_line_hausdorff_contains_truth(a, length, pts, eps):
    h = union_hausdorff_1d([(a, a + length)], [(p, p) for p in pts])
    check_hausdorff(on_scan(loose_interval(a, a + length)), on_scan(point_set(pts)), eps,
                    lambda lo, hi: hi - lo <= NET_HAUSDORFF_WIDTH * eps and lo <= h <= hi)


def on_scan_points(pts):
    """A finite set in the space without a grid: its index is one cell."""
    return EpsilonNetFamily(SCAN, lambda e: list(pts), name="scan-points", points=tuple(pts))


@SETTINGS
@given(st.booleans(), st.lists(wide_pt(), min_size=1, max_size=12),
       st.lists(wide_pt(), min_size=1, max_size=12), st.sampled_from([F(1, 4), F(1, 64)]))
def test_approx_space_finite_hausdorff_is_exact(plane, P, Q, eps):
    if plane:
        hsq = finite_hausdorff_sq(P, Q)
    else:
        P, Q = [p[0] for p in P], [q[0] for q in Q]
        hsq = finite_hausdorff_1d(P, Q) ** 2
    A, B = on_scan_points(P), on_scan_points(Q)
    assert located._finite_hausdorff_sq(A, B) == hsq
    lo, hi = hausdorff_distance(A, B).approximate(eps)
    assert hi - lo <= eps and root_at_least(hsq, 0, lo) and root_at_most(hsq, 0, hi)


@NET_SETTINGS
@given(plane_pt(), plane_pt(), plane_pt(), plane_pt())
def test_approx_space_plane_hausdorff_contains_truth(a1, b1, a2, b2):
    # d(., segment) is convex, so the largest endpoint distance is H.
    q = max(segment_dist_sq(a1, a2, b2), segment_dist_sq(b1, a2, b2),
            segment_dist_sq(a2, a1, b1), segment_dist_sq(b2, a1, b1))
    check_hausdorff(on_scan(loose_segment(a1, b1)), on_scan(loose_segment(a2, b2)), F(1, 2),
                    lambda lo, hi: hi - lo <= NET_HAUSDORFF_WIDTH / 2
                    and root_at_least(q, 0, lo) and root_at_most(q, 0, hi))


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("push", [1, -1])
@pytest.mark.parametrize("k", range(1, 6))
def test_approx_space_hausdorff_at_the_edge(side, push, k):
    # {0} and {side} with nets delta outwards (push 1) or inwards (push -1):
    # the net distance is 1 + 2 delta or 1 - 2 delta, at the very edge of
    # what the nets allow.
    eps = F(1, 2**k)
    A = EpsilonNetFamily(SCAN, lambda e: [-side * push * e])
    B = EpsilonNetFamily(SCAN, lambda e: [side * (1 + push * e)])
    check_hausdorff(A, B, eps, lambda lo, hi: hi - lo <= NET_HAUSDORFF_WIDTH * eps and lo <= 1 <= hi)


# ---------------------------------------------------------------------------
# Dichotomies: net-only answers against the oracles, and a predicate checks
# the refinement exactly once.
# ---------------------------------------------------------------------------


@NET_SETTINGS
@given(plane_sets(), plane_pt(8), rat(F(1, 8), F(1, 2), 8),
       st.sampled_from([F(-1, 2), F(-1, 16), F(1, 32), F(1, 16), F(1, 2)]),
       st.sampled_from([0, F(1, 4), F(1, 2)]))
def test_net_dichotomy_is_sound(case, c, gap, k, shift):
    # The inner radius sits k * gap from the distance of c to the set, so
    # the distance often falls inside the gap, where only a sound bracket
    # answers right.  The outer ball widens the inner one by gap and moves
    # its centre by shift * gap, so the pair strictly refines.  POS_OUTER
    # claims the set meets the outer ball, NOT_POS_INNER that it misses
    # the inner one.
    S, parts = case
    d = min(max(F(0), sqrt_bounds(q, F(1, 256))[0] + sh) for q, sh in parts(c))
    inner = FormalBall(c, max(gap / 64, d + k * gap))
    outer = FormalBall((c[0] + shift * gap, c[1]), inner.radius + gap)
    answer = decide_located_pair(net_only(S), inner, outer)
    if answer is Decision.POS_OUTER:
        assert min_root_sign(parts(outer.center), outer.radius) < 0
    else:
        assert min_root_sign(parts(inner.center), inner.radius) >= 0


@pytest.mark.parametrize("S", [interval_set(0, 1), net_only(interval_set(0, 1))])
def test_predicate_checks_refinement_once(S, monkeypatch):
    P = predicate_from_net(S)
    inner, outer = FormalBall(F(2), F(1, 4)), FormalBall(F(2), F(1, 2))
    calls = []
    ball_lt = located.ball_lt
    monkeypatch.setattr(located, "ball_lt", lambda *a: calls.append(a) or ball_lt(*a))
    decide_located_pair(P, inner, outer)
    P.decide(inner, outer)
    assert len(calls) == 2
    same = FormalBall(F(2), F(1, 4))
    for decide in (P.decide, lambda i, o: decide_located_pair(P, i, o)):
        with pytest.raises(PreconditionFailed):
            decide(same, same)


# ---------------------------------------------------------------------------
# Images under affine maps.  The oracles come from the mapped geometry: a
# similarity maps a disk to the disk of radius s r about f(c), and any
# affine map sends segments, intervals and points to the segments and
# points between the mapped ends.
# ---------------------------------------------------------------------------

@st.composite
def similarities(draw):
    """(m, s): a rotation or a reflection by a rational unit vector, scaled
    by s, then a translation."""
    (co, si), s = draw(st.sampled_from(DIRECTIONS)), draw(rat(F(1, 4), 2, 8))
    t = draw(plane_pt())
    if draw(st.booleans()):
        return (s * co, -s * si, t[0], s * si, s * co, t[1]), s
    return (s * co, s * si, t[0], s * si, -s * co, t[1]), s


@st.composite
def any_maps(draw):
    """Any affine map whose first column (a, d) is nonzero."""
    a, b, d, e = (draw(rat(-2, 2, 4)) for _ in range(4))
    if a == d == 0:
        a = F(1)
    t = draw(plane_pt())
    return (a, b, t[0], d, e, t[1])


@st.composite
def shears(draw):
    k = draw(st.sampled_from([F(1, 2), F(3, 4), F(1), F(-1, 2), F(-3, 4), F(-1)]))
    t = draw(plane_pt())
    if draw(st.booleans()):
        return (F(1), k, t[0], F(0), F(1), t[1])
    return (F(1), F(0), t[0], k, F(1), t[1])


def image(S, m):
    return located.affine_image(S, located.affine_plane_map(*m))


@st.composite
def similar_plane_images(draw):
    """(image, parts) for a plane set under a similarity; d(p, image) is the
    minimum over parts(p) of max(0, sqrt(q) + shift)."""
    m, s = draw(similarities())
    f = lambda p: affine_apply(m, p)
    kind = draw(st.sampled_from(["disk", "segment", "points", "union"]))
    c, r = draw(plane_pt()), draw(rat(F(1, 8), F(1, 2), 8))
    a, b = draw(plane_pt()), draw(plane_pt())
    disk = (disk_set(c[0], c[1], r), lambda p: [(point_sq(p, f(c)), -s * r)])
    seg = (segment_set(a[0], a[1], b[0], b[1]), lambda p: [(segment_dist_sq(p, f(a), f(b)), 0)])
    if kind == "disk":
        S, parts = disk
    elif kind == "segment":
        S, parts = seg
    elif kind == "points":
        pts = draw(st.lists(plane_pt(8), min_size=1, max_size=4))
        S, parts = plane_point_set(pts), lambda p: [(point_sq(p, f(q)), 0) for q in pts]
    else:
        S, parts = union_located(disk[0], seg[0]), lambda p: disk[1](p) + seg[1](p)
    img = image(S, m)
    assert img.distance_compare is not None
    return img, parts


@st.composite
def line_images(draw):
    """(image, parts) for an interval or 1-d points under any map."""
    m = draw(any_maps())
    f = lambda x: affine_apply(m, x)
    if draw(st.booleans()):
        a = draw(rat(-2, 2, 8))
        b = a + draw(rat(0, 2, 8))
        S, parts = interval_set(a, b), lambda p: [(segment_dist_sq(p, f(a), f(b)), 0)]
    else:
        pts = draw(st.lists(rat(-2, 2, 16), min_size=1, max_size=5))
        S, parts = point_set(pts), lambda p: [(point_sq(p, f(x)), 0) for x in pts]
    img = image(S, m)
    assert img.distance_compare is not None
    return img, parts


THRESHOLDS = rat(-1, 4, 16)


@SETTINGS
@given(similar_plane_images(), plane_pt(8), st.lists(THRESHOLDS, min_size=1, max_size=4))
def test_similar_image_compare_matches_oracle(case, p, ts):
    img, parts = case
    for t in ts:
        assert img.distance_compare(p, t) == min_root_sign(parts(p), t)


@SETTINGS
@given(similarities(), plane_pt(), rat(F(1, 8), F(1, 2), 8), st.sampled_from(DIRECTIONS), rat(0, 1, 8))
def test_similar_disk_image_compare_at_the_distance(ms, c, r, v, k):
    # p lies s (r + k) from f(c) along a rational direction, so its
    # distance to the image disk is s k exactly.
    m, s = ms
    fc = affine_apply(m, c)
    p = (fc[0] + s * (r + k) * v[0], fc[1] + s * (r + k) * v[1])
    img = image(disk_set(c[0], c[1], r), m)
    d = s * k
    for t in (d - F(1, 1024), d, d + F(1, 1024)):
        assert img.distance_compare(p, t) == (d > t) - (d < t)


@SETTINGS
@given(line_images(), plane_pt(8), st.lists(THRESHOLDS, min_size=1, max_size=4))
def test_line_image_compare_matches_oracle(case, p, ts):
    img, parts = case
    for t in ts:
        assert img.distance_compare(p, t) == min_root_sign(parts(p), t)


@SETTINGS
@given(st.one_of(similar_plane_images(), line_images()), plane_pt(8),
       st.sampled_from([F(1, 4), F(1, 16), F(1, 256)]))
def test_image_distance_contains_oracle(case, p, eps):
    img, parts = case
    bracket = distance_to_set(img, p).approximate(eps)
    assert width_ok(bracket, eps)
    assert bracket_holds_min_root(*bracket, parts(p))


@NET_SETTINGS
@given(st.one_of(similar_plane_images(), line_images()), plane_pt(8))
def test_image_distance_meets_net_path(case, p):
    # The net path builds the image nets at eps / lip, so it checks the
    # modulus as well.
    img, parts = case
    eps = F(1, 4)
    exact = distance_to_set(img, p).approximate(eps)
    nets = distance_to_set(net_only(img), p).approximate(eps)
    assert width_ok(nets, NET_DISTANCE_WIDTH * eps) and meet(exact, nets)
    assert bracket_holds_min_root(*nets, parts(p))


@SETTINGS
@given(any_maps(), rat(-1, 2, 16), rat(-1, 1, 16), st.sampled_from([F(1, 8), F(1, 64)]))
def test_cantor_image_along_the_line(m, x, h, eps):
    # p = f(x) + h (-d, a) lies at height h |u| over the image line of u = (a, d),
    # so d(p, f(C))^2 = |u|^2 (h^2 + d(x, C)^2), bracketed by the triadic stages.
    a, _, _, d, _, _ = m
    fx = affine_apply(m, x)
    p = (fx[0] - h * d, fx[1] + h * a)
    ssq = a * a + d * d
    dk = cantor_oracle_distance(x, CANTOR_LEVEL)
    q_lo, q_hi = ssq * (h * h + dk * dk), ssq * (h * h + (dk + CANTOR_TOL) ** 2)
    img = image(cantor_set(), m)
    lo, hi = distance_to_set(img, p).approximate(eps)
    assert width_ok((lo, hi), eps)
    assert root_at_least(q_hi, 0, lo) and root_at_most(q_lo, 0, hi)
    for t in (lo - eps, hi + eps):
        if t >= 0 and t * t < q_lo:
            assert img.distance_compare(p, t) == 1
        if t > 0 and t * t > q_hi:
            assert img.distance_compare(p, t) == -1


@SETTINGS
@given(similarities(), plane_pt(8), rat(0, 1, 8), rat(0, 1, 8), plane_pt(8), rat(-2, 2, 16))
def test_similar_box_image_compare_matches_oracle(ms, corner, w, h, q, t):
    # A box has no image of its own, so its image keeps the box's comparison
    # through f^-1; at p = f(q), d(p, f(box)) = s d(q, box).
    m, s = ms
    box = (corner[0], corner[0] + w, corner[1], corner[1] + h)
    img = image(box_set(*box), m)
    p = affine_apply(m, q)
    parts = [(s * s * box_dist_sq(q, box), 0)]
    d = rational_root(parts[0][0])
    for t in thresholds([] if d is None else [d], t):
        assert img.distance_compare(p, t) == min_root_sign(parts, t)
    bracket = distance_to_set(img, p).approximate(F(1, 64))
    assert width_ok(bracket, F(1, 64)) and bracket_holds_min_root(*bracket, parts)


@SETTINGS
@given(any_maps(), similarities(), rat(-1, 2, 16), rat(-1, 1, 16), st.sampled_from([F(1, 8), F(1, 64)]))
def test_similar_image_of_a_cantor_image(m, gs, x, h, eps):
    # p0 = f(x) + h (-d, a) has d(p0, f(C))^2 = |u|^2 (h^2 + d(x, C)^2), as
    # above; the similarity g of scale s multiplies it by s^2 at p = g(p0).
    g, s = gs
    a, _, _, d, _, _ = m
    fx = affine_apply(m, x)
    p = affine_apply(g, (fx[0] - h * d, fx[1] + h * a))
    k = s * s * (a * a + d * d)
    dk = cantor_oracle_distance(x, CANTOR_LEVEL)
    q_lo, q_hi = k * (h * h + dk * dk), k * (h * h + (dk + CANTOR_TOL) ** 2)
    img = image(image(cantor_set(), m), g)
    lo, hi = distance_to_set(img, p).approximate(eps)
    assert width_ok((lo, hi), eps)
    assert root_at_least(q_hi, 0, lo) and root_at_most(q_lo, 0, hi)
    for t in (lo - eps, hi + eps):
        if t >= 0 and t * t < q_lo:
            assert img.distance_compare(p, t) == 1
        if t > 0 and t * t > q_hi:
            assert img.distance_compare(p, t) == -1


@NET_SETTINGS
@given(similarities(), plane_pt(), plane_pt(), rat(F(1, 8), F(1, 2), 8), st.sampled_from(DIRECTIONS),
       st.sampled_from([F(1, 4), F(1, 8)]))
def test_similar_image_hausdorff_contains_oracle(ms, t, c, r, v, eps):
    # H(f(disk), f(diameter)) = s r.
    m, s = ms
    seg = segment_set(c[0] - r * v[0], c[1] - r * v[1], c[0] + r * v[0], c[1] + r * v[1])
    q = (s * r) ** 2
    check_hausdorff(image(disk_set(c[0], c[1], r), m), image(seg, m), eps,
                    lambda lo, hi: root_at_least(q, 0, lo) and root_at_most(q, 0, hi))


# The modulus: lip bounds the operator norm and is exact on similarities.


@SETTINGS
@given(st.tuples(*(rat(-3, 3, 8) for _ in range(4))), st.lists(plane_pt(8), min_size=1, max_size=8))
def test_lip_bounds_the_stretch(coeffs, vs):
    a, b, d, e = coeffs
    m = (a, b, F(0), d, e, F(0))
    lip = located.affine_plane_map(*m).lip
    for v in vs + [(F(1), F(0)), (F(0), F(1))]:
        if v != (0, 0):
            assert stretch_sq_at_most(m, v, lip)


@SETTINGS
@given(similarities())
def test_lip_is_the_scale_of_a_similarity(ms):
    m, s = ms
    f = located.affine_plane_map(*m)
    assert f.lip == s and f.similarity_scale() == s


def test_lip_of_a_shear_is_near_its_norm():
    # The norm of [[1, 1/2], [0, 1]] is (1 + sqrt(17)) / 4, about 1.2808.
    lip = located.affine_plane_map(1, F(1, 2), 0, 0, 1, 0).lip
    assert F(12808, 10000) < lip <= F(13, 10)


# Images without a closed form keep their nets, which must stay two-sided.


@pytest.mark.parametrize("m, S", [
    ((1, F(1, 2), 0, 0, 1, 0), disk_set(0, 0, 1)),  # a shear of a disk
    ((1, 1, 0, -1, 1, 0), disk_set(0, 0, 1)),  # scale sqrt(2)
    # A union maps part by part: its segment maps exactly, its disk does not.
    ((1, F(1, 2), 0, 0, 1, 0), union_located(disk_set(0, 0, 1), segment_set(0, 0, 1, 1))),
])
def test_images_without_a_closed_form_take_nets(m, S):
    assert image(S, m).distance_compare is None


def test_zero_column_image_of_an_interval_is_the_point():
    img = image(interval_set(0, 1), (0, 1, F(1, 2), 0, 1, F(-3, 4)))
    assert img.distance_compare is not None and img.points == ((F(1, 2), F(-3, 4)),)


# Images of segments and finite sets are segments and finite sets again.


@SETTINGS
@given(shears(), plane_pt(), plane_pt(), st.sampled_from([F(1, 4), F(1, 16)]))
def test_shear_segment_nets_are_two_sided(m, a, b, eps):
    # Every point of f([a, b]) lies within delta of the sample, which lies in
    # it, so a two-sided eps-net is within eps + delta of the sample.
    fa, fb = affine_apply(m, a), affine_apply(m, b)
    n = 64
    sample = [(fa[0] + (fb[0] - fa[0]) * F(k, n), fa[1] + (fb[1] - fa[1]) * F(k, n))
              for k in range(n + 1)]
    delta = (abs(fb[0] - fa[0]) + abs(fb[1] - fa[1])) / (2 * n)
    img = image(segment_set(a[0], a[1], b[0], b[1]), m)
    assert img.distance_compare is not None
    assert finite_hausdorff_leq(img.net(eps), sample, eps + delta, plane=True)
    for p in sample[::8]:
        assert img.distance_compare(p, F(0)) == 0


@SETTINGS
@given(shears(), st.lists(plane_pt(8), min_size=1, max_size=6), st.sampled_from([F(1, 4), F(1, 64)]))
def test_shear_point_nets_are_the_mapped_points(m, pts, eps):
    img = image(plane_point_set(pts), m)
    mapped = [affine_apply(m, p) for p in pts]
    assert img.distance_compare is not None and list(img.points) == mapped
    assert finite_hausdorff_leq(img.net(eps), mapped, 0, plane=True)


@st.composite
def singular_maps(draw):
    """A map of rank at most 1: both columns multiples of one vector."""
    u = draw(st.tuples(rat(-2, 2, 4), rat(-2, 2, 4)))
    k, j = draw(rat(-2, 2, 4)), draw(rat(-2, 2, 4))
    t = draw(plane_pt())
    return (k * u[0], j * u[0], t[0], k * u[1], j * u[1], t[1])


LINE_PIECES, PLANE_PIECES = ["interval", "points1"], ["segment", "points2"]


@st.composite
def piece(draw, m, kinds):
    """(S, parts, ends): a segment, an interval, or line or plane points;
    d(p, f(S)) is the minimum over parts(p) of sqrt(q), and ends are
    (f(a), f(b)) of a segment or an interval, else None."""
    f = lambda p: affine_apply(m, p)
    kind = draw(st.sampled_from(kinds))
    if kind == "segment":
        a, b = draw(plane_pt()), draw(plane_pt())
        S = segment_set(a[0], a[1], b[0], b[1])
    elif kind == "interval":
        a = draw(rat(-2, 2, 8))
        b = a + draw(rat(0, 2, 8))
        S = interval_set(a, b)
    if kind in ("segment", "interval"):
        return S, lambda p: [(segment_dist_sq(p, f(a), f(b)), 0)], (f(a), f(b))
    if kind == "points1":
        pts = draw(st.lists(rat(-2, 2, 16), min_size=1, max_size=5))
        S = point_set(pts)
    else:
        pts = draw(st.lists(plane_pt(8), min_size=1, max_size=5))
        S = plane_point_set(pts)
    return S, lambda p: [(point_sq(p, f(q)), 0) for q in pts], None


@st.composite
def piece_images(draw):
    """(image, parts, ends) for a piece or a union of two pieces under a
    map drawn from any maps, shears and singular maps."""
    m = draw(st.one_of(any_maps(), shears(), singular_maps()))
    S, parts, ends = draw(piece(m, LINE_PIECES + PLANE_PIECES))
    if draw(st.booleans()):
        T, tparts, _ = draw(piece(m, LINE_PIECES if S.space is LINE else PLANE_PIECES))
        S, parts, ends = union_located(S, T), (lambda p, u=parts: u(p) + tparts(p)), None
    img = image(S, m)
    assert img.distance_compare is not None
    return img, parts, ends


@SETTINGS
@given(piece_images(), plane_pt(8), st.lists(THRESHOLDS, min_size=1, max_size=4))
def test_piece_image_compare_matches_oracle(case, p, ts):
    img, parts, _ = case
    for t in ts:
        assert img.distance_compare(p, t) == min_root_sign(parts(p), t)


@SETTINGS
@given(piece_images(), st.sampled_from(DIRECTIONS), rat(0, 1, 8))
def test_piece_image_compare_at_ties(case, u, k):
    # A mapped net point lies in the image: d = 0 there.  Past the end f(b)
    # of a segment, along u turned away from f(a), d = k exactly.
    img, parts, ends = case
    q = img.net(F(1, 4))[0]
    for t in (F(-1, 64), F(0), F(1, 64)):
        assert img.distance_compare(q, t) == min_root_sign(parts(q), t) == (t < 0) - (t > 0)
    if ends is not None:
        fa, fb = ends
        if u[0] * (fb[0] - fa[0]) + u[1] * (fb[1] - fa[1]) < 0:
            u = (-u[0], -u[1])
        p = (fb[0] + k * u[0], fb[1] + k * u[1])
        for t in (k - F(1, 1024), k, k + F(1, 1024)):
            assert img.distance_compare(p, t) == min_root_sign(parts(p), t) == (k > t) - (k < t)


@SETTINGS
@given(st.one_of(any_maps(), shears(), singular_maps()),
       st.one_of(st.lists(rat(-2, 2, 16), min_size=1, max_size=6),
                 st.lists(plane_pt(8), min_size=1, max_size=6)))
def test_mapped_points_are_the_mapped_points(m, pts):
    S = point_set(pts) if not isinstance(pts[0], tuple) else plane_point_set(pts)
    img = image(S, m)
    assert img.space is PLANE and list(img.points) == [affine_apply(m, p) for p in pts]
    assert image(union_located(S, S), m).points == img.points * 2


def is_square(q):
    """sqrt(q) when q is the square of a rational, else None."""
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return F(n, d) if F(n * n, d * d) == q else None


@SETTINGS
@given(st.one_of(st.tuples(st.lists(plane_pt(16), min_size=1, max_size=10),
                           st.lists(plane_pt(16), min_size=1, max_size=10)),
                 st.tuples(st.lists(rat(-2, 2, 64), min_size=1, max_size=10),
                           st.lists(rat(-2, 2, 64), min_size=1, max_size=10))),
       st.sampled_from([F(1), F(1, 16), F(1, 1024), F(3, 1000)]))
def test_finite_pair_hausdorff_is_the_closed_form(PQ, eps):
    P, Q = PQ
    plane = isinstance(P[0], tuple)
    make = plane_point_set if plane else point_set
    A, B = make(P), make(Q)
    hsq = finite_hausdorff_sq(P, Q) if plane else finite_hausdorff_1d(P, Q) ** 2
    lo, hi = hausdorff_distance(A, B).approximate(eps)
    assert (lo, hi) == hausdorff_distance(B, A).approximate(eps)
    assert 0 <= hi - lo <= eps and root_at_most(hsq, 0, hi) and root_at_least(hsq, 0, lo)
    v = is_square(hsq)
    if v is not None:
        assert lo == hi == v
    else:
        assert lo < hi


@SETTINGS
@given(st.one_of(any_maps(), shears(), singular_maps()),
       st.lists(plane_pt(8), min_size=1, max_size=8), st.lists(plane_pt(8), min_size=1, max_size=8),
       st.sampled_from([F(1, 16), F(1, 256)]))
def test_mapped_finite_pair_hausdorff(m, P, Q, eps):
    fP, fQ = [affine_apply(m, p) for p in P], [affine_apply(m, q) for q in Q]
    hsq = finite_hausdorff_sq(fP, fQ)
    lo, hi = hausdorff_distance(image(plane_point_set(P), m), image(plane_point_set(Q), m)).approximate(eps)
    assert hi - lo <= eps and root_at_most(hsq, 0, hi) and root_at_least(hsq, 0, lo)


# ---------------------------------------------------------------------------
# Nets from a dichotomy, and plots, by cell descent.  The oracle is the flat
# loop: one dichotomy per ambient net point or pixel.  A set with an exact
# comparison or a predicate with ``pos_exact`` decides whole cells at once,
# and must keep exactly the points the flat loop keeps, in the same order;
# ties at the decision radius must fall the same way.
# ---------------------------------------------------------------------------


def flat_net_from_located(ambient, P, eps):
    inner, outer = eps / 3, 2 * eps / 3
    return tuple(x for x in ambient.net(eps / 3)
                 if decide_located_pair(P, FormalBall(x, inner), FormalBall(x, outer))
                 is Decision.POS_OUTER)


def flat_plot(S, viewport, w, h):
    S = located.promote_to_plane(S)
    xmin, xmax, ymin, ymax = (F(v) for v in viewport)
    pw, ph = (xmax - xmin) / w, (ymax - ymin) / h
    r = pixel_radius(pw, ph)
    rows = []
    for i in range(h):
        cy = ymax - (2 * i + 1) * ph / 2
        row = []
        for j in range(w):
            c = (xmin + (2 * j + 1) * pw / 2, cy)
            ans = decide_located_pair(S, FormalBall(c, r), FormalBall(c, 2 * r))
            row.append("0" if ans is Decision.POS_OUTER else "255")
        rows.append(" ".join(row))
    return "\n".join(["P2", f"{w} {h}", "255", *rows]) + "\n"


def max_metric_points(pts):
    """Finite plane points under the max metric, with the exact comparison
    min over the points of max(|dx|, |dy|) against t."""
    space = PlaneMax()

    def cmp(p, t):
        d = min(max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in pts)
        return (d > t) - (d < t)

    return EpsilonNetFamily(space, lambda eps: list(pts), distance_compare=cmp, name="max-points")


def as_queried(S, how):
    """S itself, its predicate (answered by ``pos_exact``), or a predicate
    without ``pos_exact`` whose every answer is the per-point dichotomy."""
    if how == "set":
        return S
    if how == "predicate":
        return predicate_from_net(S)
    return LocatedPredicate(S.space, lambda i, o: decide_located_pair(S, i, o))


HOW = st.sampled_from(["set", "predicate", "no-pos-exact"])
CELL_EPS = st.sampled_from([F(1), F(3, 4), F(1, 2), F(3, 8)])


@NET_SETTINGS
@given(line_sets(), HOW, st.sampled_from([F(1, 4), F(3, 16), F(1, 8), F(1, 16)]),
       st.booleans())
def test_line_cell_round_trip_is_the_flat_loop(case, how, eps, segment):
    S, _, _ = case
    ambient = interval_set(-4, 3)
    if segment:
        space = LineSegment(F(-4), F(3))
        S = EpsilonNetFamily(space, S.net, distance_compare=S.distance_compare, name=S.name)
        ambient = interval_set(-4, 3, space=space)
    P = as_queried(S, how)
    assert net_from_located(ambient, P, eps) == flat_net_from_located(ambient, P, eps)


@NET_SETTINGS
@given(st.one_of(plane_sets(), similar_plane_images(), line_images()), HOW, CELL_EPS)
def test_plane_cell_round_trip_is_the_flat_loop(case, how, eps):
    P = as_queried(case[0], how)
    ambient = box_set(-2, 2, -2, 2)
    assert net_from_located(ambient, P, eps) == flat_net_from_located(ambient, P, eps)


@NET_SETTINGS
@given(st.lists(plane_pt(8), min_size=1, max_size=4), HOW, CELL_EPS)
def test_max_metric_cell_round_trip_is_the_flat_loop(pts, how, eps):
    P = as_queried(max_metric_points(pts), how)
    ambient = box_set(-2, 2, -2, 2)
    assert net_from_located(ambient, P, eps) == flat_net_from_located(ambient, P, eps)


@NET_SETTINGS
@given(st.one_of(plane_sets(), similar_plane_images(), line_images(),
                 line_sets().map(lambda c: c[:1])),
       st.tuples(rat(-2, 0, 4), rat(F(1, 4), 2, 4), rat(-2, 0, 4), rat(F(1, 4), 2, 4)),
       st.integers(1, 16), st.integers(1, 16))
def test_cell_plot_is_the_flat_loop(case, box, w, h):
    S = case[0]
    viewport = (box[0], box[0] + box[1], box[2], box[2] + box[3])
    assert render_plot(PlotSpec(S, viewport, w, h)) == flat_plot(S, viewport, w, h)


def test_cell_round_trip_ties_fall_as_the_flat_loop():
    # 1/4 = 2 eps/3 from 0 on the line, and (1, 0) at 1/2 = 2 eps/3 from the
    # disk of radius 1/2: both are ambient net points, and neither is kept.
    for S, ambient, eps, tie, near in [
        (point_set([0]), interval_set(-1, 1), F(3, 8), F(1, 4), F(1, 8)),
        (disk_set(0, 0, F(1, 2)), box_set(-1, 1, -1, 1), F(3, 4), (F(1), F(0)), (F(7, 8), F(0))),
    ]:
        for P in (S, predicate_from_net(S)):
            kept = net_from_located(ambient, P, eps)
            assert kept == flat_net_from_located(ambient, P, eps)
            assert tie in ambient.net(eps / 3) and tie not in kept and near in kept


def test_cell_plot_ties_fall_as_the_flat_loop():
    # The top left pixel centre of an 8x8 plot of the unit box lies exactly
    # 2r from the point: the question asks for less than 2r, so it is white.
    pw = F(1, 8)
    r = pixel_radius(pw, pw)
    c = (pw / 2, 1 - pw / 2)
    S = plane_point_set([(c[0] + 2 * r, c[1])])
    text = render_plot(PlotSpec(S, (0, 1, 0, 1), 8, 8))
    assert text == flat_plot(S, (0, 1, 0, 1), 8, 8)
    assert text.split("\n")[3].split()[0] == "255"


def test_cell_round_trip_compares_few_cells():
    # The disk round trip at 1/64 has 148,225 ambient points; the descent
    # must settle most of them by cells, not by one comparison each.  The
    # kept points are those within r + 2 eps/3 = 100/384 of the centre,
    # in integer units of the ambient step 1/384.
    D = disk_set(F(1, 2), F(1, 2), F(1, 4))
    calls = []

    def cmp(p, t):
        calls.append(p)
        return D.distance_compare(p, t)

    S = EpsilonNetFamily(PLANE, D.net, distance_compare=cmp, name="counted-disk")
    ambient = box_set(0, 1, 0, 1)
    kept = net_from_located(ambient, predicate_from_net(S), F(1, 64))
    n = len(ambient.net(F(1, 192)))
    assert n == 148225 and len(calls) < n // 4
    assert kept == tuple((F(i, 384), F(j, 384)) for i in range(385) for j in range(385)
                         if (i - 192) ** 2 + (j - 192) ** 2 < 100 ** 2)


# ---------------------------------------------------------------------------
# Builtin nets against their constructions by repeated addition.
# ---------------------------------------------------------------------------

NET_EPS = st.sampled_from([F(1), F(1, 2), F(2, 3), F(1, 5), F(3, 16), F(1, 64)])


@SETTINGS
@given(plane_pt(6), rat(F(1, 16), 1, 48), st.sampled_from([F(1), F(2, 3), F(1, 5), F(3, 16), F(1, 24)]))
def test_disk_net_is_the_grid_construction(c, r, eps):
    assert disk_set(c[0], c[1], r).net(eps) == disk_net(c[0], c[1], r, eps)


@SETTINGS
@given(plane_pt(6), rat(0, 2, 7), rat(0, 2, 5), NET_EPS)
def test_box_and_interval_nets_are_the_grid_construction(a, w, h, eps):
    x0, y0 = a
    assert box_set(x0, x0 + w, y0, y0 + h).net(eps) == box_net(x0, x0 + w, y0, y0 + h, eps)
    assert interval_set(x0, x0 + w).net(eps) == grid_line_net(x0, x0 + w, eps)


# ---------------------------------------------------------------------------
# The bucketed finite Hausdorff check of ``helpers`` against a double loop.
# ---------------------------------------------------------------------------


def _brute_hausdorff_leq(A, B, bound):
    def near(p, Q):
        return any((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= bound * bound for q in Q)

    return all(near(a, B) for a in A) and all(near(b, A) for b in B)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(plane_pt(6), min_size=1, max_size=4), rat(F(1, 16), 1, 16),
       st.lists(st.tuples(rat(-1, 1, 6), rat(-1, 1, 6)), min_size=1, max_size=4))
def test_finite_hausdorff_leq_is_the_double_loop(A, bound, offsets):
    # B moves points of A by up to bound * sqrt 2, so distances straddle bound.
    B = [(a[0] + bound * dx, a[1] + bound * dy) for a, (dx, dy) in zip(A * 4, offsets)]
    assert finite_hausdorff_leq(A, B, bound, plane=True) == _brute_hausdorff_leq(A, B, bound)


# ---------------------------------------------------------------------------
# The integer comparisons of the builtin sets against closed forms, at the
# ties: t equal to a rational distance, t = 0 and t < 0, points inside a set
# and on its boundary, finite sets with repeated points.  A query is a point
# of the set (a centre, an end, a corner, a member, a point on a circle)
# moved by h along a rational unit vector, so that many distances are
# rational; each is compared with those distances, a hair either side, 0, a
# negative threshold and a drawn one.
# ---------------------------------------------------------------------------

HAIR = F(1, 4096)
TIE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def rational_root(q):
    """sqrt(q) when it is rational, else None."""
    q = F(q)
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return F(n, d) if (n * n, d * d) == (q.numerator, q.denominator) else None


def thresholds(dists, t):
    """Each distance given and a hair either side, 0, -1/4 and t."""
    ts = {F(0), F(-1, 4), F(t)}
    for d in dists:
        ts |= {d, d - HAIR, d + HAIR}
    return sorted(ts)


def draw_piece(draw, kind):
    """(set, parts, anchors): d(p, set) is the minimum over parts(p) of
    max(0, sqrt(q) + shift), and the anchors lie in the set."""
    if kind == "disk":
        c, r, u = draw(plane_pt(8)), draw(rat(F(1, 8), 1, 8)), draw(st.sampled_from(DIRECTIONS))
        return (disk_set(*c, r), lambda p: [(point_sq(p, c), -r)],
                [c, (c[0] + r * u[0], c[1] + r * u[1])])
    if kind == "segment":
        a, b = draw(plane_pt(8)), draw(plane_pt(8))
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        return segment_set(*a, *b), lambda p: [(segment_dist_sq(p, a, b), 0)], [a, b, mid]
    if kind == "box":
        x0, y0 = draw(rat(-1, 1, 8)), draw(rat(-1, 1, 8))
        box = (x0, x0 + draw(rat(0, 1, 8)), y0, y0 + draw(rat(0, 1, 8)))
        corners = [(x, y) for x in box[:2] for y in box[2:]]
        centre = ((box[0] + box[1]) / 2, (box[2] + box[3]) / 2)
        return box_set(*box), lambda p: [(box_dist_sq(p, box), 0)], corners + [centre]
    if kind == "points":
        pts = draw(st.lists(plane_pt(16), min_size=1, max_size=6))
        pts += pts[: draw(st.integers(0, 2))]  # repeated points
        return plane_point_set(pts), lambda p: [(point_sq(p, q), 0) for q in pts], pts
    S, intervals, _ = draw(interval_sets())
    anchors = [(e, F(0)) for iv in intervals for e in iv]
    return (promote_to_plane(S),
            lambda p: [(union_distance_1d(p[0], intervals) ** 2 + F(p[1]) ** 2, 0)], anchors)


@st.composite
def compare_cases(draw):
    """A builtin plane set, a line set on the x-axis, or a union of two
    plane sets, as (set, parts, anchors) of :func:`draw_piece`."""
    kinds = ["disk", "segment", "box", "points"]
    kind = draw(st.sampled_from(kinds + ["line", "union"]))
    if kind != "union":
        return draw_piece(draw, kind)
    (S1, p1, a1), (S2, p2, a2) = (draw_piece(draw, draw(st.sampled_from(kinds))) for _ in range(2))
    return union_located(S1, S2), lambda p: p1(p) + p2(p), a1 + a2


@TIE_SETTINGS
@given(compare_cases(), st.integers(0, 15), st.sampled_from(DIRECTIONS), rat(-1, 1, 8),
       rat(-2, 2, 16))
def test_plane_compare_matches_closed_form(case, i, u, h, t):
    S, parts, anchors = case
    a = anchors[i % len(anchors)]
    p = (a[0] + h * u[0], a[1] + h * u[1])
    ps = parts(p)
    dists = [max(F(0), r + s) for q, s in ps if (r := rational_root(q)) is not None]
    for t in thresholds(dists, t):
        assert S.distance_compare(p, t) == min_root_sign(ps, t)


@TIE_SETTINGS
@given(plane_pt(8), rat(F(1, 8), 1, 8), st.sampled_from(DIRECTIONS), rat(-2, 2, 8),
       rat(-2, 2, 16))
def test_disk_compare_matches_closed_form(c, r, u, h, t):
    # p lies |r + h| from the centre: inside, on the circle at h = 0, or at
    # distance h outside.
    S = disk_set(*c, r)
    p = (c[0] + (r + h) * u[0], c[1] + (r + h) * u[1])
    for t in thresholds([max(F(0), abs(r + h) - r)], t):
        assert S.distance_compare(p, t) == disk_distance_sign(p, c, r, t)


@TIE_SETTINGS
@given(interval_sets(), st.integers(0, 15), rat(-1, 1, 16), rat(-2, 2, 16))
def test_line_compare_matches_closed_form(case, i, h, t):
    S, intervals, _ = case
    ends = [e for iv in intervals for e in iv]
    x = ends[i % len(ends)] + h
    d = union_distance_1d(x, intervals)
    assert S.distance_value(x) == d
    for t in thresholds([d], t):
        assert S.distance_compare(x, t) == (d > t) - (d < t)


TIES = [
    # 3-4-5 triangles: the distance is rational and met exactly.
    (disk_set(0, 0, 1), (F(3), F(4)), F(4)),
    (disk_set(F(1, 2), F(1, 3), F(1, 6)), (F(11, 10), F(17, 15)), F(5, 6)),
    (segment_set(0, 0, 3, 0), (F(3), F(4)), F(4)),
    (segment_set(0, 0, 3, 0), (F(-3), F(-4)), F(5)),
    (segment_set(-3, 0, 3, 0), (F(0), F(4)), F(4)),
    # w.u = 0 and w.u = |u|^2: the feet on the two ends.
    (segment_set(0, 0, 3, 4), (F(4), F(-3)), F(5)),
    (segment_set(0, 0, 3, 4), (F(7), F(1)), F(5)),
    (segment_set(0, 0, 3, 4), (F(-5, 2), F(5)), F(5)),
    (box_set(0, 1, 0, 1), (F(4), F(5)), F(5)),
    (box_set(0, 1, 0, 1), (F(1, 2), F(-3)), F(3)),
    (box_set(0, 0, 0, 1), (F(4), F(1, 2)), F(4)),
    (plane_point_set([(0, 0), (0, 0), (6, 8)]), (F(3), F(4)), F(5)),
    (plane_point_set([(F(1, 2), F(1, 3)), (F(1, 5), F(1, 7))]), (F(11, 10), F(17, 15)), F(1)),
    (point_set([F(1, 3), F(1, 3), 2]), F(4, 3), F(2, 3)),
    (interval_set(0, 1), F(5, 2), F(3, 2)),
    (interval_set(0, 1), F(-1, 3), F(1, 3)),
    (promote_to_plane(interval_set(0, 1)), (F(4), F(4)), F(5)),
    (promote_to_plane(point_set([0, 6])), (F(3), F(4)), F(5)),
    (union_located(segment_set(10, 0, 11, 0), disk_set(0, 0, 1)), (F(3), F(4)), F(4)),
    (union_located(disk_set(0, 0, 1), segment_set(3, 0, 3, 4)), (F(0), F(2)), F(1)),
    # On the boundary and inside: distance 0.
    (disk_set(0, 0, 1), (F(3, 5), F(4, 5)), F(0)),
    (disk_set(0, 0, 1), (F(1, 2), F(-1, 3)), F(0)),
    (segment_set(0, 0, 3, 4), (F(3, 2), F(2)), F(0)),
    (segment_set(0, 0, 3, 4), (F(3), F(4)), F(0)),
    (box_set(0, 1, 0, 1), (F(1), F(1, 2)), F(0)),
    (box_set(0, 1, 0, 1), (F(1, 2), F(1, 2)), F(0)),
    (plane_point_set([(F(1, 3), F(1, 2)), (F(1, 3), F(1, 2))]), (F(1, 3), F(1, 2)), F(0)),
    (point_set([F(1, 3), F(1, 3), 2]), F(1, 3), F(0)),
    (interval_set(0, 1), F(1), F(0)),
    (interval_set(0, 1), F(1, 2), F(0)),
    (promote_to_plane(interval_set(0, 1)), (F(1, 2), F(0)), F(0)),
    # The Cantor set on the x-axis: d(1/2, C) = 1/6 under a height of 2/9,
    # so sqrt(1/36 + 4/81) = 5/18; and the same tie under a rotation, as
    # an image of the line set and as an image of its image.
    (promote_to_plane(cantor_set()), (F(1, 2), F(2, 9)), F(5, 18)),
    (image(cantor_set(), ROT), affine_apply(ROT, (F(1, 2), F(2, 9))), F(5, 18)),
    (image(promote_to_plane(cantor_set()), ROT), affine_apply(ROT, (F(1, 2), F(2, 9))), F(5, 18)),
]


@pytest.mark.parametrize("S, p, d", TIES)
def test_compare_at_ties(S, p, d):
    for t in thresholds([d], d + 1):
        assert S.distance_compare(p, t) == (d > t) - (d < t)


def test_union_stops_at_the_first_hit():
    calls = []

    def counted(S, name):
        def cmp(p, t):
            calls.append(name)
            return S.distance_compare(p, t)

        return EpsilonNetFamily(PLANE, S.net, distance_compare=cmp, name=name)

    U = union_located(counted(disk_set(0, 0, 1), "A"), counted(disk_set(3, 0, 1), "B"))
    for p, t, sign, asked in [
        ((F(0), F(0)), F(1), -1, ["A"]),
        ((F(3), F(0)), F(1), -1, ["A", "B"]),
        ((F(3, 2), F(0)), F(1, 2), 0, ["A", "B"]),
        ((F(3, 2), F(0)), F(1, 4), 1, ["A", "B"]),
    ]:
        calls.clear()
        assert U.distance_compare(p, t) == sign and calls == asked


def primes(n):
    """The first n primes."""
    ps, k = [], 2
    while len(ps) < n:
        if all(k % p for p in ps if p * p <= k):
            ps.append(k)
        k += 1
    return ps


def test_point_set_compare_keeps_each_denominator():
    # 400 points whose 800 coordinates have distinct primes as denominators:
    # over one common denominator of thousands of digits, every comparison
    # took 3.8 times the Fraction arithmetic of the oracle.  Each point keeps
    # its own denominator, so the comparisons may take at most twice the
    # oracle's time on the same queries.
    ps = primes(800)
    pts = [(F(7 * k % ps[2 * k] - ps[2 * k] // 2, ps[2 * k]),
            F(11 * k % ps[2 * k + 1] - ps[2 * k + 1] // 2, ps[2 * k + 1])) for k in range(400)]
    S = plane_point_set(pts)
    queries = [((F(i, 7) - 1, F(3 - i, 5)), t)
               for i in range(12) for t in (F(-1, 8), F(0), F(1, 64), F(1, 3))]

    def oracle(p, t):
        return min_root_sign([(min(point_sq(p, q) for q in pts), 0)], t)

    def timed(cmp):
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            answers = [cmp(p, t) for p, t in queries]
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return answers, best

    want, oracle_s = timed(oracle)
    got, cmp_s = timed(S.distance_compare)
    assert got == want and {-1, 1} <= set(got)
    assert cmp_s <= 2 * oracle_s
