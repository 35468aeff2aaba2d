"""Randomised differential tests of the exact-first located queries.

Distances and Hausdorff distances answered from a set's exact comparison
are checked against the independent oracles of ``helpers`` and against the
net path, which is reached by wrapping the same net function without an
exact comparison.  Every bracket must have width at most eps, contain the
oracle value and meet the net-path bracket; swapping the arguments of a
Hausdorff distance must give the identical interval.  Images under affine
maps are checked the same way, against oracles written from the mapped
geometry.  The nearest-point index of a net is checked against brute
force, and spaces with only an approximate distance oracle, whose answers
sit at the edge of their contract, check the scanning branch.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    affine_apply,
    bracket_holds_min_root,
    cantor_oracle_distance,
    finite_hausdorff_1d,
    finite_hausdorff_leq,
    finite_hausdorff_sq,
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
    EpsilonNetFamily,
    cantor_set,
    decide_located_pair,
    disk_set,
    distance_to_set,
    hausdorff_distance,
    interval_set,
    plane_point_set,
    point_set,
    predicate_from_net,
    segment_set,
    union_located,
)
from overt.metric import FormalBall, MetricSpace, PlaneMax
from overt.reals import sqrt_bounds

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
NET_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)

CANTOR_LEVEL = 10
CANTOR_TOL = F(1, 3**CANTOR_LEVEL)

# Rational unit vectors, so that a diameter of a rational disk is rational.
DIRECTIONS = [(F(1), F(0)), (F(0), F(1)), (F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)),
              (F(5, 13), F(12, 13))]


def rat(lo, hi, den):
    return st.fractions(min_value=F(lo), max_value=F(hi), max_denominator=den)


def plane_pt(den=4):
    return st.tuples(rat(-1, 1, den), rat(-1, 1, den))


def net_only(S):
    """The same set without its exact comparison: every query takes nets."""
    return EpsilonNetFamily(S.space, S.net, inhabited=S.inhabited, name=f"nets({S.name})")


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
    assert width_ok(nets, eps) and meet(exact, nets)
    lower, upper = line_distance_bounds(intervals, cantor, x)
    assert nets[0] <= upper and lower <= nets[1]


@NET_SETTINGS
@given(plane_sets(), plane_pt(8), st.sampled_from([F(1, 4), F(1, 8)]))
def test_plane_distance_meets_net_path(case, x, eps):
    S, parts = case
    exact = distance_to_set(S, x).approximate(eps)
    nets = distance_to_set(net_only(S), x).approximate(eps)
    assert width_ok(nets, eps) and meet(exact, nets)
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
    # Many source points: the sweep must not lose the farthest one when it
    # drops the points that cannot carry the maximum.
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
    assert width_ok(nets, eps) and meet(exact, nets)


@NET_SETTINGS
@given(plane_pairs())
def test_plane_hausdorff_meets_net_path(case):
    A, Bs, _, _ = case
    eps = F(1, 4)
    exact = hausdorff_distance(A, Bs).approximate(eps)
    nets = hausdorff_distance(net_only(A), net_only(Bs)).approximate(eps)
    assert width_ok(nets, eps) and meet(exact, nets)


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


class _ApproxOnly(MetricSpace):
    """A space with only ``dist_approx``, whose answers sit near the edge
    of their contract: about eps above the distance (``bias`` 1) or below
    it (``bias`` -1).  It has no nearest-point index, so every net query
    scans."""

    name = "approx"

    def __init__(self, bias):
        self.bias = bias

    def dist_approx(self, x, y, eps):
        if not isinstance(x, tuple):
            return max(F(0), abs(x - y) + self.bias * eps)
        lo, hi = sqrt_bounds(point_sq(x, y), eps / 2)
        return hi + eps / 2 if self.bias > 0 else max(F(0), lo - eps / 2)


APPROX_SPACES = st.sampled_from([_ApproxOnly(1), _ApproxOnly(-1)])


def on_approx(space, S):
    """The same nets in an approximate space, with no exact comparison."""
    return EpsilonNetFamily(space, S.net, name=f"approx({S.name})")


@NET_SETTINGS
@given(APPROX_SPACES, rat(-2, 2, 8), rat(0, 2, 8), rat(-4, 4, 16),
       st.sampled_from([F(1, 4), F(1, 32)]))
def test_approx_space_line_distance_contains_truth(space, a, length, x, eps):
    S = on_approx(space, loose_interval(a, a + length))
    assert S.net_index(eps) is None
    bracket = distance_to_set(S, x).approximate(eps)
    d = union_distance_1d(x, [(a, a + length)])
    assert width_ok(bracket, eps) and bracket[0] <= d <= bracket[1]


@NET_SETTINGS
@given(APPROX_SPACES, plane_sets(), plane_pt(8), st.sampled_from([F(1, 2), F(1, 4)]))
def test_approx_space_plane_distance_contains_truth(space, case, x, eps):
    S, parts = case
    bracket = distance_to_set(on_approx(space, S), x).approximate(eps)
    assert width_ok(bracket, eps)
    assert bracket_holds_min_root(*bracket, parts(x))


@NET_SETTINGS
@given(APPROX_SPACES, rat(-2, 2, 8), rat(0, 2, 8),
       st.lists(rat(-3, 3, 16), min_size=1, max_size=4), st.sampled_from([F(1, 4), F(1, 16)]))
def test_approx_space_line_hausdorff_contains_truth(space, a, length, pts, eps):
    h = union_hausdorff_1d([(a, a + length)], [(p, p) for p in pts])
    check_hausdorff(on_approx(space, loose_interval(a, a + length)),
                    on_approx(space, point_set(pts)), eps, lambda lo, hi: lo <= h <= hi)


@NET_SETTINGS
@given(APPROX_SPACES, plane_pt(), plane_pt(), plane_pt(), plane_pt())
def test_approx_space_plane_hausdorff_contains_truth(space, a1, b1, a2, b2):
    # d(., segment) is convex, so the largest endpoint distance is H.
    q = max(segment_dist_sq(a1, a2, b2), segment_dist_sq(b1, a2, b2),
            segment_dist_sq(a2, a1, b1), segment_dist_sq(b2, a1, b1))
    check_hausdorff(on_approx(space, loose_segment(a1, b1)), on_approx(space, loose_segment(a2, b2)),
                    F(1, 2), lambda lo, hi: root_at_least(q, 0, lo) and root_at_most(q, 0, hi))


@pytest.mark.parametrize("bias", [1, -1])
@pytest.mark.parametrize("push", [1, -1])
@pytest.mark.parametrize("k", range(1, 6))
def test_approx_space_hausdorff_at_the_edge(bias, push, k):
    # {0} and {1} with nets delta outwards (push 1) or inwards (push -1):
    # the net distance is 1 + 2 delta or 1 - 2 delta, and every oracle
    # answer errs by its full precision on top.
    eps = F(1, 2**k)
    space = _ApproxOnly(bias)
    A = EpsilonNetFamily(space, lambda e: [-push * e])
    B = EpsilonNetFamily(space, lambda e: [1 + push * e])
    check_hausdorff(A, B, eps, lambda lo, hi: lo <= 1 <= hi)


# ---------------------------------------------------------------------------
# Dichotomies through a predicate check the refinement exactly once.
# ---------------------------------------------------------------------------


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
    assert width_ok(nets, eps) and meet(exact, nets)
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
    ((1, F(1, 2), 0, 0, 1, 0), disk_set(0, 0, 1)),  # a shear of a plane set
    ((1, 1, 0, -1, 1, 0), disk_set(0, 0, 1)),  # scale sqrt(2)
    ((0, 1, 0, 0, 1, 0), interval_set(0, 1)),  # a zero column
])
def test_images_without_a_closed_form_take_nets(m, S):
    assert image(S, m).distance_compare is None


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
    assert img.distance_compare is None
    assert finite_hausdorff_leq(img.net(eps), sample, eps + delta, plane=True)


@SETTINGS
@given(shears(), st.lists(plane_pt(8), min_size=1, max_size=6), st.sampled_from([F(1, 4), F(1, 64)]))
def test_shear_point_nets_are_the_mapped_points(m, pts, eps):
    img = image(plane_point_set(pts), m)
    assert img.distance_compare is None
    assert finite_hausdorff_leq(img.net(eps), [affine_apply(m, p) for p in pts], 0, plane=True)
