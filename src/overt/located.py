"""Located sets: dichotomy oracles and two-sided epsilon-net families.

A set is *located* when its distance function is a full Dedekind real, not
just an upper real.  Computationally that is a dichotomy: for nested balls
``inner < outer`` the set either certifiably misses the inner ball or
certifiably meets the outer one.  This module carries both presentations

* :class:`EpsilonNetFamily` -- for each rational eps > 0 a finite list of
  points, each within eps of the set, jointly within eps of every set
  point; this is total boundedness made executable;
* :class:`LocatedPredicate` -- the dichotomy oracle itself;

and the constructive conversions between them: nets give distances and
hence dichotomies; a dichotomy filters an ambient net down to a net of the
set.  The round trip is the computational content of "located iff totally
bounded".

Builtin sets (closed intervals, finite point sets, the middle-thirds set,
closed disks and segments in the plane, boxes, finite unions of these)
carry an exact rational distance comparison, which is the located
structure itself; a net is only one witness of it.  All but the
middle-thirds set decide the sign of d(p, S) - t from integer products,
over integers scaled when the set is built (:func:`_scaled`,
:func:`_sq_sign`).  An affine map takes
segments, intervals and finite sets, disks under rational similarities,
and unions of these, piece by piece to builtin sets again, and keeps a
comparison on other images wherever the map carries it
(:func:`affine_image`); images under other maps with a modulus carry nets
only.  A line set placed in the plane is its image under the isometry
x -> (x, 0) (:func:`promote_to_plane`).  A dichotomy on a set with a
comparison is one call of its ``meets`` test (:func:`_meets_test`).
Every distance bracket, of ``distance_to_set``, of a net-backed dichotomy
and of each cell of a Hausdorff descent, comes from
:func:`_distance_bracket`: exact from ``distance_value``, bisected on
``distance_compare``, and otherwise from a net, searched by its
nearest-point index ``EpsilonNetFamily.net_index`` (:class:`_GridIndex`),
a grid of cells that is one cell, a scan, outside the grid spaces.  A
Hausdorff pair of two finite sets is one exact squared distance
(:func:`_finite_hausdorff_sq`); another pair in which both sets have a
comparison takes both directed suprema from one branch-and-bound descent
over dyadic cells (:func:`_hausdorff_descent`); a pair with a net-only set
compares nets both ways.

Intersections of located sets are deliberately absent: locatedness is not
preserved by intersection, and it depends on the metric presentation, not
just the topology; both facts are documented limitations of the notion
itself rather than of this module.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Optional, Sequence

from overt.errors import (
    AmbientMismatch,
    InvariantViolation,
    PreconditionFailed,
)
from overt.intervals import IntervalElement, gap_complement
from overt.kernel import (
    TOP,
    Derivation,
    EltSet,
    PosClosedSub,
    SetPredicate,
    derive_cover,
    sublocale_cover,
)
from overt.metric import (
    FormalBall,
    LineSegment,
    MetricSpace,
    PlaneEuclid,
    PlaneMax,
    RationalLine,
    ball_lt,
    completion_base,
    distance_below,
)
from overt.reals import DedekindReal, sqrt_bounds

LINE = RationalLine()
PLANE = PlaneEuclid()

# Spaces whose metric is at least every coordinate difference, so that nets
# in them get a grid index (``_GridIndex``).  Its cell is _CELL times the
# net's eps: cells of 2 to 8 times eps ran the located-nets benchmark ops
# within a few percent of each other, 4 the fastest.
_GRID_SPACES = (RationalLine, LineSegment, PlaneEuclid, PlaneMax)
_CELL = 4


class Decision(enum.Enum):
    NOT_POS_INNER = "not-pos-inner"  # the set misses the inner ball
    POS_OUTER = "pos-outer"  # the set meets the outer ball


@dataclass(frozen=True)
class Modulus:
    """Uniform-continuity modulus: d(x,y) < omega(eps) forces images within eps."""

    omega: Callable[[Fraction], Fraction]


class EpsilonNetFamily:
    """Two-sided eps-approximations of an inhabited set.

    Every set is inhabited, as a Bishop totally bounded set is; emptiness is
    for the positivity predicate to decide.  ``net(eps)`` returns a nonempty
    finite point list (an empty one is an :class:`InvariantViolation`);
    every net point lies within eps of the set and every set point within
    eps of some net point (strictly, with slack, for the builtin
    constructions).  When the set admits exact rational distance comparison,
    ``distance_compare(x, t)`` returns the sign of d(x, set) - t; the
    builtin sets decide it in integer arithmetic, and a set given only
    ``distance_value`` compares that value with t.  ``points`` is the whole
    set as a tuple when it is finite, else None.  ``_image``, set by the
    builtin constructors (:func:`_with_image`), maps an :class:`AffineMap`
    to the image as a builtin set again, or to None where it has none.
    """

    def __init__(
        self,
        space: MetricSpace,
        net_fn: Callable[[Fraction], list],
        distance_compare: Optional[Callable[[object, Fraction], int]] = None,
        distance_value: Optional[Callable[[object], Fraction]] = None,
        name: str = "set",
        points: Optional[tuple] = None,
    ):
        self.space = space
        self._net_fn = net_fn
        self.distance_value = distance_value
        if distance_compare is None and distance_value is not None:
            distance_compare = lambda x, t: _sign(distance_value(x), t)
        self.distance_compare = distance_compare
        self.name = name
        self.points = points
        self._image: Optional[Callable] = None
        self._memo: dict[Fraction, tuple] = {}
        self._indexes: dict[Fraction, _GridIndex] = {}

    def net(self, eps: Fraction) -> list:
        eps = Fraction(eps)
        if eps <= 0:
            raise PreconditionFailed(f"net precision must be positive, got {eps}")
        if eps not in self._memo:
            pts = tuple(self._net_fn(eps))
            if not pts:
                raise InvariantViolation(f"empty net for {self.name}")
            self._memo[eps] = pts
        return list(self._memo[eps])

    def net_index(self, eps: Fraction) -> _GridIndex:
        """Cached exact nearest-point index over the nonempty net(eps), with
        cells of side ``_CELL * eps``; outside ``_GRID_SPACES`` it has one
        cell, and a search scans the net."""
        eps = Fraction(eps)
        if eps not in self._indexes:
            self._indexes[eps] = _GridIndex(self.space, self.net(eps), _CELL * eps)
        return self._indexes[eps]

    def __repr__(self):
        return f"EpsilonNetFamily({self.name})"


class LocatedPredicate:
    """Effective dichotomy oracle over formal balls of a space.

    ``decide_fn`` is a raw gap oracle, and whoever supplies one promises:
    sound answers on strictly refining pairs, positivity upward closed, and
    every positive ball positive already on some strictly smaller ball.
    The kernel's positivity checks exercise the monotonicity content.

    ``pos_exact``, when present, decides exactly whether the set meets the
    open ball; the dichotomy is then maximally informative (answers
    POS_OUTER precisely when the set meets the outer ball).
    """

    def __init__(
        self,
        space: MetricSpace,
        decide_fn: Callable[[FormalBall, FormalBall], Decision],
        pos_exact: Optional[Callable[[FormalBall], bool]] = None,
        name: str = "pred",
    ):
        self.space = space
        self._decide_fn = decide_fn
        self.pos_exact = pos_exact
        self.name = name

    def decide(self, inner: FormalBall, outer: FormalBall) -> Decision:
        if not ball_lt(self.space, inner, outer):
            raise PreconditionFailed("decide needs strictly refining balls")
        return self._decide_fn(inner, outer)

    def __repr__(self):
        return f"LocatedPredicate({self.name})"


# ---------------------------------------------------------------------------
# Nearest-point structures and distances.
# ---------------------------------------------------------------------------


class _GridIndex:
    """Exact nearest-point search over a finite point list, by rings of grid
    cells.

    The points of a space in ``_GRID_SPACES`` are bucketed in square cells
    of side ``cell``, or, without one, of the longer side of their box over
    the square root of their number, about one point a cell; a line point x
    sits in the plane as (x, 0).  ``min_sq(p)`` scans the occupied cells
    ring by ring outwards from the cell of p and stops once the best
    squared distance found is no more than that of anything left: a point
    r + 1 or more rings out differs from p by more than r cells in one
    coordinate.  That stopping rule needs a metric at least as large as
    every coordinate difference, as |x - y| on the line and the Euclidean
    and max metrics in the plane are.  In any other space the index has
    one cell, which holds every point, so a search is a scan.
    """

    def __init__(self, space: MetricSpace, pts, cell: Optional[Fraction] = None):
        self.dist_sq = space.dist_sq
        if not isinstance(space, _GRID_SPACES):
            cell = None
        elif cell is None:
            xs, ys = zip(*(q if isinstance(q, tuple) else (q, Fraction(0)) for q in pts))
            side = max(max(xs) - min(xs), max(ys) - min(ys))
            cell = side / math.isqrt(len(xs)) or Fraction(1)
        self.cell = cell
        self.buckets: dict = {}
        for q in pts:
            self.buckets.setdefault(self._key(q), []).append(q)
        xs, ys = zip(*self.buckets)
        self.box = (min(xs), max(xs), min(ys), max(ys))

    def _key(self, p) -> tuple:
        if self.cell is None:
            return (0, 0)
        if isinstance(p, tuple):
            return (p[0] // self.cell, p[1] // self.cell)
        return (p // self.cell, 0)

    def _ring(self, cx: int, cy: int, r: int):
        """The occupied-box cells at Chebyshev distance r from (cx, cy)."""
        if r == 0:
            return ((cx, cy),)
        x0, x1, y0, y1 = self.box
        xs = range(max(cx - r, x0), min(cx + r, x1) + 1)
        ys = range(max(cy - r + 1, y0), min(cy + r - 1, y1) + 1)
        cells = [(x, y) for y in (cy - r, cy + r) if y0 <= y <= y1 for x in xs]
        cells += [(x, y) for x in (cx - r, cx + r) if x0 <= x <= x1 for y in ys]
        return cells

    def min_sq(self, p, floor: Optional[Fraction] = None) -> Fraction:
        """The least squared distance from p to the net, exactly.  With a
        ``floor`` the search may stop at the first value at most the floor."""
        cx, cy = self._key(p)
        x0, x1, y0, y1 = self.box
        # Rings inside the first one that meets the occupied box are empty.
        r = max(0, x0 - cx, cx - x1, y0 - cy, cy - y1)
        last = max(cx - x0, x1 - cx, cy - y0, y1 - cy)
        best = None
        while True:
            cells = self._ring(cx, cy, r)
            if len(cells) > len(self.buckets):
                # Ring r has more cells than the net has occupied ones, so
                # the search ends with every occupied cell not yet scanned.
                cells = [k for k in self.buckets if max(abs(k[0] - cx), abs(k[1] - cy)) >= r]
                r = last
            for c in cells:
                for q in self.buckets.get(c, ()):
                    d = self.dist_sq(p, q)
                    if best is None or d < best:
                        best = d
                        if floor is not None and d <= floor:
                            return d
            if r >= last or (best is not None and best <= (self.cell * r) ** 2):
                return best
            r += 1

    def max_min_sq(self, pts) -> Fraction:
        """max over pts of ``min_sq``, exactly.  The running maximum is the
        floor of each search: a point whose distance falls to it cannot
        raise the maximum."""
        worst = Fraction(0)
        for p in pts:
            worst = max(worst, self.min_sq(p, worst))
        return worst


def _bracket_distance(
    cmp, p, lo: Fraction, width: Fraction, hi: Optional[Fraction] = None
) -> tuple:
    """Bracket of d(p) of width at most ``width``, given d(p) >= lo, by
    bisection on ``cmp(p, t)``; without a known upper bound ``hi`` a gallop
    from lo finds one first.  A probe that meets the distance exactly ends
    the search with an exact value."""
    t, step = (lo if hi is None else (lo + hi) / 2), width
    while hi is None or hi - lo > width:
        sign = cmp(p, t)
        if sign == 0:
            return (t, t)
        if sign > 0:
            lo = t
        else:
            hi = t
        if hi is None:
            t, step = lo + step, 2 * step
        else:
            t = (lo + hi) / 2
    return (lo, hi)


def _distance_bracket(
    S: EpsilonNetFamily, x, width: Fraction, hint: Optional[tuple] = None
) -> tuple:
    """Bracket of d(x, S) of width at most ``width``.

    This is the one place that chooses how a distance is bracketed.  A
    ``distance_value`` gives it exactly; ``distance_compare`` alone is
    bisected (:func:`_bracket_distance`), inside ``hint`` = (lo, hi) when
    the caller knows the distance lies there; a set with neither answers
    from its nets (:func:`_net_max_distance`).
    """
    if S.distance_value is not None:
        v = S.distance_value(x)
        return (v, v)
    if S.distance_compare is not None:
        lo, hi = hint if hint is not None else (Fraction(0), None)
        return _bracket_distance(S.distance_compare, x, lo, width, hi)
    return _net_max_distance(S, [x], width)


def _meets_test(P) -> Optional[Callable]:
    """``meets(c, s)``: does the set meet the open ball of radius s around c,
    as one exact comparison; None when P has none.  A set's comparison
    answers it, or a predicate's ``pos_exact``, whose contract makes it
    agree with every POS_OUTER answer of ``decide``.  This is the one place
    that chooses between an exact dichotomy and one from nets."""
    if isinstance(P, EpsilonNetFamily):
        if P.distance_compare is not None:
            cmp = P.distance_compare
            return lambda c, s: cmp(c, s) < 0
    elif isinstance(P, LocatedPredicate) and P.pos_exact is not None:
        pos = P.pos_exact
        return lambda c, s: pos(FormalBall(c, s))
    return None


def _net_max_distance(S: EpsilonNetFamily, pts, width: Fraction) -> tuple:
    """Bracket of max over pts of d(p, S) of width at most ``width``, from
    the net at delta = width/3 alone.

    The largest least squared distance from pts to the net is exact, from
    its ``net_index``; one square root brackets it to width/6.  The net
    moves each distance by at most delta, so padding that bracket by delta
    gives width at most 5/6 of ``width``.
    """
    delta = width / 3
    lo, hi = sqrt_bounds(S.net_index(delta).max_min_sq(pts), width / 6)
    return (max(Fraction(0), lo - delta), hi + delta)


def distance_to_set(S: EpsilonNetFamily, x) -> DedekindReal:
    """Distance from a point to the set, as a Dedekind real.

    Each precision eps is one call of :func:`_distance_bracket`.  A set
    with ``distance_value`` answers exactly, as ``[v, v]``; one with
    ``distance_compare`` only is bisected down to width eps, exactly again
    when a probe meets the distance.  Without either, the net at eps/3
    answers, with width at most 5 eps/6 (clipped below at zero).
    """
    return DedekindReal(lambda eps: _distance_bracket(S, x, eps), name=f"d({x}, {S.name})")


def decide_located_pair(S, inner: FormalBall, outer: FormalBall) -> Decision:
    """Sound dichotomy for strictly refining balls.

    Exactly-backed sets answer POS_OUTER precisely when the set meets the
    outer ball, from one exact comparison.  Net-backed sets without one
    bracket the distance of the inner centre to half the certified gap
    margin and compare its lower end with the inner radius.
    """
    if isinstance(S, LocatedPredicate):
        return S.decide(inner, outer)
    if not isinstance(S, EpsilonNetFamily):
        raise PreconditionFailed(f"cannot decide on {S!r}")
    space = S.space
    if not ball_lt(space, inner, outer):
        raise PreconditionFailed("decide needs strictly refining balls")
    meets = _meets_test(S)
    if meets is not None:
        return Decision.POS_OUTER if meets(outer.center, outer.radius) else Decision.NOT_POS_INNER
    # Certified lower bound on the gap margin s - r - d(centers), from a
    # rational upper bound on d(centers).
    gap = outer.radius - inner.radius
    margin = gap - distance_below(space, inner.center, outer.center, gap)
    lo, _ = _distance_bracket(S, inner.center, margin / 2)
    if lo >= inner.radius:
        return Decision.NOT_POS_INNER
    return Decision.POS_OUTER


# ---------------------------------------------------------------------------
# Net <-> predicate conversions.
# ---------------------------------------------------------------------------


class _NetPredicate(LocatedPredicate):
    """The predicate of a net-backed set.  Its answers come from
    :func:`decide_located_pair` on the set, which checks the refinement of
    the pair itself, so ``decide`` does not check it a second time."""

    def decide(self, inner: FormalBall, outer: FormalBall) -> Decision:
        return self._decide_fn(inner, outer)


def predicate_from_net(S: EpsilonNetFamily) -> LocatedPredicate:
    """The located predicate of a net-backed set."""
    pos = None
    meets = _meets_test(S)
    if meets is not None:

        def pos(ball: FormalBall) -> bool:
            return True if ball is TOP else meets(ball.center, ball.radius)

    return _NetPredicate(
        S.space, lambda i, o: decide_located_pair(S, i, o), pos_exact=pos, name=S.name
    )


def _cell_rho(space: MetricSpace) -> tuple:
    """(a, b) such that rho = a/b times the side of a square cell (an
    interval on the line) is at least the distance from its centre to any
    of its points: 17/24 > 1/sqrt 2 in the Euclidean plane, 1/2 on the line
    and in the max metric."""
    return (17, 24) if isinstance(space, PlaneEuclid) else (1, 2)


# Cells of the descent with at most this many points decide each point.
_LEAF = 4


def _cell_filter(P, pts: list, inner: Fraction, outer: Fraction) -> bytearray:
    """Which points x of pts the dichotomy of P answers POS_OUTER on the pair
    (B(x, inner), B(x, outer)), as a mask in the order of pts.

    With an exact ``meets`` test (:func:`_meets_test`) in one of
    ``_GRID_SPACES``, the points descend through dyadic cells.  They are
    held as integers over their common denominator; a line point x is
    (x, 0).  A cell is the bounding box of its points, with centre C its
    midpoint and rho at least the distance from C to any of them: 17/24 of
    the longer side in the Euclidean plane, half of it otherwise.  With
    t = ``outer``, a positive answer means d(x, S) < t, so a cell is kept
    whole when d(C, S) < t - rho and dropped whole when d(C, S) >= t + rho;
    otherwise it splits at the midpoint of its longer side.  The points of a
    cell are kept sorted by x, so that its x-range is its ends and an x-split
    is a bisection.  Only cells of at most ``_LEAF`` points, and every point
    of a set without an exact test, take the per-point dichotomy, whose
    answer each cell test agrees with.
    """
    n = len(pts)
    mask = bytearray(n)

    def decide(ids):
        for i in ids:
            x = pts[i]
            if decide_located_pair(P, FormalBall(x, inner), FormalBall(x, outer)) is Decision.POS_OUTER:
                mask[i] = 1

    meets = _meets_test(P)
    plane = meets is not None and isinstance(P.space, (PlaneEuclid, PlaneMax))
    if (
        meets is None
        or not isinstance(P.space, _GRID_SPACES)
        or not pts
        or any(isinstance(p, tuple) != plane for p in pts)
    ):
        decide(range(n))
        return mask
    coords = pts if plane else [(x, 0) for x in pts]
    den = math.lcm(*{c.denominator for p in coords for c in p})
    xs = [x.numerator * (den // x.denominator) for x, _ in coords]
    ys = [y.numerator * (den // y.denominator) for _, y in coords]
    # rho = a * side / (b * den); t -+ rho = (tb -+ a * side * td) / rd.
    a, b = _cell_rho(P.space)
    td = outer.denominator
    tb, rd = outer.numerator * b * den, b * den * td
    ids = sorted(range(n), key=xs.__getitem__)
    stack = [([xs[i] for i in ids], [ys[i] for i in ids], ids)]
    while stack:
        cx, cy, ids = stack.pop()
        x0, x1, y0, y1 = cx[0], cx[-1], min(cy), max(cy)
        side = max(x1 - x0, y1 - y0)
        arho = a * side * td
        c = Fraction(x0 + x1, 2 * den)
        if plane:
            c = (c, Fraction(y0 + y1, 2 * den))
        if arho < tb and meets(c, Fraction(tb - arho, rd)):
            for i in ids:
                mask[i] = 1
            continue
        if not meets(c, Fraction(tb + arho, rd)):
            continue
        if len(ids) <= _LEAF:
            decide(ids)
            continue
        if x1 - x0 == side:
            k = bisect_right(cx, (x0 + x1) // 2)
            stack.append((cx[k:], cy[k:], ids[k:]))
            stack.append((cx[:k], cy[:k], ids[:k]))
        else:
            mid = (y0 + y1) // 2
            low = [v <= mid for v in cy]
            for sel in ([not s for s in low], low):
                stack.append((list(compress(cx, sel)), list(compress(cy, sel)), list(compress(ids, sel))))
    return mask


def net_from_located(ambient: EpsilonNetFamily, P, eps: Fraction) -> tuple:
    """Filter an ambient net down to a two-sided eps-net of the located set.

    Each ambient net point x at eps/3 is kept when the dichotomy on the
    nested pair (B(x, eps/3), B(x, 2*eps/3)) answers POS_OUTER, i.e. when x
    is certified to lie within 2*eps/3 of the set.  The answers come from
    :func:`_cell_filter`: a set with an exact comparison, or a predicate
    with ``pos_exact``, decides whole cells of ambient points by one
    comparison at the cell centre, and only the points of small cells on the
    set's edge are probed one by one.  The kept points are those of the
    point-by-point filter, in ambient-net order.  An empty result means
    nothing was certified (the set may be empty).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionFailed("net precision must be positive")
    net = ambient.net(eps / 3)
    return tuple(compress(net, _cell_filter(P, net, eps / 3, 2 * eps / 3)))


def image_located(
    S: EpsilonNetFamily,
    f: Callable,
    m: Modulus,
    target_space: Optional[MetricSpace] = None,
) -> EpsilonNetFamily:
    """Image of a located set under a map with a uniform-continuity modulus.

    The image carries nets only, built from the source net at omega(eps);
    :func:`affine_image` maps builtin sets to builtin sets and gives other
    images an exact comparison under the affine maps that carry one.
    """
    space = target_space if target_space is not None else S.space
    return EpsilonNetFamily(
        space,
        lambda eps: [f(p) for p in S.net(m.omega(eps))],
        name=f"image({S.name})",
    )


def union_located(A: EpsilonNetFamily, B: EpsilonNetFamily) -> EpsilonNetFamily:
    """Finite unions preserve locatedness: concatenate the nets."""
    if A.space is not B.space:
        raise AmbientMismatch(f"union over different spaces {A.space.name}, {B.space.name}")
    dv = None
    if A.distance_value is not None and B.distance_value is not None:
        va, vb = A.distance_value, B.distance_value
        dv = lambda x: min(va(x), vb(x))
    dc = None
    if A.distance_compare is not None and B.distance_compare is not None:
        ca, cb = A.distance_compare, B.distance_compare

        def dc(x, t):
            # The union meets B(x, t) as soon as A does.
            sign = ca(x, t)
            return sign if sign < 0 else min(sign, cb(x, t))

    points = None
    if A.points is not None and B.points is not None:
        points = A.points + B.points
    U = EpsilonNetFamily(
        A.space,
        lambda eps: A.net(eps) + B.net(eps),
        distance_compare=dc,
        distance_value=dv,
        name=f"{A.name}|{B.name}",
        points=points,
    )
    return _with_image(U, lambda f: union_located(affine_image(A, f), affine_image(B, f)))


def hausdorff_distance(A: EpsilonNetFamily, B: EpsilonNetFamily) -> DedekindReal:
    """Hausdorff distance between two inhabited sets, as a Dedekind real.

    Two finite sets (both with ``points``) answer exactly: H^2 is computed
    once (:func:`_finite_hausdorff_sq`), and each eps takes one
    ``sqrt_bounds`` of it, ``[v, v]`` when H^2 is a rational square.
    Otherwise, when both sets have an exact comparison, in one of
    ``_GRID_SPACES``, both directed suprema come from one best-first
    descent over cells (:func:`_hausdorff_descent`), which refines only
    where the supremum can still be attained.  When either set has none,
    each directed sweep compares two nets (:func:`_net_max_distance`): the
    maximum over the source's net at delta = eps/6 of the distance to the
    target, bracketed to width 5 eps/12 and padded by delta, since
    d(., target) is 1-Lipschitz.  That gives width at most 3 eps/4.

    The computation is literally symmetric in A and B, so swapping the
    arguments returns identical intervals.
    """
    if A.space is not B.space:
        raise AmbientMismatch(f"hausdorff over different spaces {A.space.name}, {B.space.name}")
    name = f"H({A.name}, {B.name})"
    if A.points is not None and B.points is not None:
        hsq = _finite_hausdorff_sq(A, B)
        return DedekindReal(lambda eps: sqrt_bounds(hsq, eps), name=name)
    if (
        A.distance_compare is not None
        and B.distance_compare is not None
        and isinstance(A.space, _GRID_SPACES)
    ):
        return DedekindReal(lambda eps: _hausdorff_descent(A, B, eps), name=name)

    def refine(eps: Fraction):
        lo = hi = Fraction(0)
        delta = eps / 6
        for source, target in ((A, B), (B, A)):
            mlo, mhi = _net_max_distance(target, source.net(delta), eps / 2)
            lo, hi = max(lo, mlo - delta), max(hi, mhi + delta)
        return (lo, hi)

    return DedekindReal(refine, name=name)


def _finite_hausdorff_sq(A: EpsilonNetFamily, B: EpsilonNetFamily) -> Fraction:
    """H(A, B)^2 of two finite sets, exactly: the larger of the two largest
    least squared distances from the points of one set to the other's, each
    one ``_GridIndex.max_min_sq`` over cells of about one point each."""
    return max(
        _GridIndex(A.space, B.points).max_min_sq(A.points),
        _GridIndex(A.space, A.points).max_min_sq(B.points),
    )


# The root box of a descent is refined until its widening is at most a
# quarter of it (``_root_cells``): with 4 or more, the haus-segments and
# haus-diameter ops of the located-exact benchmark make about a quarter
# fewer comparisons than from the box of net(1).
_ROOT_K = 8


def _root_cells(S: EpsilonNetFamily, eps: Fraction) -> list:
    """(centre, side) of the cells that hold every point of S: one of side
    0 per point of a finite set, else one square (an interval on the line)
    over the box of ``net(e)`` widened by e.  e starts at 1 and halves, down
    to eps, while the widening is more than a quarter of the box."""
    if S.points is not None:
        return [(p, Fraction(0)) for p in S.points]
    e = Fraction(1)
    while True:
        net = S.net(e)
        if isinstance(net[0], tuple):
            xs, ys = [p[0] for p in net], [p[1] for p in net]
            x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
            c, side = ((x0 + x1) / 2, (y0 + y1) / 2), max(x1 - x0, y1 - y0)
        else:
            x0, x1 = min(net), max(net)
            c, side = (x0 + x1) / 2, x1 - x0
        if side >= _ROOT_K * e or e <= eps:
            return [(c, side + 2 * e)]
        e /= 2


def _hausdorff_descent(A: EpsilonNetFamily, B: EpsilonNetFamily, eps: Fraction) -> tuple:
    """Bracket of H(A, B) of width at most eps, by branch and bound over
    cells of both sets at once.

    A cell of a source S, with centre c, side s and rho = ``_cell_rho`` of
    s, holds every point of S it may meet within rho of c.  It is dropped
    when d(c, S) > rho.  Otherwise d(c, T) to the other set T is bracketed
    as [dlo, dhi] to width max(rho/2, eps/4), inside the parent's bracket
    widened by rho, since the centres lie within rho of each other: a point
    of S within rho of c gives the lower bound dlo - rho of H, and dhi + rho
    bounds d(., T) over the cell.  Every cell tied for the largest upper
    bound U is split, into 4 children in the plane and 2 on the line, until
    U is within eps of the largest lower bound L.  A cell of side 0, a point
    of a finite set, is bracketed to width eps at once, so it never ties
    before the end; it is never dropped or split.  Both directions
    share L, so a direction with a plateau below L, such as a small disk
    inside a large one, is never refined; and splitting all tied cells at
    once makes the answer independent of the order of A and B.
    """
    a, b = _cell_rho(A.space)
    lower = Fraction(0)
    heap: list = []
    tick = itertools.count()

    def visit(source, target, c, side, hint):
        nonlocal lower
        rho = a * side / b
        if side and source.distance_compare(c, rho) > 0:
            return
        width = max(rho / 2, eps / 4) if side else eps
        dlo, dhi = _distance_bracket(target, c, width, hint)
        lower = max(lower, dlo - rho)
        heapq.heappush(heap, (-(dhi + rho), next(tick), source, target, c, side, dlo, dhi))

    for source, target in ((A, B), (B, A)):
        for c, side in _root_cells(source, eps):
            visit(source, target, c, side, None)
    while True:
        upper = -heap[0][0]
        if upper - lower <= eps:
            return (lower, max(lower, upper))
        tied = []
        while heap and -heap[0][0] == upper:
            tied.append(heapq.heappop(heap))
        for _, _, source, target, c, side, dlo, dhi in tied:
            half = side / 2
            rho = a * half / b
            hint = (max(Fraction(0), dlo - rho), dhi + rho)
            q = half / 2
            if isinstance(c, tuple):
                children = [(c[0] + i, c[1] + j) for i in (-q, q) for j in (-q, q)]
            else:
                children = [c - q, c + q]
            for child in children:
                visit(source, target, child, half, hint)


# ---------------------------------------------------------------------------
# Exact distance oracles for the builtin sets.
# ---------------------------------------------------------------------------


def cantor_distance(x) -> Fraction:
    """Exact distance from a rational to the middle-thirds set in [0, 1].

    Scaling by 3 maps the set onto two translated copies of itself, so the
    distance satisfies d(x) = min(d(3x), d(3x - 2)) / 3 inside (0, 1).  Only
    one of 3x and 3x - 2 stays in (0, 1), and only while x lies outside the
    middle third [1/3, 2/3], where d(x) = min(x - 1/3, 2/3 - x).  The orbit
    of x = n/d under these maps is a path of numerators over the fixed
    denominator d, so it is finite; a revisited state means a periodic digit
    expansion avoiding the middle digit, i.e. the state is itself a set
    point at distance zero.  The visited numerators are kept for this call
    only.
    """
    x = Fraction(x)
    if x <= 0:
        return -x
    if x >= 1:
        return x - 1
    n, d = x.numerator, x.denominator
    seen: set = set()
    scale = 3 * d
    while n not in seen:
        seen.add(n)
        n *= 3
        if n > 2 * d:
            n -= 2 * d
        elif n >= d:
            return Fraction(min(n - d, 2 * d - n), scale)
        scale *= 3
    return Fraction(0)


def _sign(d: Fraction, t: Fraction) -> int:
    return (d > t) - (d < t)


# The builtin sets decide the sign of d(p, S) - t in integer arithmetic.
# Each set scales its own data to integers when it is built
# (:func:`_scaled`), and a call reads the numerators and denominators of p
# and t once: a plane point (x/m, y/n) sits at integer coordinates over
# m n, and a squared distance is an integer s over an integer q, compared
# with t^2 by :func:`_sq_sign`.  A finite set keeps each point over its own
# least denominator and compares the points that share one together: one
# denominator for the whole set would grow with the number of points.


def _scaled(*qs) -> tuple:
    """(d, n_1, n_2, ...): the rationals qs as integers n_i over their least
    common denominator d."""
    d = math.lcm(*(q.denominator for q in qs))
    return (d, *(q.numerator * (d // q.denominator) for q in qs))


def _sq_sign(s: int, q: int, t: Fraction) -> int:
    """Sign of sqrt(s / q) - t, for integers s >= 0 and q > 0."""
    u, v = t.numerator, t.denominator
    if u < 0:
        return 1
    s, w = s * v * v, q * u * u
    return (s > w) - (s < w)


def _line_distance(parts: Callable) -> tuple:
    """(distance_value, distance_compare) of a line set whose distance at x
    is s / d for ``parts(x)`` = (s, d), integers with d > 0."""

    def cmp(x, t):
        s, d = parts(x)
        s, w = s * t.denominator, t.numerator * d
        return (s > w) - (s < w)

    return (lambda x: Fraction(*parts(x))), cmp


# ---------------------------------------------------------------------------
# Builtin set constructors.
# ---------------------------------------------------------------------------


def _with_image(S: EpsilonNetFamily, image: Callable) -> EpsilonNetFamily:
    """S with its affine-image hook ``image(f)`` (see :func:`affine_image`)."""
    S._image = image
    return S


def _grid_coords(a: Fraction, h: Fraction, ks: range) -> list:
    """a + k h for k in ks, from integer numerators over one denominator."""
    d, an, hn = _scaled(a, h)
    return [Fraction(an + k * hn, d) for k in ks]


def _grid_line(a: Fraction, b: Fraction, h: Fraction) -> list:
    """a, a + h, a + 2h, ... while below b, then b itself, for a <= b."""
    return _grid_coords(a, h, range(math.ceil((b - a) / h))) + [b]


def interval_set(a, b, space: Optional[MetricSpace] = None) -> EpsilonNetFamily:
    """The closed interval [a, b] on the line."""
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise PreconditionFailed(f"empty interval [{a}, {b}]")
    space = space or LINE
    D, A, B = _scaled(a, b)

    def parts(x):
        # max(0, a - x, x - b) over m D, for x = n/m.
        n, m = x.numerator, x.denominator
        X = n * D
        return (max(0, A * m - X, X - B * m), m * D)

    dv, cmp = _line_distance(parts)
    S = EpsilonNetFamily(
        space,
        lambda eps: _grid_line(a, b, eps),
        distance_compare=cmp,
        distance_value=dv,
        name=f"[{a},{b}]",
    )
    return _with_image(S, lambda f: segment_set(*f(a), *f(b)))


def point_set(points) -> EpsilonNetFamily:
    """A finite set of rational points on the line."""
    pts = tuple(Fraction(p) for p in points)
    if not pts:
        raise PreconditionFailed("point set must be nonempty")
    by_den: dict = {}
    for p in pts:
        by_den.setdefault(p.denominator, []).append(p.numerator)
    groups = tuple(by_den.items())

    def parts(x):
        # min |x - X/e| = min |n e - X m| / (m e), for x = n/m.
        n, m = x.numerator, x.denominator
        best = None
        for e, group in groups:
            ne, d = n * e, m * e
            s = min(abs(ne - X * m) for X in group)
            if best is None or s * best[1] < best[0] * d:
                best = (s, d)
        return best

    dv, cmp = _line_distance(parts)
    S = EpsilonNetFamily(
        LINE,
        lambda eps: list(pts),
        distance_compare=cmp,
        distance_value=dv,
        name=f"points{list(pts)}",
        points=pts,
    )
    return _with_image(S, lambda f: plane_point_set([f(p) for p in pts]))


def plane_point_set(points) -> EpsilonNetFamily:
    """A finite set of rational points in the Euclidean plane."""
    pts = tuple((Fraction(x), Fraction(y)) for x, y in points)
    if not pts:
        raise PreconditionFailed("point set must be nonempty")
    by_den: dict = {}
    for p in pts:
        e, X, Y = _scaled(*p)
        by_den.setdefault(e, []).append((X, Y))
    groups = tuple(by_den.items())

    def cmp(p, t):
        x, y = p
        m, n = x.denominator, y.denominator
        k = m * n
        a, b = x.numerator * n, y.numerator * m
        sign = 1
        for e, group in groups:
            # p - (X, Y)/e = (a e - X k, b e - Y k) / (k e).
            ae, be = a * e, b * e
            s = min((ae - X * k) ** 2 + (be - Y * k) ** 2 for X, Y in group)
            c = _sq_sign(s, (k * e) ** 2, t)
            if c < 0:
                return c
            sign = min(sign, c)
        return sign

    S = EpsilonNetFamily(
        PLANE, lambda eps: list(pts), distance_compare=cmp, name="points2d", points=pts
    )
    return _with_image(S, lambda f: plane_point_set([f(p) for p in pts]))


def cantor_set() -> EpsilonNetFamily:
    """The middle-thirds set, with level-k endpoint nets."""

    def net(eps):
        k = 0
        while Fraction(1, 3**k) > eps / 2:
            k += 1
        pts = [Fraction(0)]
        for _ in range(k):
            third = [p / 3 for p in pts]
            pts = third + [Fraction(2, 3) + p for p in third]
        pts.append(Fraction(1))
        return sorted(set(pts))

    return EpsilonNetFamily(LINE, net, distance_value=cantor_distance, name="cantor")


def disk_set(cx, cy, r) -> EpsilonNetFamily:
    """The closed Euclidean disk of radius r around (cx, cy)."""
    cx, cy, r = Fraction(cx), Fraction(cy), Fraction(r)
    if r <= 0:
        raise PreconditionFailed(f"disk radius must be positive, got {r}")
    D, X, Y, R = _scaled(cx, cy, r)

    def net(eps):
        # The grid points (cx + i h, cy + j h), i and j from -steps to steps,
        # with i^2 + j^2 <= (r/h)^2 = (qn/qd)^2: row i holds the |j| up to
        # isqrt((qn^2 - i^2 qd^2) // qd^2).  The centre comes first.
        h = eps / 2
        q = r / h
        qn, qd = q.numerator, q.denominator
        steps = qn // qd + 1
        ks = range(-steps, steps + 1)
        xs, ys = _grid_coords(cx, h, ks), _grid_coords(cy, h, ks)
        pts = [(cx, cy)]
        for i in ks:
            rem = qn * qn - i * i * qd * qd
            if rem < 0:
                continue
            m = math.isqrt(rem // (qd * qd))
            x = xs[i + steps]
            pts.extend((x, ys[j + steps]) for j in range(-m, m + 1) if i or j)
        return pts

    def cmp(p, t):
        # For p = (x/m, y/n) and k = m n: |p - c| = sqrt(s) / (k D) and
        # r = R k / (k D).
        x, y = p
        m, n = x.denominator, y.denominator
        k = m * n
        ex = (x.numerator * D - X * m) * n
        ey = (y.numerator * D - Y * n) * m
        s = ex * ex + ey * ey
        u, v = t.numerator, t.denominator
        rk = R * k
        if s <= rk * rk:
            return (u < 0) - (u > 0)
        if u < 0:
            return 1
        # d = |p - c| - r against t = u/v: sqrt(s) v against (R v + u D) k.
        s, w = s * v * v, (R * v + u * D) * k
        w *= w
        return (s > w) - (s < w)

    def image(f):
        s = f.similarity_scale()
        return None if s is None else disk_set(*f((cx, cy)), s * r)

    S = EpsilonNetFamily(PLANE, net, distance_compare=cmp, name=f"disk({cx},{cy};{r})")
    return _with_image(S, image)


def segment_set(x1, y1, x2, y2) -> EpsilonNetFamily:
    """The closed straight segment between two rational plane points."""
    a = (Fraction(x1), Fraction(y1))
    b = (Fraction(x2), Fraction(y2))
    dx, dy = b[0] - a[0], b[1] - a[1]
    len_sq = dx * dx + dy * dy
    if len_sq == 0:
        return plane_point_set([a])
    len_ub = sqrt_bounds(len_sq, Fraction(1, 16))[1]
    D, AX, AY, UX, UY = _scaled(*a, dx, dy)
    L = UX * UX + UY * UY

    def net(eps):
        n = int(len_ub / (eps / 2)) + 1
        return [
            (a[0] + dx * Fraction(k, n), a[1] + dy * Fraction(k, n)) for k in range(n + 1)
        ]

    def cmp(p, t):
        # With w = p - a and u = b - a, over k D for p = (x/m, y/n) and
        # k = m n: the nearest point is a when w.u <= 0, b when
        # w.u >= |u|^2, else the foot at height |w x u| / |u|.
        x, y = p
        m, n = x.denominator, y.denominator
        k = m * n
        wx = (x.numerator * D - AX * m) * n
        wy = (y.numerator * D - AY * n) * m
        wu = wx * UX + wy * UY
        if wu <= 0:
            return _sq_sign(wx * wx + wy * wy, (k * D) ** 2, t)
        if wu >= L * k:
            wx, wy = wx - UX * k, wy - UY * k
            return _sq_sign(wx * wx + wy * wy, (k * D) ** 2, t)
        cross = wx * UY - wy * UX
        return _sq_sign(cross * cross, (k * D) ** 2 * L, t)

    S = EpsilonNetFamily(PLANE, net, distance_compare=cmp, name="segment")
    return _with_image(S, lambda f: segment_set(*f(a), *f(b)))


def box_set(x0, x1, y0, y1) -> EpsilonNetFamily:
    """The closed axis-aligned rectangle, e.g. an ambient for plane nets."""
    x0, x1, y0, y1 = Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1)
    if x0 > x1 or y0 > y1:
        raise PreconditionFailed("degenerate box")
    D, X0, X1, Y0, Y1 = _scaled(x0, x1, y0, y1)

    def net(eps):
        xs, ys = _grid_line(x0, x1, eps / 2), _grid_line(y0, y1, eps / 2)
        return [(x, y) for x in xs for y in ys]

    def cmp(p, t):
        # The offsets from the box over m n D, for p = (x/m, y/n).
        x, y = p
        m, n = x.denominator, y.denominator
        a, b = x.numerator * D, y.numerator * D
        ex = max(0, X0 * m - a, a - X1 * m) * n
        ey = max(0, Y0 * n - b, b - Y1 * n) * m
        return _sq_sign(ex * ex + ey * ey, (m * n * D) ** 2, t)

    return EpsilonNetFamily(PLANE, net, distance_compare=cmp, name="box")


@dataclass(frozen=True)
class AffineMap:
    """(x, y) -> (a x + b y + c, d x + e y + f); a line point x is (x, 0).

    ``lip`` is a rational upper bound on the operator norm of the linear
    part A = [[a, b], [d, e]], exact when that norm is rational: a
    similarity of rational scale s has ``lip == s``.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction
    lip: Fraction

    def __call__(self, p):
        if isinstance(p, tuple):
            x, y = p
        else:
            x, y = Fraction(p), Fraction(0)
        return (self.a * x + self.b * y + self.c, self.d * x + self.e * y + self.f)

    @property
    def modulus(self) -> Modulus:
        return Modulus(lambda eps: eps / self.lip)

    def similarity_scale(self) -> Optional[Fraction]:
        """s when A is s times an orthogonal matrix (orthogonal columns of
        equal length s > 0) and s is rational, else None."""
        a, b, d, e = self.a, self.b, self.d, self.e
        ssq = a * a + d * d
        if ssq == 0 or a * b + d * e != 0 or b * b + e * e != ssq:
            return None
        lo, hi = sqrt_bounds(ssq, Fraction(1))
        return lo if lo == hi else None


def affine_plane_map(a, b, c, d, e, f) -> AffineMap:
    """The affine map (x, y) -> (a x + b y + c, d x + e y + f).

    Its Lipschitz constant bounds the operator norm of A, whose square is
    the larger eigenvalue (F^2 + sqrt(F^4 - 4 det^2)) / 2 of A^T A, with
    F^2 = a^2 + b^2 + d^2 + e^2.  Both roots are rounded up; an irrational
    norm is rounded up to a multiple of 1/64 to keep net denominators small.
    """
    a, b, c, d, e, f = (Fraction(v) for v in (a, b, c, d, e, f))
    fsq = a * a + b * b + d * d + e * e
    det = a * e - b * d
    width = Fraction(1, 1024)
    root = sqrt_bounds(fsq * fsq - 4 * det * det, width)[1]
    lo, hi = sqrt_bounds((fsq + root) / 2, width)
    lip = lo if lo == hi else Fraction(math.ceil(hi * 64), 64)
    return AffineMap(a, b, c, d, e, f, lip or Fraction(1))


def affine_image(S: EpsilonNetFamily, f: AffineMap) -> EpsilonNetFamily:
    """Image of a located set under an affine plane map.

    A builtin set maps piece by piece to a builtin set again, through the
    hook its constructor supplies (``_image``), under any map, singular ones
    included:

    * a segment or an interval [a, b] to ``segment_set(f(a), f(b))``, a
      point when f(a) = f(b);
    * a finite set, on the line or in the plane, to ``plane_point_set`` of
      the mapped points, so ``points`` is kept;
    * a disk under a similarity of rational scale s to the disk of radius
      s r about f(c);
    * a union to the union of the images of its two parts.

    Any other line set (the Cantor set) under a map whose column
    (a, d) is zero is the one point (c, f), a ``plane_point_set``.  A set
    without a hook, or whose hook has no image (a disk under any other map),
    keeps an exact distance comparison wherever the map carries it:

    * a line set with ``distance_value`` and a nonzero column u = (a, d),
      under any map: with w = p - (c, f) and x0 = (w.u) / |u|^2 the foot of
      p on the image line, d(p)^2 = |w|^2 - (w.u) x0 + |u|^2 dv(x0)^2, the
      squared height plus the squared distance along the line;
    * a plane set with ``distance_compare`` under a similarity of rational
      scale s: d(p, f(S)) = s d(f^-1(p), S), with f^-1(p) = A^T (p - t) / s^2.

    Other images (shears and irrational-scale images of disks, and of sets
    without a hook) carry nets only, built from the source net at eps / lip.
    """
    if S._image is not None:
        image = S._image(f)
        if image is not None:
            return image
    line = isinstance(S.space, (RationalLine, LineSegment))
    if line and not (f.a or f.d):
        return plane_point_set([(f.c, f.f)])
    T = image_located(S, f, f.modulus, PLANE)
    if line and S.distance_value is not None:
        T.distance_compare = _line_image_compare(S.distance_value, f)
    elif S.space is PLANE and S.distance_compare is not None:
        s = f.similarity_scale()
        if s is not None:
            T.distance_compare = _similar_image_compare(S.distance_compare, f, s)
    return T


def _line_image_compare(dv: Callable, f: AffineMap) -> Callable:
    D, TX, TY, UX, UY = _scaled(f.c, f.f, f.a, f.d)
    L = UX * UX + UY * UY

    def cmp(p, t):
        # For p = (x/m, y/n) and k = m n: w = p - (c, f) = (wx, wy) / (k D)
        # and u = (UX, UY) / D, so the foot is x0 = (w.u) / (k L), the
        # squared height (w x u)^2 / |u|^2 is cross^2 / ((k D)^2 L), and
        # with dv(x0) = e/g the squared distance along the line |u|^2 (e/g)^2
        # is (L e k)^2 / ((k D g)^2 L).
        x, y = p
        m, n = x.denominator, y.denominator
        k = m * n
        wx = (x.numerator * D - TX * m) * n
        wy = (y.numerator * D - TY * n) * m
        d1 = dv(Fraction(wx * UX + wy * UY, k * L))
        e, g = d1.numerator, d1.denominator
        cross = (wx * UY - wy * UX) * g
        return _sq_sign(cross * cross + (L * e * k) ** 2, (k * D * g) ** 2 * L, t)

    return cmp


def _similar_image_compare(src_cmp: Callable, f: AffineMap, s: Fraction) -> Callable:
    ssq = s * s

    def cmp(p, t):
        wx, wy = p[0] - f.c, p[1] - f.f
        q = ((f.a * wx + f.d * wy) / ssq, (f.b * wx + f.e * wy) / ssq)
        return src_cmp(q, t / s)

    return cmp


# x -> (x, 0), the isometry that places the line on the x-axis of the plane.
_EMBED = affine_plane_map(1, 0, 0, 0, 0, 0)


def promote_to_plane(S: EpsilonNetFamily) -> EpsilonNetFamily:
    """A line set placed on the x-axis of the Euclidean plane: its image
    under x -> (x, 0) (:func:`affine_image`), which keeps its exact
    comparison and its ``points``.  A plane set is returned as it is."""
    return S if S.space is PLANE else affine_image(S, _EMBED)


# ---------------------------------------------------------------------------
# Deriving a dichotomy from overtness data over the interval lattice.
# ---------------------------------------------------------------------------


def ball_region(ball: FormalBall, ambient: tuple) -> IntervalElement:
    """The open interval of a line ball, clipped to the lattice ambient."""
    x, r = ball.center, ball.radius
    return IntervalElement.make(ambient, [(x - r, x + r)])


def located_from_overt(
    pos_elem: Callable[[IntervalElement], bool], ambient: tuple, name: str = "overt"
) -> LocatedPredicate:
    """Dichotomy on the line from a positivity oracle plus finite covers.

    For a strictly refining pair the gap complement of the inner region
    joins with the outer region to the whole ambient; the positive members
    of that two-element cover are kept, and the answer follows the outer
    region's membership in the kept subcover.
    """

    def decide(inner: FormalBall, outer: FormalBall) -> Decision:
        v = ball_region(outer, ambient)
        w = gap_complement(ball_region(inner, ambient))
        kept = [e for e in (v, w) if pos_elem(e)]
        return Decision.POS_OUTER if v in kept else Decision.NOT_POS_INNER

    return LocatedPredicate(LINE, decide, name=name)


def meets_oracle(S: EpsilonNetFamily, ambient: tuple) -> Callable[[IntervalElement], bool]:
    """Positivity on interval elements: does the set meet the open element?

    Meeting an open interval is a strict distance comparison against its
    midpoint, which the builtin sets decide exactly.
    """
    meets = _meets_test(S)
    if meets is None:
        raise PreconditionFailed(f"{S.name} has no exact distance comparison")

    def pos(e: IntervalElement) -> bool:
        return any(meets((p + q) / 2, (q - p) / 2) for p, q in e.parts)

    return pos


# ---------------------------------------------------------------------------
# The sublocale-containment check (closed set inside an open one iff the
# complement together with the open covers the whole space).
# ---------------------------------------------------------------------------


@dataclass
class TvdReport:
    """Outcome of the two bounded-depth directions.

    ``cover_derivation`` witnesses that the open together with the
    negative balls covers the whole space; ``sample_results`` witness
    containment of sampled balls in the open within the positively closed
    sublocale.  A None entry is Unknown, never a refutation.
    """

    cover_derivation: Optional[Derivation]
    sample_results: tuple

    @property
    def cover_found(self) -> bool:
        return self.cover_derivation is not None

    @property
    def samples_found(self) -> bool:
        return all(d is not None for _, d in self.sample_results)

    @property
    def verdict(self) -> str:
        return "holds" if (self.cover_found and self.samples_found) else "unknown"


def tvd_check(P: LocatedPredicate, Z: Sequence[FormalBall], depth: int, budget: int) -> TvdReport:
    """Check both directions of the located-sublocale containment statement.

    The search runs on the space's ``completion_base``, whose every axiom
    family covers its element at the points of the space, so a found
    derivation is true of the space itself, never an artifact of the
    truncation.
    """
    if P.pos_exact is None:
        raise PreconditionFailed("tvd_check needs an exactly decidable predicate")
    Z = tuple(Z)
    base = completion_base(P.space, budget)
    notpos = SetPredicate(
        "notpos", lambda ball: ball is not TOP and not P.pos_exact(ball)
    )
    target = EltSet(listed=Z, predicates=(notpos,))
    cover = derive_cover(base, TOP, target, depth, budget=budget)

    pos_pred = SetPredicate("pos", lambda ball: ball is TOP or P.pos_exact(ball))
    subl = PosClosedSub(pos_pred)
    sampled = [TOP] + [FormalBall(c, Fraction(1, 4)) for c in base.points[:6]]
    results = tuple(
        (u, sublocale_cover(base, subl, u, EltSet(listed=Z), depth, budget=budget))
        for u in sampled
    )
    return TvdReport(cover, results)
