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
structure itself; a net is only one witness of it.  So every query asks
the exact oracle first and falls back to nets only without one:

* a dichotomy is one call of ``distance_compare``;
* ``distance_to_set`` returns ``distance_value`` exactly, or bisects on
  ``distance_compare``, and otherwise takes the minimum over a net;
* each directed ``hausdorff_distance`` sweep takes the target's oracle
  over the source's net when both sets have one, and otherwise compares
  two nets.

Affine images keep the exact comparison wherever the map carries it
(:func:`affine_image`); images under other maps with a modulus carry nets
only.  Distances and Hausdorff sweeps choose between the exact oracle and
nets in one place, :func:`_exact_max_distance`.

Every nearest-point search over a net, for a distance and for the max-min
sweep of a Hausdorff distance alike, goes through one grid index built by
``EpsilonNetFamily.net_index`` (:class:`_GridIndex`); only spaces outside
its reach scan the net with ``dist_approx`` (:func:`_approx_min`).

Intersections of located sets are deliberately absent: locatedness is not
preserved by intersection, and it depends on the metric presentation, not
just the topology; both facts are documented limitations of the notion
itself rather than of this module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from overt.errors import (
    AmbientMismatch,
    EmptySetError,
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

    ``net(eps)`` returns a nonempty finite point list; every net point lies
    within eps of the set and every set point within eps of some net point
    (strictly, with slack, for the builtin constructions).  When the set
    admits exact rational distance comparison, ``distance_compare(x, t)``
    returns the sign of d(x, set) - t.
    """

    def __init__(
        self,
        space: MetricSpace,
        net_fn: Callable[[Fraction], list],
        inhabited: bool = True,
        distance_compare: Optional[Callable[[object, Fraction], int]] = None,
        distance_value: Optional[Callable[[object], Fraction]] = None,
        name: str = "set",
    ):
        self.space = space
        self._net_fn = net_fn
        self.inhabited = inhabited
        self.distance_value = distance_value
        if distance_compare is None and distance_value is not None:
            distance_compare = lambda x, t: _sign(distance_value(x), t)
        self.distance_compare = distance_compare
        self.name = name
        self._memo: dict[Fraction, tuple] = {}
        self._indexes: dict[Fraction, _GridIndex] = {}

    def net(self, eps: Fraction) -> list:
        eps = Fraction(eps)
        if eps <= 0:
            raise PreconditionFailed(f"net precision must be positive, got {eps}")
        if eps not in self._memo:
            pts = tuple(self._net_fn(eps))
            if self.inhabited and not pts:
                raise InvariantViolation(f"empty net for inhabited set {self.name}")
            self._memo[eps] = pts
        return list(self._memo[eps])

    def net_index(self, eps: Fraction) -> Optional[_GridIndex]:
        """Cached exact nearest-point index over the nonempty net(eps), with
        cells of side ``_CELL * eps``; None when the space is not one of
        ``_GRID_SPACES``."""
        if not isinstance(self.space, _GRID_SPACES):
            return None
        eps = Fraction(eps)
        if eps not in self._indexes:
            self._indexes[eps] = _GridIndex(self.space.dist_sq_exact, self.net(eps), _CELL * eps)
        return self._indexes[eps]

    def __repr__(self):
        return f"EpsilonNetFamily({self.name})"


class LocatedPredicate:
    """Effective dichotomy oracle over formal balls of a space.

    ``decide_fn`` is a raw gap oracle, and whoever supplies one promises:
    sound answers on strictly refining pairs, positivity upward closed, and
    every positive ball positive already on some strictly smaller ball.
    ``spot_check_dichotomy`` samples these obligations; the monotonicity
    content is exercised through the kernel's positivity checks.

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
    """Exact nearest-point search over a finite net, by rings of grid cells.

    Net points are bucketed in square cells of side ``cell``; a line point
    x sits in the plane as (x, 0).  ``min_sq(p)`` scans the occupied cells
    ring by ring outwards from the cell of p and stops once the best
    squared distance found is no more than that of anything left: a point
    r + 1 or more rings out differs from p by more than r cells in one
    coordinate.  That stopping rule needs a metric at least as large as
    every coordinate difference, as |x - y| on the line and the Euclidean
    and max metrics in the plane are (``_GRID_SPACES``).
    """

    def __init__(self, dist_sq, pts, cell: Fraction):
        self.dist_sq = dist_sq
        self.cell = cell
        self.buckets: dict = {}
        for q in pts:
            self.buckets.setdefault(self._key(q), []).append(q)
        xs, ys = zip(*self.buckets)
        self.box = (min(xs), max(xs), min(ys), max(ys))

    def _key(self, p) -> tuple:
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


def _approx_min(space: MetricSpace, x, pts, eta: Fraction) -> Fraction:
    """min over pts of ``dist_approx(x, p, eta)``: within eta of d(x, pts),
    for spaces without a grid index."""
    return min(space.dist_approx(x, p, eta) for p in pts)


def _bracket_distance(cmp, p, lo: Fraction, width: Fraction) -> tuple:
    """Bracket of d(p) of width at most ``width``, given d(p) >= lo, by a
    gallop from lo and then bisection on ``cmp(p, t)``.  A probe that meets
    the distance exactly ends the search with an exact value."""
    hi, t, step = None, lo, width
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


def _exact_max_distance(S: EpsilonNetFamily, pts, width: Fraction) -> Optional[tuple]:
    """Bracket of max over pts of d(p, S) of width at most ``width``, from
    the set's exact oracle; None when the set has none and nets must answer.

    ``distance_value`` gives the maximum exactly.  With ``distance_compare``
    only, each round brackets a few evenly spread points in play and then
    keeps just the points that lie beyond the largest upper end: no other
    point can carry the maximum.  When none is left beyond it, the largest
    sample bracket is a bracket of the maximum.
    """
    if S.distance_value is not None:
        m = max(S.distance_value(p) for p in pts)
        return (m, m)
    cmp = S.distance_compare
    if cmp is None:
        return None
    lo, live = Fraction(0), list(pts)
    while True:
        slo = shi = lo
        for p in live[:: max(1, len(live) // 8)]:
            plo, phi = _bracket_distance(cmp, p, lo, width)
            slo, shi = max(slo, plo), max(shi, phi)
        beyond = [p for p in live if cmp(p, shi) > 0]
        if not beyond:
            return (slo, shi)
        lo, live = shi, beyond


def distance_to_set(S: EpsilonNetFamily, x) -> DedekindReal:
    """Distance from a point to the set, as a Dedekind real.

    A set with ``distance_value`` answers exactly, as ``[v, v]``; one with
    ``distance_compare`` only is bisected down to width eps, exactly again
    when a probe meets the distance.  Without either, the minimum over the
    net at eps/3 is taken from its ``net_index`` (an exact squared distance
    and one square root to eps/6), or from ``dist_approx`` at eps/6 in a
    space without an index; it is within eps/2 of the true infimum, which
    gives an interval of width at most eps (clipped below at zero).
    """
    if not S.inhabited:
        raise EmptySetError(f"distance to possibly-empty set {S.name}")

    def refine(eps: Fraction):
        exact = _exact_max_distance(S, [x], eps)
        if exact is not None:
            return exact
        index = S.net_index(eps / 3)
        if index is not None:
            slo, shi = sqrt_bounds(index.min_sq(x), eps / 6)
            best = (slo + shi) / 2
        else:
            best = _approx_min(S.space, x, S.net(eps / 3), eps / 6)
        return (max(Fraction(0), best - eps / 2), best + eps / 2)

    return DedekindReal(refine, name=f"d({x}, {S.name})")


def decide_located_pair(S, inner: FormalBall, outer: FormalBall) -> Decision:
    """Sound dichotomy for strictly refining balls.

    Exactly-backed sets answer POS_OUTER precisely when the set meets the
    outer ball, from one exact comparison.  Net-backed sets without one
    evaluate the distance at a fraction of the certified gap margin and
    compare against the inner radius.
    """
    if isinstance(S, LocatedPredicate):
        return S.decide(inner, outer)
    if not isinstance(S, EpsilonNetFamily):
        raise PreconditionFailed(f"cannot decide on {S!r}")
    if not S.inhabited:
        raise EmptySetError(f"dichotomy on possibly-empty set {S.name}")
    space = S.space
    if not ball_lt(space, inner, outer):
        raise PreconditionFailed("decide needs strictly refining balls")
    if S.distance_compare is not None:
        cmp = S.distance_compare(outer.center, outer.radius)
        return Decision.POS_OUTER if cmp < 0 else Decision.NOT_POS_INNER
    # Certified lower bound on the gap margin s - r - d(centers), from a
    # rational upper bound q + eps on d(centers).
    gap = outer.radius - inner.radius
    eps = gap / 8
    while True:
        margin = gap - space.dist_approx(inner.center, outer.center, eps) - eps
        if margin > 0:
            break
        eps /= 4
    lo, hi = distance_to_set(S, inner.center).approximate(margin / 2)
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
    if S.distance_compare is not None:
        cmp = S.distance_compare

        def pos(ball: FormalBall) -> bool:
            if ball is TOP:
                return S.inhabited
            return cmp(ball.center, ball.radius) < 0

    return _NetPredicate(
        S.space, lambda i, o: decide_located_pair(S, i, o), pos_exact=pos, name=S.name
    )


def net_from_located(ambient: EpsilonNetFamily, P, eps: Fraction) -> tuple:
    """Filter an ambient net down to a two-sided eps-net of the located set.

    Each ambient net point at eps/3 is probed with the nested pair
    (eps/3, 2*eps/3); the kept points are those certified to be within
    2*eps/3 of the set.  An empty result means nothing was certified (the
    set may be empty).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionFailed("net precision must be positive")
    kept = []
    for x in ambient.net(eps / 3):
        inner = FormalBall(x, eps / 3)
        outer = FormalBall(x, 2 * eps / 3)
        if decide_located_pair(P, inner, outer) is Decision.POS_OUTER:
            kept.append(x)
    return tuple(kept)


def spot_check_dichotomy(
    P: LocatedPredicate, pairs: Sequence[tuple[FormalBall, FormalBall]]
) -> list:
    """Cross-query consistency on supplied chains: a pair answered POS_OUTER
    must not be answered NOT_POS_INNER on any enclosing pair."""
    violations = []
    answers = [(i, o, P.decide(i, o)) for i, o in pairs]
    for i1, o1, a1 in answers:
        for i2, o2, a2 in answers:
            if a1 is Decision.POS_OUTER and a2 is Decision.NOT_POS_INNER:
                # outer of the positive pair inside the inner of the negative
                if ball_lt(P.space, o1, i2) or o1 == i2:
                    violations.append(((i1, o1), (i2, o2)))
    return violations


def image_located(
    S: EpsilonNetFamily,
    f: Callable,
    m: Modulus,
    target_space: Optional[MetricSpace] = None,
    name: Optional[str] = None,
) -> EpsilonNetFamily:
    """Image of a located set under a map with a uniform-continuity modulus.

    The image carries nets only; :func:`affine_image` keeps an exact
    comparison for the affine maps that carry one.
    """
    space = target_space if target_space is not None else S.space
    return EpsilonNetFamily(
        space,
        lambda eps: [f(p) for p in S.net(m.omega(eps))],
        inhabited=S.inhabited,
        name=name or f"image({S.name})",
    )


def union_located(A: EpsilonNetFamily, B: EpsilonNetFamily) -> EpsilonNetFamily:
    """Finite unions preserve locatedness: concatenate the nets."""
    if A.space is not B.space:
        raise AmbientMismatch(f"union over different spaces {A.space.name}, {B.space.name}")
    both = A.inhabited and B.inhabited
    dv = None
    if both and A.distance_value is not None and B.distance_value is not None:
        va, vb = A.distance_value, B.distance_value
        dv = lambda x: min(va(x), vb(x))
    dc = None
    if both and A.distance_compare is not None and B.distance_compare is not None:
        ca, cb = A.distance_compare, B.distance_compare
        dc = lambda x, t: min(ca(x, t), cb(x, t))

    def net(eps):
        pts = []
        if A.inhabited:
            pts.extend(A.net(eps))
        if B.inhabited:
            pts.extend(B.net(eps))
        return pts

    return EpsilonNetFamily(
        A.space,
        net,
        inhabited=A.inhabited or B.inhabited,
        distance_compare=dc,
        distance_value=dv,
        name=f"{A.name}|{B.name}",
    )


def hausdorff_distance(A: EpsilonNetFamily, B: EpsilonNetFamily) -> DedekindReal:
    """Hausdorff distance between two inhabited sets, as a Dedekind real.

    When both sets have an exact distance oracle, each directed sweep takes
    the target's oracle over the source's net: d(., target) is 1-Lipschitz,
    so its maximum over a delta-net is within delta of its supremum over
    the source.  A target with ``distance_value`` gives that maximum
    exactly over the net at eps/2; one with ``distance_compare`` only is
    bisected to width eps/2 over the net at eps/4.

    Otherwise both nets are taken at delta = eps/6; net replacement moves
    the value by at most 2 delta.  Each directed max-min sweep runs over
    the target's ``net_index`` on exact squared distances, and one square
    root to eps/12 ends it; the pad is 2 delta plus the width of that root
    bracket, so an exact root (always on the line) pads by 2 delta only.
    In a space without an index both sweeps scan with ``dist_approx`` at
    eps/12.

    The computation is literally symmetric in A and B, so swapping the
    arguments returns identical intervals.
    """
    if not A.inhabited or not B.inhabited:
        raise EmptySetError("hausdorff distance needs inhabited sets")
    if A.space is not B.space:
        raise AmbientMismatch(f"hausdorff over different spaces {A.space.name}, {B.space.name}")
    space = A.space
    exact = A.distance_compare is not None and B.distance_compare is not None

    def refine_exact(eps: Fraction):
        lo = hi = Fraction(0)
        for source, target in ((A, B), (B, A)):
            delta = eps / 2 if target.distance_value is not None else eps / 4
            mlo, mhi = _exact_max_distance(target, source.net(delta), eps - 2 * delta)
            lo, hi = max(lo, mlo - delta), max(hi, mhi + delta)
        return (lo, hi)

    def refine(eps: Fraction):
        delta = eps / 6
        na, nb = A.net(delta), B.net(delta)
        ia, ib = A.net_index(delta), B.net_index(delta)
        if ia is not None and ib is not None:
            slo, shi = sqrt_bounds(max(ib.max_min_sq(na), ia.max_min_sq(nb)), eps / 12)
            h, pad = (slo + shi) / 2, 2 * delta + (shi - slo)
        else:
            eta = eps / 12
            h = max(max(_approx_min(space, a, nb, eta) for a in na),
                    max(_approx_min(space, b, na, eta) for b in nb))
            pad = 2 * delta + eta
        return (max(Fraction(0), h - pad), h + pad)

    return DedekindReal(refine_exact if exact else refine, name=f"H({A.name}, {B.name})")


# ---------------------------------------------------------------------------
# Exact distance oracles for the builtin sets.
# ---------------------------------------------------------------------------

_CANTOR_MEMO: dict[Fraction, Fraction] = {}


def cantor_distance(x) -> Fraction:
    """Exact distance from a rational to the middle-thirds set in [0, 1].

    Scaling by 3 maps the set onto two shifted copies of itself, so the
    distance satisfies d(x) = min(d(3x), d(3x - 2)) / 3 inside (0, 1).  The
    orbit of a rational under these maps is finite; a revisited state means
    a periodic digit expansion avoiding the middle digit, i.e. the state is
    itself a set point at distance zero.
    """
    x = Fraction(x)
    if x <= 0:
        return -x
    if x >= 1:
        return x - 1
    memo = _CANTOR_MEMO
    if x in memo:
        return memo[x]
    onpath: set = set()
    stack: list[list] = [[x, 0]]
    while stack:
        s, phase = stack[-1]
        if phase == 0:
            if s in memo:
                stack.pop()
                continue
            onpath.add(s)
            stack[-1][1] = 1
            for t in (3 * s, 3 * s - 2):
                if 0 < t < 1 and t not in memo and t not in onpath:
                    stack.append([t, 0])
        else:
            vals = []
            for t in (3 * s, 3 * s - 2):
                if t <= 0:
                    vals.append(-t)
                elif t >= 1:
                    vals.append(t - 1)
                elif t in memo:
                    vals.append(memo[t])
                else:
                    vals.append(Fraction(0))  # revisit: periodic expansion, in the set
            memo[s] = min(vals) / 3
            onpath.discard(s)
            stack.pop()
    return memo[x]


def _sign(d: Fraction, t: Fraction) -> int:
    return (d > t) - (d < t)


def _sq_sign(dsq: Fraction, t: Fraction) -> int:
    """Sign of sqrt(dsq) - t, decided on squares."""
    if t < 0:
        return 1
    return _sign(dsq, t * t)


# ---------------------------------------------------------------------------
# Builtin set constructors.
# ---------------------------------------------------------------------------


def interval_set(a, b, space: Optional[MetricSpace] = None) -> EpsilonNetFamily:
    """The closed interval [a, b] on the line."""
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise PreconditionFailed(f"empty interval [{a}, {b}]")
    space = space or LINE

    def net(eps):
        pts = []
        x = a
        while x < b:
            pts.append(x)
            x += eps
        pts.append(b)
        return pts

    def dist(x):
        return max(Fraction(0), a - x, x - b)

    return EpsilonNetFamily(space, net, distance_value=dist, name=f"[{a},{b}]")


def point_set(points, space: Optional[MetricSpace] = None) -> EpsilonNetFamily:
    """A finite set of rational points on the line."""
    pts = tuple(Fraction(p) for p in points)
    if not pts:
        raise PreconditionFailed("point set must be nonempty")
    space = space or LINE

    def dist(x):
        return min(abs(x - p) for p in pts)

    return EpsilonNetFamily(
        space, lambda eps: list(pts), distance_value=dist, name=f"points{list(pts)}"
    )


def plane_point_set(points) -> EpsilonNetFamily:
    """A finite set of rational points in the Euclidean plane."""
    pts = tuple((Fraction(x), Fraction(y)) for x, y in points)
    if not pts:
        raise PreconditionFailed("point set must be nonempty")

    def cmp(p, t):
        dsq = min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for q in pts)
        return _sq_sign(dsq, t)

    return EpsilonNetFamily(
        PLANE, lambda eps: list(pts), distance_compare=cmp, name="points2d"
    )


def cantor_set(space: Optional[MetricSpace] = None) -> EpsilonNetFamily:
    """The middle-thirds set, with level-k endpoint nets."""
    space = space or LINE

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

    return EpsilonNetFamily(space, net, distance_value=cantor_distance, name="cantor")


def disk_set(cx, cy, r) -> EpsilonNetFamily:
    """The closed Euclidean disk of radius r around (cx, cy)."""
    cx, cy, r = Fraction(cx), Fraction(cy), Fraction(r)
    if r <= 0:
        raise PreconditionFailed(f"disk radius must be positive, got {r}")
    rsq = r * r

    def net(eps):
        h = eps / 2
        pts = [(cx, cy)]
        steps = int(r / h) + 1
        for i in range(-steps, steps + 1):
            for j in range(-steps, steps + 1):
                x, y = cx + i * h, cy + j * h
                if (x - cx) ** 2 + (y - cy) ** 2 <= rsq and (x, y) != (cx, cy):
                    pts.append((x, y))
        return pts

    def cmp(p, t):
        dsq = (p[0] - cx) ** 2 + (p[1] - cy) ** 2
        if dsq <= rsq:
            return _sign(Fraction(0), t)
        # d = |p - c| - r: compare |p - c| with r + t.
        if t < 0:
            return 1
        return _sign(dsq, (r + t) ** 2)

    return EpsilonNetFamily(PLANE, net, distance_compare=cmp, name=f"disk({cx},{cy};{r})")


def segment_set(x1, y1, x2, y2) -> EpsilonNetFamily:
    """The closed straight segment between two rational plane points."""
    a = (Fraction(x1), Fraction(y1))
    b = (Fraction(x2), Fraction(y2))
    dx, dy = b[0] - a[0], b[1] - a[1]
    len_sq = dx * dx + dy * dy
    if len_sq == 0:
        return plane_point_set([a])
    len_ub = sqrt_bounds(len_sq, Fraction(1, 16))[1]

    def net(eps):
        n = int(len_ub / (eps / 2)) + 1
        return [
            (a[0] + dx * Fraction(k, n), a[1] + dy * Fraction(k, n)) for k in range(n + 1)
        ]

    def cmp(p, t):
        # Projection parameter clamped to [0, 1]; all arithmetic on squares.
        s = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / len_sq
        s = min(Fraction(1), max(Fraction(0), s))
        qx, qy = a[0] + s * dx, a[1] + s * dy
        dsq = (p[0] - qx) ** 2 + (p[1] - qy) ** 2
        return _sq_sign(dsq, t)

    return EpsilonNetFamily(PLANE, net, distance_compare=cmp, name="segment")


def box_set(x0, x1, y0, y1) -> EpsilonNetFamily:
    """The closed axis-aligned rectangle, e.g. an ambient for plane nets."""
    x0, x1, y0, y1 = Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1)
    if x0 > x1 or y0 > y1:
        raise PreconditionFailed("degenerate box")

    def net(eps):
        h = eps / 2
        xs, ys = [], []
        x = x0
        while x < x1:
            xs.append(x)
            x += h
        xs.append(x1)
        y = y0
        while y < y1:
            ys.append(y)
            y += h
        ys.append(y1)
        return [(x, y) for x in xs for y in ys]

    def cmp(p, t):
        ddx = max(Fraction(0), x0 - p[0], p[0] - x1)
        ddy = max(Fraction(0), y0 - p[1], p[1] - y1)
        return _sq_sign(ddx * ddx + ddy * ddy, t)

    return EpsilonNetFamily(PLANE, net, distance_compare=cmp, name="box")


def promote_to_plane(S: EpsilonNetFamily) -> EpsilonNetFamily:
    """Embed a line set onto the x-axis of the Euclidean plane.

    The planar distance to the embedded set splits into the 1-D distance
    and the height, so exactness is preserved when the source carries an
    exact distance value.
    """
    if S.space is PLANE:
        return S
    cmp = None
    if S.distance_value is not None:
        dv = S.distance_value

        def cmp(p, t):
            d1 = dv(p[0])
            return _sq_sign(d1 * d1 + p[1] * p[1], t)

    return EpsilonNetFamily(
        PLANE,
        lambda eps: [(x, Fraction(0)) for x in S.net(eps)],
        inhabited=S.inhabited,
        distance_compare=cmp,
        name=f"plane({S.name})",
    )


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

    The image keeps an exact distance comparison wherever the map carries
    the source's, so every query takes it as for a builtin set:

    * a line set with ``distance_value`` and a nonzero column u = (a, d),
      under any map: with w = p - (c, f) and x0 = (w.u) / |u|^2 the foot of
      p on the image line, d(p)^2 = |w|^2 - (w.u) x0 + |u|^2 dv(x0)^2, the
      squared height plus the squared distance along the line;
    * a plane set with ``distance_compare`` under a similarity of rational
      scale s: d(p, f(S)) = s d(f^-1(p), S), with f^-1(p) = A^T (p - t) / s^2.

    Other images (shears of plane sets, irrational scales, a zero column)
    carry nets only, built from the source net at eps / lip.
    """
    cmp = None
    if S.inhabited and isinstance(S.space, (RationalLine, LineSegment)):
        if S.distance_value is not None and (f.a or f.d):
            cmp = _line_image_compare(S.distance_value, f)
    elif S.inhabited and S.space is PLANE and S.distance_compare is not None:
        s = f.similarity_scale()
        if s is not None:
            cmp = _similar_image_compare(S.distance_compare, f, s)
    return EpsilonNetFamily(
        PLANE,
        lambda eps: [f(p) for p in S.net(eps / f.lip)],
        inhabited=S.inhabited,
        distance_compare=cmp,
        name=f"image({S.name})",
    )


def _line_image_compare(dv: Callable, f: AffineMap) -> Callable:
    ux, uy = f.a, f.d
    ssq = ux * ux + uy * uy

    def cmp(p, t):
        wx, wy = p[0] - f.c, p[1] - f.f
        wu = wx * ux + wy * uy
        x0 = wu / ssq
        d1 = dv(x0)
        return _sq_sign(wx * wx + wy * wy - wu * x0 + ssq * d1 * d1, t)

    return cmp


def _similar_image_compare(src_cmp: Callable, f: AffineMap, s: Fraction) -> Callable:
    ssq = s * s

    def cmp(p, t):
        wx, wy = p[0] - f.c, p[1] - f.f
        q = ((f.a * wx + f.d * wy) / ssq, (f.b * wx + f.e * wy) / ssq)
        return src_cmp(q, t / s)

    return cmp


# ---------------------------------------------------------------------------
# Deriving a dichotomy from overtness data over the interval lattice.
# ---------------------------------------------------------------------------


def ball_region(ball: FormalBall, ambient: tuple) -> IntervalElement:
    """The open interval of a line ball, clipped to the lattice ambient."""
    x, r = ball.center, ball.radius
    return IntervalElement.make(ambient, [(x - r, x + r)])


def located_from_overt(
    pos_elem: Callable[[IntervalElement], bool],
    ambient: tuple,
    space: Optional[MetricSpace] = None,
    extractor: Optional[Callable] = None,
    name: str = "overt",
) -> LocatedPredicate:
    """Dichotomy from a positivity oracle plus a finite-cover extractor.

    For a strictly refining pair the gap complement of the inner region
    joins with the outer region to the whole ambient; the extractor keeps
    the positive members of that two-element cover, and the answer follows
    the outer region's membership in the kept subcover.
    """
    space = space or LINE
    if extractor is None:
        extractor = lambda family: [e for e in family if pos_elem(e)]

    def decide(inner: FormalBall, outer: FormalBall) -> Decision:
        v = ball_region(outer, ambient)
        w = gap_complement(ball_region(inner, ambient))
        kept = list(extractor([v, w]))
        if any(e is v or e == v for e in kept):
            return Decision.POS_OUTER
        return Decision.NOT_POS_INNER

    return LocatedPredicate(space, decide, name=name)


def meets_oracle(S: EpsilonNetFamily, ambient: tuple) -> Callable[[IntervalElement], bool]:
    """Positivity on interval elements: does the set meet the open element?

    Meeting an open interval is a strict distance comparison against its
    midpoint, which the builtin sets decide exactly.
    """
    if S.distance_compare is None:
        raise PreconditionFailed(f"{S.name} has no exact distance comparison")
    cmp = S.distance_compare

    def pos(e: IntervalElement) -> bool:
        return any(cmp((p + q) / 2, (q - p) / 2) < 0 for p, q in e.parts)

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

    open_family: tuple
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


def tvd_check(
    P: LocatedPredicate,
    Z: Sequence[FormalBall],
    depth: int,
    budget: int,
    samples: Optional[Sequence[FormalBall]] = None,
) -> TvdReport:
    """Check both directions of the located-sublocale containment statement.

    Only axiom families known to be semantically complete covers are used
    (uniform families over a grid fine enough for their radius), so a found
    derivation is true of the space itself, never an artifact of the
    truncation; the shrink families are excluded for the same reason.
    """
    if P.pos_exact is None:
        raise PreconditionFailed("tvd_check needs an exactly decidable predicate")
    Z = tuple(Z)
    base = completion_base(P.space, budget)

    def axiom_filter(name, u, family):
        if name not in ("m2", "m2loc"):
            return False
        margin = family[0].radius
        k = margin.denominator.bit_length() - 1
        return base.m2_complete(k)

    notpos = SetPredicate(
        "notpos", lambda ball: ball is not TOP and not P.pos_exact(ball)
    )
    target = EltSet(listed=Z, predicates=(notpos,))
    cover = derive_cover(base, TOP, target, depth, budget=budget, axiom_filter=axiom_filter)

    pos_pred = SetPredicate("pos", lambda ball: ball is TOP or P.pos_exact(ball))
    subl = PosClosedSub(pos_pred)
    if samples is None:
        sampled = [TOP] + [
            FormalBall(c, Fraction(1, 4)) for c in base.points[: min(6, len(base.points))]
        ]
    else:
        sampled = list(samples)
    results = []
    for u in sampled:
        d = sublocale_cover(base, subl, u, EltSet(listed=Z), depth, budget=budget,
                            axiom_filter=axiom_filter)
        results.append((u, d))
    return TvdReport(Z, cover, tuple(results))
