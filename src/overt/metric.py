"""Formal balls over rational metric spaces and their cover base.

A metric space here is a set of rational-coordinate points with a distance
oracle ``dist_approx(x, y, eps)`` accurate to eps.  The builtin spaces are
exact wherever possible: the rational line and the max-metric plane compare
distances exactly, the Euclidean plane compares *squared* distances exactly
and only approximates the distance value itself (via integer square roots).

Formal balls are pairs (center, positive radius).  The strict refinement
``ball_lt`` asks d(x, y) < s - r and is decided with an exact gap whenever
the space supports it; a space with only an approximate oracle is refined
down to a precision floor of 2**-64, below which a strict comparison raises
:class:`UndecidableComparison` rather than guess.  The non-strict
``ball_leq`` decides d(x, y) <= s - r, with boundary ties resolved to True
when every tested precision is consistent with equality.

``completion_base`` packages a space as a kernel base whose declared axioms
are the shrink families (every ball is covered by balls strictly inside it;
truncated to listed centers and dyadic shrink margins) and the uniform-size
families (the whole space is covered by balls of size 2**-k).  Truncations
are honest: a family is only as good as its declaration, and judgments
derived from them live in the truncated presentation.  Segment spaces know
when a uniform family is a genuinely complete cover (``m2_complete``),
which consumers needing semantic ground truth use as a filter.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from overt import kernel
from overt.errors import ParseError, PreconditionFailed, UndecidableComparison
from overt.kernel import TOP, Base
from overt.rationals import format_rational, parse_rational, parse_rational_list
from overt.reals import sqrt_bounds

PRECISION_FLOOR = Fraction(1, 2**64)


@dataclass(frozen=True)
class FormalBall:
    center: object
    radius: Fraction

    def __post_init__(self):
        if self.radius <= 0:
            raise PreconditionFailed(f"ball radius must be positive, got {self.radius}")


def format_ball(b: FormalBall) -> str:
    if isinstance(b.center, tuple):
        coords = ",".join(format_rational(c) for c in b.center)
    else:
        coords = format_rational(b.center)
    return f"B({format_rational(b.radius)}; {coords})"


def parse_ball(text: str) -> FormalBall:
    """``B(r; x)`` or ``B(r; x, y)``; errors carry the byte offset in text."""
    s = text.strip()
    at = len(text) - len(text.lstrip())
    if not (s.startswith("B(") and s.endswith(")")):
        raise ParseError(f"expected B(r; center), got {text!r}", at)
    body = s[2:-1]
    if ";" not in body:
        raise ParseError("missing ';' in ball", at + 2 + len(body))
    rad_txt, center_txt = body.split(";", 1)
    radius = parse_rational(rad_txt, at + 2)
    coords = parse_rational_list(center_txt, at + 3 + len(rad_txt), most=2)
    if len(coords) == 1:
        return FormalBall(coords[0], radius)
    return FormalBall((coords[0], coords[1]), radius)


# ---------------------------------------------------------------------------
# Metric spaces.
# ---------------------------------------------------------------------------


class MetricSpace:
    name = "space"

    def enumerate_points(self, count: int) -> list:
        raise NotImplementedError

    def dist_approx(self, x, y, eps: Fraction) -> Fraction:
        raise NotImplementedError

    def dist_exact(self, x, y) -> Optional[Fraction]:
        """Exact distance when representable, else None."""
        return None

    def dist_sq_exact(self, x, y) -> Optional[Fraction]:
        """Exact squared distance when representable, else None."""
        d = self.dist_exact(x, y)
        return None if d is None else d * d

    def compare_distance(self, x, y, threshold: Fraction) -> Optional[int]:
        """Sign of d(x, y) - threshold: -1, 0, +1, or None at the floor."""
        t = Fraction(threshold)
        d = self.dist_exact(x, y)
        if d is not None:
            return (d > t) - (d < t)
        dsq = self.dist_sq_exact(x, y)
        if dsq is not None:
            if t < 0:
                return 1
            tsq = t * t
            return (dsq > tsq) - (dsq < tsq)
        if t < 0:
            return 1
        eps = max(abs(t), Fraction(1)) / 4
        while eps >= PRECISION_FLOOR:
            q = self.dist_approx(x, y, eps)
            if q + eps < t:
                return -1
            if q - eps > t:
                return 1
            eps /= 4
        return None

    def is_grid_complete(self, k: int, point_budget: int) -> bool:
        """Whether the first point_budget points contain a grid so fine that
        balls of radius 2**-k around them cover the whole space."""
        return False

    def ball_covers_space(self, ball: "FormalBall") -> bool:
        """Whether the open ball certifiably contains the whole space."""
        return False


class RationalLine(MetricSpace):
    """All of the rationals with |x - y|, enumerated by dyadic zigzag."""

    name = "q"

    def enumerate_points(self, count: int) -> list:
        out = []
        seen = set()
        for stage in itertools.count():
            den = 2**stage
            bound = (stage + 1) * den
            for num in range(-bound, bound + 1):
                q = Fraction(num, den)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
                    if len(out) >= count:
                        return out
        return out

    def dist_exact(self, x, y):
        return abs(Fraction(x) - Fraction(y))

    def dist_approx(self, x, y, eps):
        return self.dist_exact(x, y)


class LineSegment(MetricSpace):
    """The rationals of a closed segment, enumerated by dyadic grid levels."""

    name = "segment"

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        if self.lo >= self.hi:
            raise PreconditionFailed(f"degenerate segment [{lo}, {hi}]")

    def enumerate_points(self, count: int) -> list:
        out = []
        seen = set()
        for level in itertools.count():
            den = 2**level
            for i in range(den + 1):
                q = self.lo + (self.hi - self.lo) * Fraction(i, den)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
                    if len(out) >= count:
                        return out
        return out

    def grid_level_count(self, level: int) -> int:
        return 2**level + 1

    def is_grid_complete(self, k: int, point_budget: int) -> bool:
        span = self.hi - self.lo
        level = 0
        while span / 2**level > Fraction(1, 2**k):
            level += 1
            if self.grid_level_count(level) > point_budget:
                return False
        return self.grid_level_count(level) <= point_budget

    def ball_covers_space(self, ball: FormalBall) -> bool:
        return (
            abs(ball.center - self.lo) < ball.radius
            and abs(ball.center - self.hi) < ball.radius
        )

    def dist_exact(self, x, y):
        return abs(Fraction(x) - Fraction(y))

    def dist_approx(self, x, y, eps):
        return self.dist_exact(x, y)


def _pair_enumeration(count: int) -> list:
    line = RationalLine()
    n = 1
    while n * n < count:
        n += 1
    coords = line.enumerate_points(n)
    pts = [(a, b) for a, b in itertools.product(coords, coords)]
    return pts[:count]


class PlaneMax(MetricSpace):
    """The rational plane with the max metric (exact distances)."""

    name = "q2linf"

    def enumerate_points(self, count: int) -> list:
        return _pair_enumeration(count)

    def dist_exact(self, x, y):
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    def dist_approx(self, x, y, eps):
        return self.dist_exact(x, y)


class PlaneEuclid(MetricSpace):
    """The rational plane with the Euclidean metric.

    Distances are irrational in general; squared distances are exact, so
    comparisons against rational thresholds are still exact.
    """

    name = "q2"

    def enumerate_points(self, count: int) -> list:
        return _pair_enumeration(count)

    def dist_exact(self, x, y):
        return None

    def dist_sq_exact(self, x, y):
        dx, dy = x[0] - y[0], x[1] - y[1]
        return dx * dx + dy * dy

    def dist_approx(self, x, y, eps):
        lo, hi = sqrt_bounds(self.dist_sq_exact(x, y), eps)
        return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Ball order.
# ---------------------------------------------------------------------------


def ball_lt(space: MetricSpace, a: FormalBall, b: FormalBall) -> bool:
    """Strict refinement: d(centers) < radius(b) - radius(a)."""
    margin = b.radius - a.radius
    if margin <= 0:
        return False
    cmp = space.compare_distance(a.center, b.center, margin)
    if cmp is None:
        raise UndecidableComparison(
            f"d{a.center, b.center} vs {margin} undecided at the precision floor"
        )
    return cmp < 0


def ball_leq(space: MetricSpace, a: FormalBall, b: FormalBall) -> bool:
    """Non-strict refinement: d(centers) <= radius(b) - radius(a).

    With only an approximate oracle, a query that stays consistent with
    equality at every precision down to the floor is answered True.
    """
    margin = b.radius - a.radius
    if margin < 0:
        return False
    cmp = space.compare_distance(a.center, b.center, margin)
    if cmp is None:
        return True
    return cmp <= 0


def refine_between(space: MetricSpace, a: FormalBall, b: FormalBall) -> FormalBall:
    """A ball c with a < c < b, centered like b with the midpoint margin."""
    if not ball_lt(space, a, b):
        raise PreconditionFailed("refine_between needs ball_lt(a, b)")
    gap = b.radius - a.radius
    d = space.dist_exact(a.center, b.center)
    if d is None:
        eps = gap / 8
        while True:
            q = space.dist_approx(a.center, b.center, eps)
            slack = gap - (q + eps)
            if slack > 0:
                break
            eps /= 4
            if eps < PRECISION_FLOOR:
                raise UndecidableComparison("no certified margin for interpolation")
    else:
        slack = gap - d
    return FormalBall(b.center, b.radius - slack / 2)


# ---------------------------------------------------------------------------
# Finite Cauchy-filter stages.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchyFilterStage:
    """Finite strictly-refining chain of balls, coarsest first."""

    chain: tuple[FormalBall, ...]

    @property
    def last(self) -> FormalBall:
        return self.chain[-1]


def make_stage(space: MetricSpace, balls: Sequence[FormalBall]) -> CauchyFilterStage:
    balls = tuple(balls)
    if not balls:
        raise PreconditionFailed("a filter stage needs at least one ball")
    for a, b in zip(balls[1:], balls):
        if not ball_lt(space, a, b):
            raise PreconditionFailed("stage chain must strictly refine")
    return CauchyFilterStage(balls)


def filter_stage_refine(
    space: MetricSpace,
    stage: CauchyFilterStage,
    target_precision: Fraction,
    chooser: Callable[[FormalBall, Fraction], object],
) -> CauchyFilterStage:
    """Extend the chain until its last radius is at most the target.

    The chooser proposes, for a ball and a tolerance, a point within that
    tolerance of the ball's center; the proposal is certified with the
    distance oracle and rejected if uncertifiable.
    """
    target = Fraction(target_precision)
    if target <= 0:
        raise PreconditionFailed("target precision must be positive")
    chain = list(stage.chain)
    while chain[-1].radius > target:
        cur = chain[-1]
        new_radius = max(cur.radius / 2, target)
        tol = min(new_radius, cur.radius - new_radius) / 4
        y = chooser(cur, tol)
        cmp = space.compare_distance(cur.center, y, tol)
        if cmp is None or cmp > 0:
            raise PreconditionFailed("chooser returned an uncertifiable point")
        nxt = FormalBall(y, new_radius)
        if not ball_lt(space, nxt, cur):
            raise PreconditionFailed("chooser point does not refine the stage")
        chain.append(nxt)
    return CauchyFilterStage(tuple(chain))


def center_chooser(ball: FormalBall, tol: Fraction):
    """The trivial chooser: reuse the ball's own center."""
    return ball.center


# ---------------------------------------------------------------------------
# The cover base of the localic completion.
# ---------------------------------------------------------------------------


def _dyadic_exponent(q: Fraction) -> Optional[int]:
    if q <= 0 or q.numerator != 1:
        return None
    den = q.denominator
    k = den.bit_length() - 1
    return k if (1 << k) == den else None


class BallBase(Base):
    """Kernel base for a localic completion, truncated to a point budget.

    Axioms:

    ``m1``    -- a ball is covered by the listed balls shrunk by a dyadic
                 margin that strictly refine it;
    ``m2``    -- the synthetic top is covered by the dyadic-size balls
                 around the listed points;
    ``m2loc`` -- a ball is covered by the dyadic-size balls around listed
                 points near it (the localized form of ``m2``).
    """

    def __init__(self, space: MetricSpace, point_budget: int, max_shrink: int = 6):
        self.space = space
        self.point_budget = point_budget
        self.max_shrink = max_shrink
        self.points = space.enumerate_points(point_budget)
        self._point_set = set(self.points)
        self.name = f"loc({space.name})"
        # On the builtin lines the points within r of c are an open range of
        # the sorted points; other spaces are scanned with compare_distance.
        self._line = None
        if type(space) in (RationalLine, LineSegment):
            order = sorted(range(len(self.points)), key=self.points.__getitem__)
            self._line = ([self.points[i] for i in order], order)

    def top(self):
        return TOP

    def leq(self, u, v) -> bool:
        if v is TOP:
            return True
        if u is TOP:
            return self.space.ball_covers_space(v)
        return ball_leq(self.space, u, v)

    def m2_complete(self, k: int) -> bool:
        return self.space.is_grid_complete(k, self.point_budget)

    def _near(self, c, r: Fraction) -> list:
        """The listed points y with d(y, c) < r certified, in listed order."""
        if self._line is None:
            out = []
            for y in self.points:
                cmp = self.space.compare_distance(y, c, r)
                if cmp is not None and cmp < 0:
                    out.append(y)
            return out
        keys, order = self._line
        found = order[bisect_right(keys, c - r) : bisect_left(keys, c + r)]
        return [self.points[i] for i in sorted(found)]

    def _shrink_family(self, u: FormalBall, k: int) -> tuple:
        margin = Fraction(1, 2**k)
        if margin >= u.radius:
            return ()
        radius = u.radius - margin
        return tuple(FormalBall(y, radius) for y in self._near(u.center, margin))

    def _uniform_family(self, u: Optional[FormalBall], k: int) -> tuple:
        radius = Fraction(1, 2**k)
        near = self.points if u is None else self._near(u.center, u.radius + radius)
        return tuple(FormalBall(y, radius) for y in near)

    def axiom_instances(self, u, budget: int) -> list[tuple[str, tuple]]:
        out = []
        kmax = min(max(1, budget), self.max_shrink)
        if u is TOP:
            for k in range(1, kmax + 1):
                fam = self._uniform_family(None, k)
                if fam:
                    out.append(("m2", fam))
            return out
        for k in range(1, kmax + 1):
            fam = self._shrink_family(u, k)
            if fam:
                out.append(("m1", fam))
        for k in range(1, kmax + 1):
            fam = self._uniform_family(u, k)
            if fam:
                out.append(("m2loc", fam))
        return out

    def axiom_valid(self, axiom: str, u, family: tuple) -> bool:
        if not family:
            return False
        if axiom == "m1":
            if u is TOP or any(f is TOP for f in family):
                return False
            radii = {f.radius for f in family}
            if len(radii) != 1:
                return False
            k = _dyadic_exponent(u.radius - radii.pop())
            if k is None or k < 1:
                return False
            return all(ball_lt(self.space, f, u) for f in family)
        if axiom in ("m2", "m2loc"):
            if axiom == "m2" and u is not TOP:
                return False
            if axiom == "m2loc" and u is TOP:
                return False
            radii = {f.radius for f in family}
            if len(radii) != 1:
                return False
            k = _dyadic_exponent(radii.pop())
            if k is None or k < 1:
                return False
            if any(f.center not in self._point_set for f in family):
                return False
            if axiom == "m2loc":
                r = Fraction(1, 2**k)
                for f in family:
                    cmp = self.space.compare_distance(f.center, u.center, u.radius + r)
                    if cmp is None or cmp >= 0:
                        return False
            return True
        return False

    def sample_elements(self, rng: random.Random, count: int) -> list:
        out = []
        for _ in range(count):
            center = self.points[rng.randrange(len(self.points))]
            radius = Fraction(rng.randint(1, 16), 8)
            out.append(FormalBall(center, radius))
        return out

    def format_element(self, u) -> str:
        if u is TOP:
            return "top"
        return format_ball(u)

    def parse_element(self, text: str):
        s = text.strip()
        if s == "top":
            return TOP
        return parse_ball(s)


def completion_base(space: MetricSpace, point_budget: int, max_shrink: int = 6) -> BallBase:
    """The kernel base of the localic completion of the space."""
    return BallBase(space, point_budget, max_shrink)


def always_positive() -> kernel.SetPredicate:
    """The completion of a metric space is overt: everything is positive."""
    return kernel.SetPredicate("always", lambda u: True)
