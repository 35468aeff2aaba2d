"""Formal balls over rational metric spaces and their cover base.

A metric space here is a set of rational-coordinate points whose squared
distance ``dist_sq(x, y)`` is an exact rational.  The rational line, its
segments and the plane under the max metric and the Euclidean metric are
all of this kind, so "is d(x, y) below t?" is decided exactly by
``compare_distance``: on squares in the plane, and on the two line spaces
in integers, by one cross-multiplication of numerators and denominators.
A distance value itself, which may be irrational, is only ever bracketed
(``distance_below``).

Formal balls are pairs (center, positive radius).  The strict refinement
``ball_lt`` decides d(x, y) < s - r and the non-strict ``ball_leq``
decides d(x, y) <= s - r, both with one exact comparison.

``completion_base`` packages a space as a kernel base whose declared axioms
are the shrink families (every ball is covered by balls strictly inside it;
truncated to listed centers and dyadic shrink margins) and the uniform-size
families (the whole space is covered by balls of size 2**-k).  Truncations
are honest: a family is only as good as its declaration, and judgments
derived from them live in the truncated presentation.  Segment spaces know
when a uniform family is a genuinely complete cover (``m2_complete``), and
``CompleteUniformBase`` offers only those families, for consumers needing
semantic ground truth.  A ball base holds at most ``MAX_BALL_POINTS``
points; on the line spaces it keeps them sorted, as integers over their
common denominator, and finds the points near a ball by two bisections.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from overt.errors import PreconditionFailed
from overt.kernel import TOP, Base
from overt.rationals import Cursor, format_rational
from overt.reals import sqrt_bounds

# A ball base lists at most this many points; a larger point budget is
# refused before any point is built.
MAX_BALL_POINTS = 1024

# The axiom families of a ball base use dyadic sizes 2**-k for k from 1 to
# at most this.
_MAX_SHRINK = 6


@dataclass(frozen=True)
class FormalBall:
    center: object
    radius: Fraction

    def __post_init__(self):
        if self.radius <= 0:
            raise PreconditionFailed(f"ball radius must be positive, got {self.radius}")

    def __hash__(self):
        # A search hashes a ball at every record lookup; hash its Fractions
        # once.
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.center, self.radius)))
            return self._hash


def format_ball(b: FormalBall) -> str:
    if isinstance(b.center, tuple):
        coords = ",".join(format_rational(c) for c in b.center)
    else:
        coords = format_rational(b.center)
    return f"B({format_rational(b.radius)}; {coords})"


def read_ball(cur: Cursor) -> FormalBall:
    """``B(r; x)`` or ``B(r; x, y)`` at the cursor; a radius r <= 0 is
    reported at its first byte."""
    cur.expect("B(")
    at = cur.skip()
    radius = cur.rational()
    if radius <= 0:
        raise cur.error(f"ball radius must be positive, got {format_rational(radius)}", at)
    cur.expect(";")
    coords = cur.rational_list(most=2)
    cur.expect(")")
    return FormalBall(coords[0] if len(coords) == 1 else tuple(coords), radius)


def parse_ball(text: str) -> FormalBall:
    """A whole text holding one ball; errors carry the byte offset in text."""
    return Cursor(text).parse(read_ball)


# ---------------------------------------------------------------------------
# Metric spaces.
# ---------------------------------------------------------------------------


class MetricSpace:
    name = "space"

    def enumerate_points(self, count: int) -> list:
        raise NotImplementedError

    def dist_sq(self, x, y) -> Fraction:
        """The squared distance d(x, y)**2, exactly."""
        raise NotImplementedError

    def compare_distance(self, x, y, threshold: Fraction) -> int:
        """Sign of d(x, y) - threshold: -1, 0 or +1, compared on squares."""
        t = Fraction(threshold)
        if t < 0:
            return 1
        dsq, tsq = self.dist_sq(x, y), t * t
        return (dsq > tsq) - (dsq < tsq)

    def is_grid_complete(self, k: int, point_budget: int) -> bool:
        """Whether the first point_budget points contain a grid so fine that
        balls of radius 2**-k around them cover the whole space."""
        return False

    def ball_covers_space(self, ball: "FormalBall") -> bool:
        """Whether the open ball certifiably contains the whole space."""
        return False


class _Line(MetricSpace):
    """A set of rationals with |x - y|: the line and its segments."""

    def dist_sq(self, x, y):
        d = Fraction(x) - Fraction(y)
        return d * d

    def compare_distance(self, x, y, threshold: Fraction) -> int:
        """Sign of |x - y| - t, in integers: |xn yd - yn xd| td against
        tn xd yd.  A negative t is below every distance."""
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        d = abs(xn * yd - yn * xd) * threshold.denominator
        t = threshold.numerator * xd * yd
        return (d > t) - (d < t)


class RationalLine(_Line):
    """All of the rationals with |x - y|, enumerated by dyadic zigzag."""

    name = "q"

    def enumerate_points(self, count: int) -> list:
        """The points num/2**s with |num| <= (s+1)*2**s, stage s = 0, 1, ...,
        each in the first stage that has it, in increasing order within a
        stage: at a stage s >= 1 those whose num is odd or exceeds s*2**s in
        size (the rest came at stage s - 1).  At least one point."""

        def points():
            yield from (Fraction(-1), Fraction(0), Fraction(1))
            for stage in itertools.count(1):
                den = 2**stage
                bound, old = (stage + 1) * den, stage * den
                for num in range(-bound, bound + 1):
                    if num & 1 or abs(num) > old:
                        yield Fraction(num, den)

        return list(itertools.islice(points(), max(1, count)))


class LineSegment(_Line):
    """The rationals of a closed segment, enumerated by dyadic grid levels."""

    name = "segment"

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        if self.lo >= self.hi:
            raise PreconditionFailed(f"degenerate segment [{lo}, {hi}]")

    def enumerate_points(self, count: int) -> list:
        """Both ends, then at each level l = 1, 2, ... the points at the odd
        multiples of span/2**l from the low end, in increasing order.  At
        least one point."""
        # lo + i*span/2**l = (a*t*2**l + i*s*b) / (b*t*2**l) for lo = a/b and
        # span = s/t.
        span = self.hi - self.lo
        a, b = self.lo.numerator, self.lo.denominator
        s, t = span.numerator, span.denominator

        def points():
            yield from (self.lo, self.hi)
            for level in itertools.count(1):
                start, den = a * t << level, b * t << level
                for i in range(1, 2**level, 2):
                    yield Fraction(start + i * s * b, den)

        return list(itertools.islice(points(), max(1, count)))

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

    def dist_sq(self, x, y):
        d = max(abs(x[0] - y[0]), abs(x[1] - y[1]))
        return d * d


class PlaneEuclid(MetricSpace):
    """The rational plane with the Euclidean metric.

    Distances are irrational in general, but squared distances are
    rational, so comparisons against rational thresholds are exact.
    """

    name = "q2"

    def enumerate_points(self, count: int) -> list:
        return _pair_enumeration(count)

    def dist_sq(self, x, y):
        dx, dy = x[0] - y[0], x[1] - y[1]
        return dx * dx + dy * dy


# ---------------------------------------------------------------------------
# Ball order.
# ---------------------------------------------------------------------------


def ball_lt(space: MetricSpace, a: FormalBall, b: FormalBall) -> bool:
    """Strict refinement: d(centers) < radius(b) - radius(a).  Concentric
    balls refine iff the margin is positive, without a distance query."""
    margin = b.radius - a.radius
    if margin <= 0:
        return False
    if a.center == b.center:
        return True
    return space.compare_distance(a.center, b.center, margin) < 0


def ball_leq(space: MetricSpace, a: FormalBall, b: FormalBall) -> bool:
    """Non-strict refinement: d(centers) <= radius(b) - radius(a)."""
    margin = b.radius - a.radius
    if margin < 0:
        return False
    return space.compare_distance(a.center, b.center, margin) <= 0


def distance_below(space: MetricSpace, x, y, bound: Fraction) -> Fraction:
    """A rational upper bound on d(x, y) that is less than ``bound``, given
    d(x, y) < bound: the upper end of ``sqrt_bounds`` of the squared
    distance at width bound/8, then a quarter of that, and so on.  It is
    d(x, y) itself when that is rational."""
    dsq = space.dist_sq(x, y)
    eps = bound / 8
    while True:
        _, hi = sqrt_bounds(dsq, eps)
        if hi < bound:
            return hi
        eps /= 4


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

    The balls of radius 2**-k around the listed points are built once per
    k, on first use, and every ``m2`` and ``m2loc`` family of that k is
    drawn from them.  The base keeps them for its own life: at most
    ``_MAX_SHRINK`` tuples of at most ``MAX_BALL_POINTS`` balls.
    """

    def __init__(self, space: MetricSpace, point_budget: int):
        if point_budget > MAX_BALL_POINTS:
            raise PreconditionFailed(
                f"a ball base of {point_budget} points exceeds the cap of {MAX_BALL_POINTS}"
            )
        self.space = space
        self.point_budget = point_budget
        self.points = space.enumerate_points(point_budget)
        self._point_set = set(self.points)
        self.name = f"loc({space.name})"
        # On the builtin lines the points within r of c are an open range of
        # the sorted points, kept as integers over their common denominator;
        # other spaces are scanned with compare_distance.
        self._line = None
        if type(space) in (RationalLine, LineSegment):
            den = math.lcm(*(y.denominator for y in self.points))
            ints = [y.numerator * (den // y.denominator) for y in self.points]
            order = sorted(range(len(ints)), key=ints.__getitem__)
            self._line = (den, [ints[i] for i in order], order)
        self._uniform: dict = {}  # k -> the balls of radius 2**-k, in listed order

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
        """The indexes of the listed points y with d(y, c) < r certified, in
        listed order."""
        if self._line is None:
            cmp = self.space.compare_distance
            return [i for i, y in enumerate(self.points) if cmp(y, c, r) < 0]
        # With keys y*D: c - r < y iff key > floor((c - r) D), and y < c + r
        # iff key < ceil((c + r) D).
        den, keys, order = self._line
        cn, cd, rn, rd = c.numerator, c.denominator, r.numerator, r.denominator
        lo, hi, q = (cn * rd - rn * cd) * den, (cn * rd + rn * cd) * den, cd * rd
        return sorted(order[bisect_right(keys, lo // q) : bisect_left(keys, -(-hi // q))])

    def _shrink_family(self, u: FormalBall, k: int) -> tuple:
        margin = Fraction(1, 2**k)
        if margin >= u.radius:
            return ()
        radius = u.radius - margin
        points = self.points
        return tuple(FormalBall(points[i], radius) for i in self._near(u.center, margin))

    def _uniform_family(self, u: Optional[FormalBall], k: int) -> tuple:
        """The balls of radius 2**-k around the listed points, or around
        those near u, in listed order, taken from one tuple per k that is
        built on first use."""
        radius = Fraction(1, 2**k)
        balls = self._uniform.get(k)
        if balls is None:
            balls = self._uniform[k] = tuple(FormalBall(y, radius) for y in self.points)
        if u is None:
            return balls
        return tuple(balls[i] for i in self._near(u.center, u.radius + radius))

    def axiom_instances(self, u, budget: int) -> list[tuple[str, tuple]]:
        out = []
        kmax = min(max(1, budget), _MAX_SHRINK)
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
                r = u.radius + Fraction(1, 2**k)
                cmp = self.space.compare_distance
                return all(cmp(f.center, u.center, r) < 0 for f in family)
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

    def read_element(self, cur: Cursor):
        """``top`` or a ball with as many coordinates as the listed points;
        a ball of the other dimension is a parse error at its ``B``."""
        if cur.match("top"):
            return TOP
        at = cur.skip()
        ball = read_ball(cur)
        plane = isinstance(self.points[0], tuple)
        if isinstance(ball.center, tuple) != plane:
            coords = "two coordinates" if plane else "one coordinate"
            raise cur.error(f"a ball of {self.name} has {coords}", at)
        return ball


class CompleteUniformBase(BallBase):
    """The ball base restricted to the uniform families that are complete
    covers of the space itself (``m2_complete``): ``m2`` for the top and
    ``m2loc`` for a ball, in order of k.  A derivation from these families
    is true of the space, never an artifact of the truncation."""

    def __init__(self, space: MetricSpace, point_budget: int):
        super().__init__(space, point_budget)
        self._complete = [k for k in range(1, _MAX_SHRINK + 1) if self.m2_complete(k)]

    def axiom_instances(self, u, budget: int) -> list[tuple[str, tuple]]:
        axiom, ball = ("m2", None) if u is TOP else ("m2loc", u)
        out = []
        for k in self._complete:
            fam = self._uniform_family(ball, k) if k <= max(1, budget) else ()
            if fam:
                out.append((axiom, fam))
        return out


def completion_base(space: MetricSpace, point_budget: int) -> BallBase:
    """The kernel base of the localic completion of the space."""
    return BallBase(space, point_budget)
