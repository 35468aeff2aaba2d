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

``completion_base`` packages a space as a kernel base, truncated to a
point budget, whose axioms are the uniform families: the balls of radius
2**-k around the listed points, for the whole space (``m2``) or near a ball
(``m2loc``).  A family is an axiom only where it covers its element at
every point of the space, so every derivation holds at the points of the
completion; where the listed points are too sparse there is no axiom, and
the judgment stays Unknown.  A ball base holds at most ``MAX_BALL_POINTS``
points; on the line spaces it keeps them sorted, as integers over their
common denominator, and finds and judges the points near a ball by two
bisections.
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

# The axiom families of a ball base have radius 2**-k for k from 1 to at
# most this.
_MAX_LEVEL = 6


@dataclass(frozen=True)
class FormalBall:
    center: object
    radius: Fraction

    def __post_init__(self):
        if self.radius.numerator <= 0:
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

    def extent(self, u) -> Optional[tuple]:
        """The closed (lo, hi) range of each coordinate of the element u
        that a family covering it must span: c - r to c + r for a ball
        B(r; c).  None for the top, which no finite family covers."""
        if u is TOP:
            return None
        coords = u.center if isinstance(u.center, tuple) else (u.center,)
        return tuple((x - u.radius, x + u.radius) for x in coords)

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

    def extent(self, u) -> tuple:
        """The segment for the top, and a ball's range clipped to it."""
        if u is TOP:
            return ((self.lo, self.hi),)
        return ((max(u.center - u.radius, self.lo), min(u.center + u.radius, self.hi)),)

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


def _covers(space: MetricSpace, u, family: tuple) -> bool:
    """Whether the balls of the family, all of one radius rho, cover the
    element u at every point of the space: on each axis of u's extent the
    centres' coordinates reach both ends with no gap wider than rho, and in
    the plane every point of their product grid within r + rho of the
    centre c of u is a centre."""
    box = space.extent(u)
    if box is None:
        return False
    rho = family[0].radius
    centers = [f.center if isinstance(f.center, tuple) else (f.center,) for f in family]
    axes = []
    for axis, (lo, hi) in enumerate(box):
        xs = sorted({p[axis] for p in centers})
        if xs[0] > lo or xs[-1] < hi or any(y - x > rho for x, y in zip(xs, xs[1:])):
            return False
        axes.append(xs)
    if len(axes) == 1:
        return True
    held, cmp, reach = set(centers), space.compare_distance, u.radius + rho
    return all(p in held for p in itertools.product(*axes) if cmp(p, u.center, reach) < 0)


class BallBase(Base):
    """Kernel base for a localic completion, truncated to a point budget.

    Axioms, each a family of the balls of radius rho = 2**-k around listed
    points:

    ``m2``    -- the top is covered by the balls around every listed point;
    ``m2loc`` -- a ball B(r; c) is covered by the balls around the listed
                 points within r + rho of c (the localized form of ``m2``).

    Either is an axiom only when it covers its element at every point of
    the space (``_covers``): the family's centres, read as coordinates,
    reach both ends of the element's extent with no gap wider than rho,
    and in the plane every corner of that grid within r + rho of c is a
    centre.  A point of the element then lies in a grid cell of side at
    most rho, whose nearest corner is within rho/sqrt 2 < rho of it, so in
    a ball of the family.  The top of the line or the plane has no extent,
    so those spaces have no ``m2``.

    The balls of radius 2**-k around the listed points are built once per
    k, on first use, and every family of that k is drawn from them.  The
    base keeps them for its own life: at most ``_MAX_LEVEL`` tuples of at
    most ``MAX_BALL_POINTS`` balls.
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
        # the sorted points, kept as integers over their common denominator,
        # and a family is judged on that range; other spaces are scanned
        # with compare_distance and judged by ``_covers``.
        self._line = None
        if type(space) in (RationalLine, LineSegment):
            den = math.lcm(*(y.denominator for y in self.points))
            ints = [y.numerator * (den // y.denominator) for y in self.points]
            order = sorted(range(len(ints)), key=ints.__getitem__)
            self._line = (den, [ints[i] for i in order], order)
            # Whether the least and the greatest key are ends of the space.
            seg = type(space) is LineSegment
            self._ends = (seg and space.lo in self._point_set, seg and space.hi in self._point_set)
        # k -> the balls of radius 2**-k in listed order and, on the lines,
        # the positions i of the sorted keys with a gap wider than 2**-k
        # after them.
        self._levels: dict = {}

    def top(self):
        return TOP

    def leq(self, u, v) -> bool:
        if v is TOP:
            return True
        if u is TOP:
            return self.space.ball_covers_space(v)
        return ball_leq(self.space, u, v)

    def _level(self, k: int) -> tuple:
        level = self._levels.get(k)
        if level is None:
            radius = Fraction(1, 2**k)
            balls = tuple(FormalBall(y, radius) for y in self.points)
            gaps = None
            if self._line is not None:
                den, keys = self._line[0], self._line[1]
                gaps = [i for i in range(len(keys) - 1) if (keys[i + 1] - keys[i]) << k > den]
            level = self._levels[k] = (balls, gaps)
        return level

    def _uniform_family(self, u, k: int) -> tuple:
        """The ``m2`` family of the top or the ``m2loc`` family of a ball at
        radius 2**-k, in listed order, when it covers u; else ()."""
        balls, gaps = self._level(k)
        if self._line is None:
            if u is TOP:
                fam = balls
            else:
                cmp, r = self.space.compare_distance, u.radius + balls[0].radius
                fam = tuple(b for b in balls if cmp(b.center, u.center, r) < 0)
            return fam if fam and _covers(self.space, u, fam) else ()
        den, keys, order = self._line
        if u is TOP:
            (left, right), i, j = self._ends, 0, len(keys)
        else:
            # In units of 1/q, q = cd rd 2**k: c = a 2**k, r = b 2**k and
            # 2**-k = cd rd.  The family is the keys y D with
            # |y - c| < r + 2**-k; the extent of u runs from c - r to c + r.
            c, r = u.center, u.radius
            cd, rd = c.denominator, r.denominator
            a, b, rho = c.numerator * rd, r.numerator * cd, cd * rd
            q = rho << k
            lo, hi = (a - b) << k, (a + b) << k
            i = bisect_right(keys, (lo - rho) * den // q)
            j = bisect_left(keys, -(-(hi + rho) * den // q))
            if i >= j:
                return ()
            left = (self._ends[0] and i == 0) or keys[i] * q <= lo * den
            right = (self._ends[1] and j == len(keys)) or keys[j - 1] * q >= hi * den
        if not (left and right):
            return ()
        g = bisect_left(gaps, i)
        if g < len(gaps) and gaps[g] < j - 1:
            return ()
        return tuple(balls[x] for x in sorted(order[i:j]))

    def axiom_instances(self, u, budget: int) -> list[tuple[str, tuple]]:
        axiom = "m2" if u is TOP else "m2loc"
        out = []
        for k in range(1, min(max(1, budget), _MAX_LEVEL) + 1):
            fam = self._uniform_family(u, k)
            if fam:
                out.append((axiom, fam))
        return out

    def axiom_valid(self, axiom: str, u, family: tuple) -> bool:
        if axiom != ("m2" if u is TOP else "m2loc") or not family:
            return False
        radii = {f.radius for f in family}
        if len(radii) != 1:
            return False
        rho = radii.pop()
        d = rho.denominator
        if rho.numerator != 1 or d < 2 or d & (d - 1):  # rho = 2**-k, k >= 1
            return False
        if any(f.center not in self._point_set for f in family):
            return False
        if u is not TOP:
            r, cmp = u.radius + rho, self.space.compare_distance
            if any(cmp(f.center, u.center, r) >= 0 for f in family):
                return False
        return _covers(self.space, u, family)

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


def completion_base(space: MetricSpace, point_budget: int) -> BallBase:
    """The kernel base of the localic completion of the space."""
    return BallBase(space, point_budget)
