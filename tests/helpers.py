"""Independent oracles shared by the test modules.

Everything here is deliberately written from scratch against the math, not
against the library: bisection for square roots, triadic interval lists for
the middle-thirds set, endpoint sweeps for interval covers, walks over
sorted centres and point tests for ball families, bucketed
integer arithmetic for exact finite Hausdorff bounds, every subset of a
finite carrier for its positivity models, finite point sets as points of
the Vietoris lattice on open intervals, a scan of every listed point
for the balls near a center, affine maps applied coordinate by
coordinate, nets built by repeated addition over the full grid, spread
laws checked level by level, and cover derivability by plain recursion over
the candidate families.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd


def bisect_sqrt_interval(n, eps):
    """Bracket sqrt(n) by pure bisection on [0, n+1] (n >= 1)."""
    n, eps = Fraction(n), Fraction(eps)
    lo, hi = Fraction(0), n + 1
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo, hi


def sqrt2_refiner(eps):
    return bisect_sqrt_interval(2, eps)


@lru_cache(maxsize=None)
def cantor_level_intervals(k):
    """The closed intervals of the k-th middle-thirds stage."""
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(k):
        nxt = []
        for lo, hi in intervals:
            third = (hi - lo) / 3
            nxt.append((lo, lo + third))
            nxt.append((hi - third, hi))
        intervals = nxt
    return tuple(intervals)


def cantor_oracle_distance(x, k=12):
    """Distance from x to the k-th stage (an upper approximation of the set
    containing it); exact for points whose nearest set points are stage
    endpoints, and within 3**-k in general."""
    x = Fraction(x)
    best = None
    for lo, hi in cantor_level_intervals(k):
        d = max(Fraction(0), lo - x, x - hi)
        if best is None or d < best:
            best = d
    return best


def cantor_oracle_sup_distance(k=12):
    """sup over [0, 1] of the distance to the middle-thirds set: half the
    widest gap between consecutive stage intervals."""
    intervals = sorted(cantor_level_intervals(k))
    best = Fraction(0)
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        best = max(best, (lo2 - hi1) / 2)
    return best


def sweep_cover_oracle(u_parts, family_parts, ambient):
    """Endpoint-sweep decision of 'the open set u is contained in the union
    of the open family parts', all within the open ambient interval."""
    lo_amb, hi_amb = ambient
    cuts = {lo_amb, hi_amb}
    for p, q in u_parts:
        cuts.update((p, q))
    for parts in family_parts:
        for p, q in parts:
            cuts.update((p, q))
    cuts = sorted(c for c in cuts if lo_amb <= c <= hi_amb)
    all_parts = [pq for parts in family_parts for pq in parts]

    def covered_point(z):
        return any(p < z < q for p, q in all_parts)

    def in_u(z):
        return any(p < z < q for p, q in u_parts)

    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        if in_u(mid) and not covered_point(mid):
            return False
    for c in cuts:
        if in_u(c) and not covered_point(c):
            return False
    return True


def _lcm(a, b):
    return a * b // gcd(a, b)


def common_denominator(points, plane):
    den = 1
    for p in points:
        if plane:
            den = _lcm(_lcm(den, p[0].denominator), p[1].denominator)
        else:
            den = _lcm(den, Fraction(p).denominator)
    return den


def finite_hausdorff_leq(A, B, bound, plane=False):
    """Exact decision of H(A, B) <= bound for finite point lists, by scaled
    integer arithmetic with spatial bucketing."""
    bound = Fraction(bound)
    den = _lcm(common_denominator(A, plane), common_denominator(B, plane))
    den = _lcm(den, bound.denominator)
    lim = bound * den
    lim_sq = int(lim) * int(lim)

    if not plane:
        a = sorted(int(Fraction(p) * den) for p in A)
        b = sorted(int(Fraction(p) * den) for p in B)
        import bisect

        def directed(xs, ys):
            for x in xs:
                i = bisect.bisect_left(ys, x)
                ok = False
                for j in (i - 1, i):
                    if 0 <= j < len(ys) and abs(ys[j] - x) <= lim:
                        ok = True
                        break
                if not ok:
                    return False
            return True

        return directed(a, b) and directed(b, a)

    # Cells of side c with (c - 1) * sqrt 2 < lim, so any two points of one
    # cell are within lim: a point whose own cell holds a point of the other
    # list passes at once, and only the others scan the cells within reach.
    lim = int(lim)
    cell = max(1, 2 * lim // 3)
    reach = -(-lim // cell)

    def to_int(pts):
        return [(int(p[0] * den), int(p[1] * den)) for p in pts]

    def bucket(pts):
        d = {}
        for x, y in pts:
            d.setdefault((x // cell, y // cell), []).append((x, y))
        return d

    ai, bi = to_int(A), to_int(B)
    near = [(dx, dy) for dx in range(-reach, reach + 1) for dy in range(-reach, reach + 1)]

    def directed(pts, buckets):
        for x, y in pts:
            cx, cy = x // cell, y // cell
            if (cx, cy) in buckets:
                continue
            if not any(
                (x - bx) ** 2 + (y - by) ** 2 <= lim_sq
                for dx, dy in near
                for bx, by in buckets.get((cx + dx, cy + dy), ())
            ):
                return False
        return True

    return directed(ai, bucket(bi)) and directed(bi, bucket(ai))


def finite_hausdorff_1d(A, B):
    """Exact Hausdorff distance between small finite 1-d point lists."""
    A = [Fraction(a) for a in A]
    B = [Fraction(b) for b in B]

    def directed(xs, ys):
        return max(min(abs(x - y) for y in ys) for x in xs)

    return max(directed(A, B), directed(B, A))


def grid_points(x0, x1, y0, y1, h):
    pts = []
    x = Fraction(x0)
    while x <= x1:
        y = Fraction(y0)
        while y <= y1:
            pts.append((x, y))
            y += h
        x += h
    return pts


def root_at_least(q, shift, lo):
    """max(0, sqrt(q) + shift) >= lo, decided on squares."""
    q, shift, lo = Fraction(q), Fraction(shift), Fraction(lo)
    if lo <= 0:
        return True
    need = lo - shift  # sqrt(q) >= need
    return need <= 0 or q >= need * need


def root_at_most(q, shift, hi):
    """max(0, sqrt(q) + shift) <= hi, decided on squares."""
    q, shift, hi = Fraction(q), Fraction(shift), Fraction(hi)
    room = hi - shift  # sqrt(q) <= room
    return hi >= 0 and room >= 0 and q <= room * room


def bracket_holds_min_root(lo, hi, parts):
    """lo <= min over parts of max(0, sqrt(q) + shift) <= hi."""
    return all(root_at_least(q, s, lo) for q, s in parts) and any(
        root_at_most(q, s, hi) for q, s in parts
    )


def min_root_sign(parts, t):
    """Sign of d - t, where d is the minimum over parts of
    max(0, sqrt(q) + shift), decided on squares."""
    at_least = all(root_at_least(q, s, t) for q, s in parts)
    at_most = any(root_at_most(q, s, t) for q, s in parts)
    return (not at_most) - (not at_least)


def affine_apply(m, p):
    """(x, y) -> (a x + b y + c, d x + e y + f) for m = (a, b, c, d, e, f);
    a line point x is the plane point (x, 0)."""
    a, b, c, d, e, f = m
    x, y = p if isinstance(p, tuple) else (p, 0)
    return (a * x + b * y + c, d * x + e * y + f)


def stretch_sq_at_most(m, v, lip):
    """|A v| <= lip |v| for the linear part A of m, decided on squares."""
    a, b, _, d, e, _ = m
    ax, ay = a * v[0] + b * v[1], d * v[0] + e * v[1]
    return ax * ax + ay * ay <= lip * lip * (v[0] * v[0] + v[1] * v[1])


def point_sq(p, q):
    return (Fraction(p[0]) - q[0]) ** 2 + (Fraction(p[1]) - q[1]) ** 2


def segment_dist_sq(p, a, b):
    """Squared distance from p to the closed segment [a, b]: the
    perpendicular distance when the foot falls inside, else the nearer
    endpoint."""
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = p[0] - a[0], p[1] - a[1]
    len_sq = ux * ux + uy * uy
    if len_sq == 0:
        return point_sq(p, a)
    dot = ux * vx + uy * vy
    if 0 <= dot <= len_sq:
        cross = ux * vy - uy * vx
        return cross * cross / len_sq
    return min(point_sq(p, a), point_sq(p, b))


def disk_distance_sign(p, c, r, t):
    """Sign of d - t for the distance d = max(0, |p - c| - r) from p to the
    closed disk D(c, r): d = 0 on the disk, and off it |p - c| is compared
    with r + t on squares."""
    q, r, t = point_sq(p, c), Fraction(r), Fraction(t)
    if q <= r * r:
        return (t < 0) - (t > 0)
    if r + t <= 0:
        return 1
    return (q > (r + t) ** 2) - (q < (r + t) ** 2)


def box_dist_sq(p, box):
    """Squared distance from p to the closed box (x0, x1, y0, y1): to p
    clamped into the box coordinate by coordinate, its nearest point."""
    x0, x1, y0, y1 = box
    return point_sq(p, (min(max(Fraction(p[0]), x0), x1), min(max(Fraction(p[1]), y0), y1)))


def finite_hausdorff_sq(A, B):
    """Exact squared Hausdorff distance between finite planar point lists."""

    def directed(xs, ys):
        return max(min(point_sq(x, y) for y in ys) for x in xs)

    return max(directed(A, B), directed(B, A))


def union_distance_1d(x, intervals):
    """Distance from x to a finite union of closed intervals (lo, hi)."""
    x = Fraction(x)
    return min(max(Fraction(0), lo - x, x - hi) for lo, hi in intervals)


def union_hausdorff_1d(A, B):
    """Exact Hausdorff distance between finite unions of closed intervals.

    On each interval of the source, the distance to the target is piecewise
    linear with peaks only at the midpoints of the target's gaps, so its
    maximum sits at an endpoint of the source interval or at a gap midpoint
    inside it.
    """

    def directed(src, tgt):
        merged = []
        for lo, hi in sorted(tgt):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        mids = [(h1 + l2) / 2 for (_, h1), (l2, _) in zip(merged, merged[1:])]
        worst = Fraction(0)
        for lo, hi in src:
            cands = [lo, hi] + [m for m in mids if lo <= m <= hi]
            worst = max(worst, max(union_distance_1d(c, tgt) for c in cands))
        return worst

    A = [(Fraction(lo), Fraction(hi)) for lo, hi in A]
    B = [(Fraction(lo), Fraction(hi)) for lo, hi in B]
    return max(directed(A, B), directed(B, A))


def subset_models(L):
    """Every positivity model of a finite carrier, by testing all 2**|L|
    subsets against the definition: bottom is not positive, positivity is
    upward closed, a positive join has a positive part, and u well inside v
    (some w with u & w = 0 and v | w = 1) makes v positive when u is.
    Subsets are bit masks over the element list; unordered result."""
    elems = L.elements()
    n = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    bot = 1 << index[L.bot]
    up = [sum(1 << j for j, v in enumerate(elems) if L.leq(u, v)) for u in elems]
    joins = [(1 << i, 1 << j, 1 << index[L.join(u, v)])
             for i, u in enumerate(elems) for j, v in enumerate(elems) if i < j]
    inside = [(1 << i, 1 << j)
              for i, u in enumerate(elems) for j, v in enumerate(elems)
              if any(L.meet(u, w) == L.bot and L.join(v, w) == L.top for w in elems)]
    models = []
    for mask in range(1 << n):
        if mask & bot:
            continue
        if any(mask >> i & 1 and up[i] & ~mask for i in range(n)):
            continue
        if any(mask & k and not mask & (a | b) for a, b, k in joins):
            continue
        if any(mask & a and not mask & b for a, b in inside):
            continue
        models.append(frozenset(elems[i] for i in range(n) if mask >> i & 1))
    return models


def interval_term_holds(term, K):
    """A modal term at the point of an interval carrier given by a finite
    set K of reals: ``("dia", parts)`` holds when K meets the union of the
    open intervals ``parts``, ``("box", parts)`` when K lies inside it;
    ``("0",)``, ``("1",)``, ``("&", s, t)`` and ``("|", s, t)`` as usual."""
    op = term[0]
    if op in ("0", "1"):
        return op == "1"
    if op in ("dia", "box"):
        inside = [any(p < k < q for p, q in term[1]) for k in K]
        return any(inside) if op == "dia" else all(inside)
    left, right = interval_term_holds(term[1], K), interval_term_holds(term[2], K)
    return left and right if op == "&" else left or right


def cut_representatives(cuts):
    """One point for each cut point and one for each gap between two
    consecutive cut points, for the sorted cuts of an ambient interval
    whose ends are the first and the last cut."""
    cuts = sorted(set(cuts))
    gaps = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    return sorted(cuts[1:-1] + gaps)


def points_within(points, c, r):
    """The points y with |y - c| < r, in the order given."""
    return [y for y in points if abs(y - c) < r]


def line_family_covers(centers, lo, hi, rho):
    """Whether the centers, walked in steps of at most rho, reach from at or
    below lo to at or above hi: start at the largest center at most lo,
    then step to the largest center at most rho further on."""
    centers = sorted(centers)
    at = max((x for x in centers if x <= lo), default=None)
    while at is not None and at < hi:
        at = max((x for x in centers if at < x <= at + rho), default=None)
    return at is not None


def line_ball_cover_holds(target, family, segment=None):
    """Whether the open ball ``target``, a (center, radius) pair or None for
    the whole space, lies inside the union of the open balls of ``family``
    at every point of the line, or of the closed ``segment`` (lo, hi): an
    endpoint sweep over their intervals.  No finite family of balls covers
    the whole line."""
    parts = [(c - r, c + r) for c, r in family]
    if segment is None:
        if target is None:
            return False
        ends = [x for part in parts + [(target[0] - target[1], target[0] + target[1])] for x in part]
        segment = (min(ends) - 1, max(ends) + 1)
    lo, hi = segment
    u = (lo - 1, hi + 1) if target is None else (target[0] - target[1], target[0] + target[1])
    return sweep_cover_oracle([u], [[part] for part in parts], segment)


def plane_cover_holds_at(x, balls):
    """Whether the point x of the plane lies in one of the open balls,
    (center, radius) pairs, under the Euclidean metric: on squares."""
    return any((x[0] - c[0]) ** 2 + (x[1] - c[1]) ** 2 < r * r for c, r in balls)


def grid_line_net(a, b, h):
    """a, a + h, a + 2h, ... while below b, then b: the interval net, and
    each axis of the box net, by repeated addition."""
    pts, x = [], Fraction(a)
    while x < b:
        pts.append(x)
        x += h
    pts.append(Fraction(b))
    return pts


def box_net(x0, x1, y0, y1, eps):
    """The box net at eps: the grid of step eps/2, x-major."""
    xs, ys = grid_line_net(x0, x1, eps / 2), grid_line_net(y0, y1, eps / 2)
    return [(x, y) for x in xs for y in ys]


def disk_net(cx, cy, r, eps):
    """The disk net at eps: the centre, then every point of the grid of step
    h = eps/2 around it, i = -steps..steps, j = -steps..steps, whose squared
    offset is at most r^2."""
    cx, cy, r = Fraction(cx), Fraction(cy), Fraction(r)
    h = eps / 2
    pts = [(cx, cy)]
    steps = int(r / h) + 1
    for i in range(-steps, steps + 1):
        for j in range(-steps, steps + 1):
            x, y = cx + i * h, cy + j * h
            if (x - cx) ** 2 + (y - cy) ** 2 <= r * r and (x, y) != (cx, cy):
                pts.append((x, y))
    return pts


def spread_check_bfs(admits, depth, budget):
    """(checked, violating nodes) of the successor check of a spread law,
    level by level from the root: every admitted node of length at most
    depth needs an admitted child among its first ``budget``."""
    if not admits(()):
        return 0, [()]
    checked, bad, level = 0, [], [()]
    for _ in range(depth + 1):
        nxt = []
        for node in level:
            checked += 1
            kids = [node + (d,) for d in range(budget) if admits(node + (d,))]
            if not kids:
                bad.append(node)
            nxt.extend(kids)
        level = nxt
    return checked, bad


def derivable_within(base, u, target, depth, budget, unless=None):
    """Whether u is covered by the target with a derivation tree of depth at
    most ``depth``, by plain recursion with no memo: a leaf when u is in the
    target, is not ``unless``-positive (when that predicate is given), lies
    below a listed member, or has a non-empty candidate family inside the
    target; else a family whose members are each derivable one level less
    deep."""
    if depth < 1:
        return False
    if target.contains(u) or (unless is not None and not unless(u)):
        return True
    if any(b != u and base.leq(u, b) for b in target.listed):
        return True
    families = [fam for _, fam in base.candidate_instances(u, budget, target) if fam]
    if any(all(target.contains(f) for f in fam) for fam in families):
        return True
    return depth > 1 and any(
        all(derivable_within(base, f, target, depth - 1, budget, unless) for f in fam)
        for fam in families
    )


def least_derivation_depth(base, u, target, depth, budget, unless=None):
    """The least d <= depth with ``derivable_within`` at d, else None."""
    return next(
        (d for d in range(1, depth + 1) if derivable_within(base, u, target, d, budget, unless)),
        None,
    )
