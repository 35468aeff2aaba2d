"""Answer checks for the benchmark, written from the closed forms.

Nothing here calls the library's arithmetic: distances come from the
geometry of each set, Cantor distances from the gap structure of the
middle-thirds set, cover truths from endpoint sweeps, and Vietoris answers
from a model evaluator of its own.  The one exception is the derivation
checker: a ``cover`` answer is parsed back with ``kernel.parse_derivation``
and must pass ``kernel.check_derivation``, the library's independent
checker.

Exact reals are written as ``(agg, terms)``: ``agg`` is ``"min"`` or
``"max"`` and each term ``(q, t)`` stands for ``max(0, sqrt(q) + t)`` with
rational ``q >= 0`` and ``t``.  Every comparison against a rational is
decided on squares, so no check ever rounds.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import isqrt

# ---------------------------------------------------------------------------
# Exact comparisons of max(0, sqrt(q) + t) against rationals.
# ---------------------------------------------------------------------------


def _term_le(term, x) -> bool:
    q, t = term
    y = x - t
    return x >= 0 and y >= 0 and q <= y * y


def _term_ge(term, x) -> bool:
    q, t = term
    if x <= 0:
        return True
    y = x - t
    return y <= 0 or q >= y * y


def real_le(real, x) -> bool:
    agg, terms = real
    if agg == "min":
        return any(_term_le(s, x) for s in terms)
    return all(_term_le(s, x) for s in terms)


def real_ge(real, x) -> bool:
    agg, terms = real
    if agg == "min":
        return all(_term_ge(s, x) for s in terms)
    return any(_term_ge(s, x) for s in terms)


def real_lt(real, x) -> bool:
    return not real_ge(real, x)


def rational(v) -> tuple:
    """The exact real equal to a nonnegative rational."""
    return ("max", [(F(0), F(v))])


def sqrt_bracket(x: F, tol: F) -> tuple:
    """lo <= sqrt(x) <= hi with hi - lo <= tol, by integer square roots."""
    scale = 1
    while F(1, scale) > tol:
        scale *= 2
    n = x.numerator * x.denominator * scale * scale
    r = isqrt(n)
    den = x.denominator * scale
    return F(r, den), F(r + 1, den)


def exact_sqrt(x: F) -> F:
    """The rational square root of a square rational."""
    p, q = isqrt(x.numerator), isqrt(x.denominator)
    if F(p, q) ** 2 != x:
        raise ValueError(f"{x} is not the square of a rational")
    return F(p, q)


# ---------------------------------------------------------------------------
# Geometry.  Components (tuples of Fractions):
#   ("disk", (cx, cy), r)      closed Euclidean disk
#   ("seg", a, b)              closed segment between plane points
#   ("pts", (p, ...))          finite plane point set
#   ("line", S1, o, v)         {o + x v : x in S1} for a line set S1
# and line sets S1:
#   ("int", a, b) | ("cantor",) | ("pts1", (x, ...))
# A set is a tuple of components (their union).
# ---------------------------------------------------------------------------


def _sq(p, q) -> F:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def seg_sq(p, a, b) -> F:
    """Squared distance from p to the closed segment [a, b]."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        return _sq(p, a)
    s = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / length_sq
    s = min(F(1), max(F(0), s))
    return _sq(p, (a[0] + s * dx, a[1] + s * dy))


def cantor_dist(x: F) -> F:
    """Distance from a rational to the middle-thirds set, from its gaps.

    Writing x = o + s*y with y in [0, 1], each step either finds y in the
    open middle third of the current copy (x lies in the removed gap, whose
    ends are set points) or zooms into the outer third holding y.  A
    rational revisits some y, and then its ternary digits avoid 1 forever.
    """
    x = F(x)
    if x <= 0:
        return -x
    if x >= 1:
        return x - 1
    o, s, y = F(0), F(1), x
    seen = set()
    while y not in seen:
        if y == 0 or y == 1:
            return F(0)
        seen.add(y)
        if F(1, 3) < y < F(2, 3):
            lo, hi = o + s / 3, o + 2 * s / 3
            return min(x - lo, hi - x)
        if y <= F(1, 3):
            y, s = 3 * y, s / 3
        else:
            y, o, s = 3 * y - 2, o + 2 * s / 3, s / 3
    return F(0)


def dist1(S1, x: F) -> F:
    kind = S1[0]
    if kind == "int":
        return max(F(0), S1[1] - x, x - S1[2])
    if kind == "cantor":
        return cantor_dist(x)
    return min(abs(x - p) for p in S1[1])


def _component_term(c, p) -> tuple:
    kind = c[0]
    if kind == "disk":
        return (_sq(p, c[1]), -c[2])
    if kind == "seg":
        return (seg_sq(p, c[1], c[2]), F(0))
    if kind == "pts":
        return (min(_sq(p, q) for q in c[1]), F(0))
    _, S1, o, v = c
    vv = v[0] * v[0] + v[1] * v[1]
    w = (p[0] - o[0], p[1] - o[1])
    tp = (w[0] * v[0] + w[1] * v[1]) / vv
    h2 = w[0] * w[0] + w[1] * w[1] - tp * tp * vv
    d1 = dist1(S1, tp)
    return (vv * d1 * d1 + h2, F(0))


def dist_real(geom, p) -> tuple:
    """Exact distance from a plane point (or, for line sets, a rational)."""
    if isinstance(p, tuple):
        return ("min", [_component_term(c, p) for c in geom])
    return ("min", [(F(0), dist1(S1, p)) for S1 in geom])


def map_geom(geom, m) -> tuple:
    """Image of a planar set under (x, y) -> (a x + b y + c, d x + e y + f).

    Disks map to disks only under similarities with a rational scale; any
    other map of a disk raises, so an ellipse is never represented.
    """
    a, b, c, d, e, f = m

    def ap(p):
        return (a * p[0] + b * p[1] + c, d * p[0] + e * p[1] + f)

    out = []
    for comp in geom:
        kind = comp[0]
        if kind == "disk":
            scale_sq = a * a + d * d
            if a * b + d * e != 0 or b * b + e * e != scale_sq:
                raise ValueError("disks map only under similarities")
            out.append(("disk", ap(comp[1]), comp[2] * exact_sqrt(scale_sq)))
        elif kind == "seg":
            out.append(("seg", ap(comp[1]), ap(comp[2])))
        elif kind == "pts":
            out.append(("pts", tuple(ap(p) for p in comp[1])))
        else:
            _, S1, o, v = comp
            out.append(("line", S1, ap(o), (a * v[0] + b * v[1], d * v[0] + e * v[1])))
    return tuple(out)


def line_embed(S1) -> tuple:
    """A line set placed on the x-axis of the plane."""
    return ("line", S1, (F(0), F(0)), (F(1), F(0)))


def planar(geom) -> tuple:
    """The set itself, or a line set placed on the x-axis."""
    if geom[0][0] in ("int", "cantor", "pts1"):
        return tuple(line_embed(S1) for S1 in geom)
    return geom


# ---------------------------------------------------------------------------
# Distance and Hausdorff brackets.
# ---------------------------------------------------------------------------


def parse_bracket(text: str) -> tuple:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"not a bracket: {text!r}")
    lo, hi = s[1:-1].split(",")
    return F(lo.strip()), F(hi.strip())


def check_bracket(text: str, real, prec: F) -> str:
    """'' when [lo, hi] contains the value and has width <= prec."""
    lo, hi = parse_bracket(text)
    if lo > hi or hi - lo > prec:
        return f"bracket {text.strip()} wider than {prec}"
    if not (real_ge(real, lo) and real_le(real, hi)):
        return f"bracket {text.strip()} misses the closed-form value {real}"
    return ""


# ---------------------------------------------------------------------------
# Plots: a black pixel needs d < 2r at its centre, a white one d >= r.
# ---------------------------------------------------------------------------


def check_plot(text: str, geom, viewport, width: int, height: int) -> str:
    lines = text.split("\n")
    if lines[:3] != ["P2", f"{width} {height}", "255"] or lines[-1] != "":
        return "bad PGM header or trailer"
    rows = lines[3:-1]
    if len(rows) != height:
        return f"expected {height} rows, got {len(rows)}"
    xmin, xmax, ymin, ymax = viewport
    pw, ph = (xmax - xmin) / width, (ymax - ymin) / height
    # The pixel radius r is a rational upper bound on the half-diagonal,
    # at most (pw + ph) / 128 above it.
    rh_lo, rh_hi = sqrt_bracket((pw * pw + ph * ph) / 4, (pw + ph) / 1024)
    black_limit = 2 * (rh_hi + (pw + ph) / 128)
    g = planar(geom)
    for i, row in enumerate(rows):
        vals = row.split(" ")
        if len(vals) != width:
            return f"row {i} has {len(vals)} values"
        cy = ymax - (2 * i + 1) * ph / 2
        for j, v in enumerate(vals):
            cx = xmin + (2 * j + 1) * pw / 2
            d = dist_real(g, (cx, cy))
            if v == "0":
                if not real_lt(d, black_limit):
                    return f"black pixel ({j},{i}) is too far from the set"
            elif v == "255":
                if not real_ge(d, rh_lo):
                    return f"white pixel ({j},{i}) meets the set"
            else:
                return f"pixel value {v!r}"
    return ""


# ---------------------------------------------------------------------------
# Net round trips.
# ---------------------------------------------------------------------------


def _samples(geom, eps: F) -> list:
    """Points of the set, spaced well below eps."""
    g = eps / 4
    out = []
    for comp in geom:
        kind = comp[0]
        if kind == "disk":
            (cx, cy), r = comp[1], comp[2]
            n = int(r / g) + 1
            for i in range(-n, n + 1):
                for j in range(-n, n + 1):
                    p = (cx + i * g, cy + j * g)
                    if _sq(p, (cx, cy)) <= r * r:
                        out.append(p)
            for ux, uy in ((1, 0), (F(3, 5), F(4, 5)), (F(4, 5), F(3, 5)), (0, 1)):
                for sx in (-1, 1):
                    for sy in (-1, 1):
                        out.append((cx + sx * ux * r, cy + sy * uy * r))
        elif kind == "seg":
            a, b = comp[1], comp[2]
            n = 64
            out.extend((a[0] + (b[0] - a[0]) * F(k, n), a[1] + (b[1] - a[1]) * F(k, n))
                       for k in range(n + 1))
        elif kind == "pts":
            out.extend(comp[1])
        elif kind in ("int", "cantor", "pts1"):
            out.extend(_line_samples(comp, g))
        else:
            _, S1, o, v = comp
            out.extend((o[0] + x * v[0], o[1] + x * v[1]) for x in _line_samples(S1, g))
    return out


def _line_samples(S1, g: F) -> list:
    kind = S1[0]
    if kind == "int":
        a, b = S1[1], S1[2]
        n = int((b - a) / g) + 1
        return [a + (b - a) * F(k, n) for k in range(n + 1)]
    if kind == "cantor":
        pts = [(F(0), F(1))]
        while pts[0][1] - pts[0][0] > g:
            pts = [q for lo, hi in pts for q in ((lo, lo + (hi - lo) / 3), (hi - (hi - lo) / 3, hi))]
        return [x for seg in pts for x in seg]
    return list(S1[1])


def check_roundtrip(kept, geom, eps: F) -> str:
    """Every kept point lies within 2eps/3 of the set, and every sampled
    set point within eps/2 of a kept point."""
    if not kept:
        return "no point kept"
    in_plane = isinstance(kept[0], tuple)
    for k in kept:
        if not real_lt(dist_real(geom, k), 2 * eps / 3):
            return f"kept point {k} is not within 2eps/3 of the set"
    lim = eps / 2
    if not in_plane:
        ks = sorted(kept)
        import bisect

        for s in _samples(geom, eps):
            i = bisect.bisect_left(ks, s)
            if not any(abs(ks[j] - s) <= lim for j in (i - 1, i) if 0 <= j < len(ks)):
                return f"set point {s} has no kept point within eps/2"
        return ""
    buckets: dict = {}
    for k in kept:
        buckets.setdefault((int(k[0] // lim), int(k[1] // lim)), []).append(k)
    for s in _samples(geom, eps):
        bx, by = int(s[0] // lim), int(s[1] // lim)
        near = (q for dx in (-1, 0, 1) for dy in (-1, 0, 1) for q in buckets.get((bx + dx, by + dy), ()))
        if not any(_sq(s, q) <= lim * lim for q in near):
            return f"set point {s} has no kept point within eps/2"
    return ""


# ---------------------------------------------------------------------------
# Endpoint sweeps over open rational intervals.
# ---------------------------------------------------------------------------


def covered(region, opens, space=None) -> bool:
    """Is every point of ``region`` (a list of (lo, hi, closed) intervals)
    lying in the closed ``space`` interval inside the union of the open
    ``opens``?  Decided on cut points and the midpoints between them."""
    cuts = set()
    for lo, hi, _ in region:
        cuts.update((lo, hi))
    for lo, hi in opens:
        cuts.update((lo, hi))
    if space is not None:
        cuts.update(space)
    cuts = sorted(cuts)
    tests = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]

    def in_region(x):
        if space is not None and not space[0] <= x <= space[1]:
            return False
        return any(lo <= x <= hi if closed else lo < x < hi for lo, hi, closed in region)

    return all(any(lo < x < hi for lo, hi in opens) for x in tests if in_region(x))


# ---------------------------------------------------------------------------
# Cover derivations: the library's checker plus an endpoint sweep.
# ---------------------------------------------------------------------------


def cover_base(space: str, budget: int):
    from overt import kernel, metric

    if space == "reals":
        return kernel.FormalRealsBase()
    if space == "loc:q":
        return metric.completion_base(metric.RationalLine(), max(budget * 8, 16))
    lo, hi = space[len("loc:seg:"):].split(",")
    return metric.completion_base(metric.LineSegment(F(lo), F(hi)), 2 ** max(budget, 4) + 1)


def check_cover(text: str, chk: dict) -> str:
    from overt import kernel

    out = text.strip()
    truth, derivable = chk["truth"], chk["derivable"]
    if out == "unknown":
        return "no derivation found for a judgment derivable by construction" if derivable else ""
    base = cover_base(chk["space"], chk["budget"])
    target = base.parse_element(chk["target"])
    family = [base.parse_element(e) for e in chk["family"]]
    d = kernel.parse_derivation(base, out)
    if not kernel.check_derivation(base, d, target, family):
        return "derivation rejected by check_derivation"
    if not truth:
        return "derivation found for a judgment the endpoint sweep refutes"
    return ""


# ---------------------------------------------------------------------------
# Vietoris: finite lattices and a model evaluator of the benchmark's own.
# ---------------------------------------------------------------------------

_ATOMS = "abcdefgh"


class Lattice:
    """chain:n, bool:n or grid:m,n with elements as ints, masks or pairs."""

    def __init__(self, name: str):
        self.name = name
        kind, _, size = name.partition(":")
        if kind == "chain":
            n = int(size)
            self.elems = list(range(n))
            self.leq = lambda u, v: u <= v
            self.join = max
            self.meet = min
            self.fmt = str
        elif kind == "bool":
            n = int(size)
            self.elems = list(range(1 << n))
            self.leq = lambda u, v: u & v == u
            self.join = lambda u, v: u | v
            self.meet = lambda u, v: u & v
            self.fmt = lambda u: "".join(_ATOMS[i] for i in range(n) if u >> i & 1) or "{}"
        elif kind == "grid":
            m, n = (int(x) for x in size.split(","))
            self.elems = [(i, j) for i in range(m) for j in range(n)]
            self.leq = lambda u, v: u[0] <= v[0] and u[1] <= v[1]
            self.join = lambda u, v: (max(u[0], v[0]), max(u[1], v[1]))
            self.meet = lambda u, v: (min(u[0], v[0]), min(u[1], v[1]))
            self.fmt = lambda u: f"{u[0]},{u[1]}"
        else:
            raise ValueError(name)
        self.bot = self.elems[0]
        self.top = self.elems[-1]


def lattice_models(L: Lattice) -> list:
    """All positivity models (sets of positive elements).

    Up to 12 elements every subset is tested against the model laws: bottom
    is not positive, positivity is upward closed, splits joins and respects
    the well-inside relation.  Larger carriers are distributive, so the
    non-positive elements form a principal ideal and the models are the
    sets {u : not u <= n} for n in L (Birkhoff).
    """
    es = L.elems
    n = len(es)
    if n > 12:
        return [frozenset(u for u in es if not L.leq(u, m)) for m in es]
    idx = {e: i for i, e in enumerate(es)}
    up = [sum(1 << idx[v] for v in es if L.leq(u, v)) for u in es]
    splits = [(1 << idx[u], 1 << idx[v], 1 << idx[L.join(u, v)]) for u in es for v in es]
    well = [
        (1 << idx[u], 1 << idx[v])
        for u in es
        for v in es
        if any(L.meet(u, w) == L.bot and L.join(v, w) == L.top for w in es)
    ]
    out = []
    for mask in range(1 << n):
        if mask & 1 << idx[L.bot]:
            continue
        if any(mask >> i & 1 and up[i] & ~mask for i in range(n)):
            continue
        if any(mask & j and not mask & u and not mask & v for u, v, j in splits):
            continue
        if any(mask & u and not mask & v for u, v in well):
            continue
        out.append(frozenset(e for e in es if mask & 1 << idx[e]))
    return out


def eval_term(t, L: Lattice, pos, nonpos_join) -> bool:
    op = t[0]
    if op == "0":
        return False
    if op == "1":
        return True
    if op == "dia":
        return t[1] in pos
    if op == "box":
        return L.join(t[1], nonpos_join) == L.top
    if op == "&":
        return eval_term(t[1], L, pos, nonpos_join) and eval_term(t[2], L, pos, nonpos_join)
    return eval_term(t[1], L, pos, nonpos_join) or eval_term(t[2], L, pos, nonpos_join)


_MODEL_CACHE: dict = {}


def expected_leq(carrier: str, s, t) -> bool:
    if carrier not in _MODEL_CACHE:
        L = Lattice(carrier)
        models = []
        for pos in lattice_models(L):
            nj = L.bot
            for e in L.elems:
                if e not in pos:
                    nj = L.join(nj, e)
            models.append((pos, nj))
        _MODEL_CACHE[carrier] = (L, models)
    L, models = _MODEL_CACHE[carrier]
    return all(
        eval_term(t, L, pos, nj) or not eval_term(s, L, pos, nj) for pos, nj in models
    )


def eval_interval_term(t, K) -> bool:
    """Evaluate at the point of the interval carrier given by a finite set
    K: dia(u) means K meets u, box(u) means K lies inside u."""
    op = t[0]
    if op == "0":
        return False
    if op == "1":
        return True
    if op in ("dia", "box"):
        inside = [any(p < k < q for p, q in t[1]) for k in K]
        return any(inside) if op == "dia" else all(inside)
    if op == "&":
        return eval_interval_term(t[1], K) and eval_interval_term(t[2], K)
    return eval_interval_term(t[1], K) or eval_interval_term(t[2], K)


def check_vietoris(text: str, chk: dict) -> str:
    out = text.strip()
    s, t = chk["s"], chk["t"]
    if chk["carrier"].startswith("intervals:"):
        if out == "unknown":
            return ""
        if out != "true":
            return f"normal-form path answered {out!r}"
        for K in chk["models"]:
            if eval_interval_term(s, K) and not eval_interval_term(t, K):
                return f"'true' refuted by the point set {K}"
        return ""
    want = "true" if expected_leq(chk["carrier"], s, t) else "false"
    return "" if out == want else f"answered {out!r}, the model evaluator says {want!r}"
