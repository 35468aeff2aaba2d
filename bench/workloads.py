"""Seeded op generators for the three workloads.

An op is a plain dict: the template that made it, how to call it (``argv``
for ``overt.cli.main`` or ``args`` for a library call) and what its answer
must satisfy (``check``).  Ops are built only from the random generator
handed in, so a pass is a pure function of its sub-seed.

Each workload is a fixed list of templates with a fixed count per pass:
the mix, and with it the share of each kind of work, is the same in every
pass and every run; only coordinates, sizes within the stated ranges and
the answers change.  Parameter ranges were chosen once so that every op
takes roughly 5 ms to 3 s on the seed code; templates marked heavy are left
out of the warm-up.

CLI values are always passed as ``--flag=value``: ``--point -3/2,1`` is
rejected by argparse as an unknown option, and the generators draw
negative coordinates on purpose.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from checks import covered, exact_sqrt, map_geom, planar, rational, seg_sq

# ---------------------------------------------------------------------------
# Rationals and set specs.
# ---------------------------------------------------------------------------


def fmt(q) -> str:
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rr(rng: random.Random, lo, hi, den: int) -> F:
    """Uniform rational with denominator den in [lo, hi]."""
    a, b = F(lo) * den, F(hi) * den
    return F(rng.randint(-((-a.numerator) // a.denominator), b.numerator // b.denominator), den)


def rpt(rng, lo, hi, den) -> tuple:
    return (rr(rng, lo, hi, den), rr(rng, lo, hi, den))


def s_disk(c, r):
    return f"disk:{fmt(c[0])},{fmt(c[1])},{fmt(r)}", (("disk", c, r),)


def s_seg(a, b):
    return (f"segment:{fmt(a[0])},{fmt(a[1])},{fmt(b[0])},{fmt(b[1])}", (("seg", a, b),))


def s_pts(ps):
    return "points:" + ";".join(f"({fmt(x)},{fmt(y)})" for x, y in ps), (("pts", tuple(ps)),)


def s_int(a, b):
    return f"interval:{fmt(a)},{fmt(b)}", (("int", a, b),)


def s_cantor():
    return "cantor", (("cantor",),)


def s_pts1(xs):
    return "points:" + ";".join(f"({fmt(x)})" for x in xs), (("pts1", tuple(xs)),)


def s_union(A, B):
    return f"union({A[0]},{B[0]})", A[1] + B[1]


def s_image(m, A):
    coeffs = ",".join(fmt(v) for v in m)
    return f"image(affine:{coeffs},{A[0]})", map_geom(planar(A[1]), m)


def distinct_pts(rng, n, lo, hi, den) -> list:
    pts = []
    while len(pts) < n:
        p = rpt(rng, lo, hi, den)
        if p not in pts:
            pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# Affine maps: isometries, similarities and shears.
# ---------------------------------------------------------------------------

_PYTH = [(F(1), F(0)), (F(0), F(1)), (F(3, 5), F(4, 5)), (F(4, 5), F(3, 5)),
         (F(5, 13), F(12, 13)), (F(12, 13), F(5, 13))]


def m_isometry(rng, scale=F(1)) -> tuple:
    c, s = rng.choice(_PYTH)
    c, s = c * rng.choice((1, -1)) * scale, s * rng.choice((1, -1)) * scale
    t = rpt(rng, -2, 2, 4)
    if rng.random() < 0.5:
        return (c, -s, t[0], s, c, t[1])
    return (c, s, t[0], s, -c, t[1])  # a reflection


def m_similarity(rng) -> tuple:
    return m_isometry(rng, rng.choice((F(1, 2), F(3, 4), F(5, 4), F(3, 2))))


def m_shear(rng) -> tuple:
    k = rng.choice((F(1, 2), F(3, 4), F(1), F(-1, 2), F(-3, 4), F(-1)))
    t = rpt(rng, -2, 2, 4)
    if rng.random() < 0.5:
        return (F(1), k, t[0], F(0), F(1), t[1])
    return (F(1), F(0), t[0], k, F(1), t[1])


def m_any(rng) -> tuple:
    return rng.choice((m_isometry, m_similarity, m_shear))(rng)


def lip(m) -> F:
    return abs(m[0]) + abs(m[1]) + abs(m[3]) + abs(m[4])


def scale_of(m) -> F:
    """The scale of a similarity (its columns are orthogonal, equal length)."""
    return exact_sqrt(m[0] * m[0] + m[3] * m[3])


def box_around(p, half_w, half_h) -> tuple:
    """A viewport (or box) of fixed size centred near p, on quarter points."""
    x, y = (F(round(v * 4), 4) for v in p)
    return (x - half_w, x + half_w, y - half_h, y + half_h)


# ---------------------------------------------------------------------------
# Op constructors.
# ---------------------------------------------------------------------------


def cli_op(template, argv, check) -> dict:
    return {"t": template, "call": "cli", "argv": argv, "check": check}


def lib_op(template, call, args, check) -> dict:
    return {"t": template, "call": call, "args": args, "check": check}


def distance_op(template, S, p, prec) -> dict:
    from checks import dist_real

    point = f"{fmt(p[0])},{fmt(p[1])}" if isinstance(p, tuple) else fmt(p)
    argv = ["distance", f"--set={S[0]}", f"--point={point}", f"--prec={fmt(prec)}"]
    return cli_op(template, argv, {"type": "bracket", "real": dist_real(S[1], p), "prec": prec})


def hausdorff_op(template, A, B, real, prec) -> dict:
    argv = ["hausdorff", f"--a={A[0]}", f"--b={B[0]}", f"--prec={fmt(prec)}"]
    return cli_op(template, argv, {"type": "bracket", "real": real, "prec": prec})


def plot_op(template, S, vp, w, h) -> dict:
    argv = ["plot", f"--set={S[0]}", "--viewport=" + ",".join(fmt(v) for v in vp), f"--size={w}x{h}"]
    return cli_op(template, argv, {"type": "plot", "geom": S[1], "viewport": vp, "w": w, "h": h})


def roundtrip_op(template, S, ambient, eps) -> dict:
    return lib_op(template, "net_from_located", {"set": S[0], "ambient": ambient, "eps": fmt(eps)},
                  {"type": "roundtrip", "geom": S[1], "eps": eps})


def max_min_sq(P, Q) -> F:
    return max(min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for q in Q) for p in P)


# ---------------------------------------------------------------------------
# located-exact: sets with an exact distance comparison.
# ---------------------------------------------------------------------------


def _vec(rng, length, directions=_PYTH) -> tuple:
    """A vector of the given length along a random rational direction."""
    u = rng.choice(directions)
    return (u[0] * length * rng.choice((1, -1)), u[1] * length * rng.choice((1, -1)))


def _add(p, v) -> tuple:
    return (p[0] + v[0], p[1] + v[1])


def _jitter(rng, p, size) -> tuple:
    return (p[0] + rr(rng, -size, size, 16), p[1] + rr(rng, -size, size, 16))


def _near(rng, p) -> tuple:
    """A query point at distance 1/2 from a point of the set."""
    return _add(p, _vec(rng, F(1, 2)))


# Query points lie near the set: the nearest-point search widens its rings
# with the distance, so far queries would add cost that varies by draw.
# Sizes are held nearly fixed within a template (net sizes, and so costs,
# grow with them), while positions, directions and answers vary.


def t_dist_disk(rng, big):
    """The net grows with the radius, so each radius has its own row."""
    c, r = rpt(rng, -2, 2, 4), F(11, 16) if big else F(5, 8)
    p = _add(c, _vec(rng, r + rng.choice((F(-1, 4), F(1, 4), F(1, 2), F(3, 4)))))
    return distance_op("dist-disk", s_disk(c, r), p, F(1, 16))


def t_dist_segment(rng):
    a = rpt(rng, -2, 2, 4)
    b = _add(a, _vec(rng, F(3, 2)))
    p = rng.choice((a, b, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)))
    return distance_op("dist-segment", s_seg(a, b), _near(rng, p), F(1, 128))


def t_dist_points(rng):
    pts = distinct_pts(rng, 24, -2, 2, 16)
    S = s_pts(pts)
    return distance_op("dist-points", S, _add(rng.choice(pts), _vec(rng, F(1, 2))), F(1, 256))


def t_dist_points1(rng):
    S = s_pts1(sorted({rr(rng, -3, 3, 16) for _ in range(24)}))
    return distance_op("dist-points1", S, rr(rng, -4, 4, 16), F(1, 1024))


def t_dist_interval(rng):
    a = rr(rng, -2, 0, 8)
    S = s_int(a, a + 2)
    return distance_op("dist-interval", S, rr(rng, -4, 4, 16), F(1, 512))


def t_dist_cantor(rng):
    den = rng.choice((7, 11, 13, 27, 31, 81, 97))
    x = F(rng.randint(-den // 2, 3 * den // 2), den)
    return distance_op("dist-cantor", s_cantor(), x, F(1, 2048))


def t_dist_union(rng, plane):
    if plane:
        c = rpt(rng, -2, 2, 4)
        a = _add(c, _vec(rng, 1))
        S = s_union(s_disk(c, F(5, 16)), s_seg(a, _add(a, _vec(rng, 1))))
        return distance_op("dist-union-plane", S, _near(rng, a), F(1, 16))
    a = rr(rng, -3, -1, 8)
    S = s_union(s_int(a, a + F(3, 4)), s_cantor())
    return distance_op("dist-union-line", S, rr(rng, -4, 3, 16), F(1, 512))


def t_haus_diameter(rng, axis):
    """An axis-parallel diameter costs about twice an oblique one, so each
    has its own row."""
    c, r = rpt(rng, -2, 2, 4), F(5, 16)
    u = _vec(rng, r, _PYTH[:2] if axis else _PYTH[2:])
    A = s_disk(c, r)
    B = s_seg((c[0] - u[0], c[1] - u[1]), _add(c, u))
    if rng.random() < 0.5:
        A, B = B, A
    return hausdorff_op("haus-diameter", A, B, rational(r), F(1, 8))


def t_haus_intervals(rng):
    a, c = rr(rng, -2, 0, 8), rr(rng, -2, 0, 8)
    b, d = a + rr(rng, F(3, 2), F(13, 8), 8), c + rr(rng, F(3, 2), F(13, 8), 8)
    return hausdorff_op("haus-intervals", s_int(a, b), s_int(c, d),
                        rational(max(abs(a - c), abs(b - d))), F(1, 512))


def t_haus_cantor(rng):
    a, b = rr(rng, -1, 0, 8), rr(rng, 1, 2, 8)
    A, B = s_int(a, b), s_cantor()
    if rng.random() < 0.5:
        A, B = B, A
    return hausdorff_op("haus-cantor", A, B, rational(max(-a, b - 1, F(1, 6))), F(1, 256))


def t_haus_disks(rng):
    """H(D(c1, r1), D(c2, r2)) = |c1 - c2| + |r1 - r2|."""
    c1 = rpt(rng, -1, 1, 4)
    c2 = _add(c1, _vec(rng, F(1, 2)))
    r1, r2 = rng.choice((F(1, 8), F(3, 16))), rng.choice((F(1, 8), F(3, 16)))
    return hausdorff_op("haus-disks", s_disk(c1, r1), s_disk(c2, r2),
                        rational(F(1, 2) + abs(r1 - r2)), F(1, 8))


def t_haus_points(rng, plane):
    if plane:
        P = distinct_pts(rng, 10, -2, 2, 8)
        Q = [_jitter(rng, p, F(1, 4)) for p in P]
        q = max(max_min_sq(P, Q), max_min_sq(Q, P))
        return hausdorff_op("haus-points", s_pts(P), s_pts(Q), ("max", [(q, F(0))]), F(1, 16))
    P = sorted({rr(rng, -2, 2, 16) for _ in range(10)})
    Q = sorted({rr(rng, -2, 2, 16) for _ in range(10)})
    h = max(max(min(abs(p - q) for q in Q) for p in P), max(min(abs(p - q) for p in P) for q in Q))
    return hausdorff_op("haus-points1", s_pts1(P), s_pts1(Q), rational(h), F(1, 1024))


def segments_real(a1, b1, a2, b2) -> tuple:
    """H of two segments: the distance to a segment is convex along the
    other, so the largest endpoint distance is the value."""
    q = max(seg_sq(a1, a2, b2), seg_sq(b1, a2, b2), seg_sq(a2, a1, b1), seg_sq(b2, a1, b1))
    return ("max", [(q, F(0))])


def t_haus_segments(rng):
    a1 = rpt(rng, -1, 1, 4)
    b1 = _add(a1, _vec(rng, F(3, 4)))
    a2, b2 = _jitter(rng, a1, F(1, 4)), _jitter(rng, b1, F(1, 4))
    return hausdorff_op("haus-segments", s_seg(a1, b1), s_seg(a2, b2),
                        segments_real(a1, b1, a2, b2), F(1, 16))


def t_plot_exact(rng, k):
    """24x24 plots in a 4x4 viewport (2x4 for line sets)."""
    c = rpt(rng, -2, 2, 4)
    if k == 0:
        S = s_disk(c, rr(rng, F(1, 2), F(3, 4), 8))
    elif k == 1:
        v = _vec(rng, F(3, 4))
        S = s_seg((c[0] - v[0], c[1] - v[1]), _add(c, v))
    elif k == 2:
        S = s_pts([_jitter(rng, c, F(3, 4)) for _ in range(6)])
    elif k == 3:
        S = s_union(s_disk(c, F(3, 8)), s_seg(_add(c, (-1, 1)), _add(c, (1, F(3, 2)))))
    elif k == 4:
        S = s_int(c[0] - F(3, 4), c[0] + F(3, 4))
        c = (c[0], 0)
    else:
        S = s_cantor()
        c = (F(1, 2), 0)
    vp = box_around(c, 2, 2 if k < 4 else 1)
    return plot_op(f"plot-{('disk', 'segment', 'points', 'union', 'interval', 'cantor')[k]}", S, vp, 24, 24)


def t_roundtrip_box(rng, k):
    """Filter the net of a fixed 2x2 box down to a net of the set inside it."""
    c = rpt(rng, -2, 2, 4)
    if k == 0:
        S = s_disk(c, F(3, 8))
    elif k == 1:
        v = _vec(rng, F(1, 2))
        S = s_seg((c[0] - v[0], c[1] - v[1]), _add(c, v))
    else:
        S = s_pts([_jitter(rng, c, F(3, 4)) for _ in range(5)])
    ambient = f"box:{fmt(c[0] - 1)},{fmt(c[0] + 1)},{fmt(c[1] - 1)},{fmt(c[1] + 1)}"
    return roundtrip_op(f"roundtrip-box-{('disk', 'segment', 'points')[k]}", S, ambient, F(1, 4))


def t_roundtrip_line(rng):
    k = rng.randrange(3)
    if k == 0:
        a = rr(rng, -2, 0, 8)
        S = s_int(a, a + rr(rng, F(1, 2), 2, 8))
    elif k == 1:
        S = s_cantor()
    else:
        S = s_pts1(sorted({rr(rng, -2, 2, 8) for _ in range(6)}))
    lo, hi = rr(rng, -3, -2, 4), rr(rng, 2, 3, 4)
    return roundtrip_op("roundtrip-line", S, f"interval:{fmt(lo)},{fmt(hi)}", F(1, 128))


# ---------------------------------------------------------------------------
# located-nets: images under affine maps, which carry no exact comparison.
# ---------------------------------------------------------------------------


def _per_lip(rng, m, target) -> F:
    """A source size that keeps lip(m) * size near target: the image net is
    built from the source net at eps / lip(m), so this holds the op's cost
    steady whatever map is drawn."""
    return max(F(1, 16), F(round(target * rng.uniform(0.95, 1.05) / lip(m) * 16), 16))


def _img_seg(rng, m, target):
    a = rpt(rng, -1, 1, 4)
    return s_image(m, s_seg(a, _add(a, _vec(rng, _per_lip(rng, m, target)))))


def _similar(rng):
    return m_isometry(rng) if rng.random() < 0.5 else m_similarity(rng)


def t_img_dist_disk(rng):
    m = _similar(rng)
    S = s_image(m, s_disk(rpt(rng, -1, 1, 4), _per_lip(rng, m, 1)))
    (_, c, r), = S[1]
    return distance_op("img-dist-disk", S, _add(c, _vec(rng, r + F(1, 2))), F(1, 8))


def t_img_dist_segment(rng):
    S = _img_seg(rng, m_any(rng), 3)
    return distance_op("img-dist-segment", S, _near(rng, S[1][0][1]), F(1, 64))


def t_img_dist_points(rng):
    S = s_image(m_any(rng), s_pts(distinct_pts(rng, 16, -2, 2, 8)))
    return distance_op("img-dist-points", S, _near(rng, rng.choice(S[1][0][1])), F(1, 256))


def t_img_dist_line(rng, cantor):
    m = m_any(rng)
    if cantor:
        A = s_cantor()
    else:
        a = rr(rng, -1, 0, 8)
        A = s_int(a, a + _per_lip(rng, m, 3))
    S = s_image(m, A)
    _, _, o, v = S[1][0]
    return distance_op("img-dist-" + ("cantor" if cantor else "interval"), S,
                       _near(rng, (o[0] + v[0] / 2, o[1] + v[1] / 2)), F(1, 64))


def t_img_dist_union(rng):
    A = _img_seg(rng, m_any(rng), 3)
    B = s_image(m_any(rng), s_pts(distinct_pts(rng, 8, -2, 2, 8)))
    return distance_op("img-dist-union", s_union(A, B), _near(rng, A[1][0][1]), F(1, 64))


def t_img_haus(rng, k):
    if k == 0:
        m = _similar(rng)
        c, r = rpt(rng, -1, 1, 4), _per_lip(rng, m, F(5, 8))
        u = _vec(rng, r)
        A = s_image(m, s_disk(c, r))
        B = s_image(m, s_seg((c[0] - u[0], c[1] - u[1]), _add(c, u)))
        return hausdorff_op("img-haus-disk", A, B, rational(r * scale_of(m)), F(1, 4))
    if k == 1:
        m = m_shear(rng)
        a1 = rpt(rng, -1, 1, 4)
        b1 = _add(a1, _vec(rng, _per_lip(rng, m, F(3, 2))))
        a2, b2 = _jitter(rng, a1, F(1, 4)), _jitter(rng, b1, F(1, 4))
        A, B = s_image(m, s_seg(a1, b1)), s_image(m, s_seg(a2, b2))
        (_, p1, q1), (_, p2, q2) = A[1][0], B[1][0]
        return hausdorff_op("img-haus-segments", A, B, segments_real(p1, q1, p2, q2), F(1, 8))
    if k == 2:
        m = m_similarity(rng)
        a, b = rr(rng, -1, 0, 8), rr(rng, 1, 2, 8)
        A, B = s_image(m, s_int(a, b)), s_image(m, s_cantor())
        # The precision scales with the map, so the nets have the same size
        # whatever scale is drawn.
        return hausdorff_op("img-haus-cantor", A, B,
                            rational(scale_of(m) * max(-a, b - 1, F(1, 6))), scale_of(m) / 16)
    m = m_shear(rng)
    P = distinct_pts(rng, 10, -2, 2, 8)
    A = s_image(m, s_pts(P))
    B = s_image(m, s_pts([_jitter(rng, p, F(1, 4)) for p in P]))
    P, Q = A[1][0][1], B[1][0][1]
    q = max(max_min_sq(P, Q), max_min_sq(Q, P))
    return hausdorff_op("img-haus-points", A, B, ("max", [(q, F(0))]), F(1, 256))


def t_img_plot(rng, k):
    """Small plots in a viewport of fixed size, so pixel radii (and the net
    each pixel query needs) do not depend on the draw."""
    if k == 0:
        m = _similar(rng)
        S = s_image(m, s_disk(rpt(rng, -1, 1, 4), _per_lip(rng, m, F(1, 2))))
        return plot_op("img-plot-disk", S, box_around(S[1][0][1], 1, 1), 4, 4)
    if k == 1:
        S = _img_seg(rng, m_shear(rng), 3)
        (_, a, b), = S[1]
        return plot_op("img-plot-segment", S, box_around(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2), 2, 1), 16, 8)
    c = rpt(rng, -1, 1, 4)
    S = s_image(m_any(rng), s_pts([_jitter(rng, c, F(1, 2)) for _ in range(4)]))
    return plot_op("img-plot-points", S, box_around(S[1][0][1][0], F(3, 2), F(3, 2)), 16, 16)


def t_img_roundtrip(rng, points):
    if points:
        c = rpt(rng, -1, 1, 4)
        S = s_image(m_any(rng), s_pts([_jitter(rng, c, F(1, 4)) for _ in range(4)]))
        xs, ys = zip(*S[1][0][1])
        p = ((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2)
    else:
        S = _img_seg(rng, m_any(rng), 1)
        (_, a, b), = S[1]
        p = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    x0, x1, y0, y1 = box_around(p, 1, 1)
    return roundtrip_op("img-roundtrip-" + ("points" if points else "segment"), S,
                        f"box:{fmt(x0)},{fmt(x1)},{fmt(y0)},{fmt(y1)}", F(1, 2))


# ---------------------------------------------------------------------------
# covers-modal: formal covers, the containment check and the Vietoris lattice.
# ---------------------------------------------------------------------------


def _chain_family(rng, p, s, m):
    """m open intervals that overlap in a chain from p to s.  Cut points
    are at least 1/4 apart and from the ends, and members reach at most 1/8
    past them, so no member swallows a neighbour."""
    grid = [p + F(k, 4) for k in range(1, int((s - p) * 4))]
    pts = [p] + sorted(rng.sample(grid, m - 1)) + [s]
    fam = []
    for i in range(len(pts) - 1):
        lo = pts[i] if i == 0 else pts[i] - F(1, 16) * rng.randint(1, 2)
        hi = pts[i + 1] if i == len(pts) - 2 else pts[i + 1] + F(1, 16) * rng.randint(1, 2)
        fam.append((lo, hi))
    return fam


def _interval_text(iv) -> str:
    return f"({fmt(iv[0])},{fmt(iv[1])})"


def _cover_op(template, space, target, family, depth, budget, truth, derivable, fmt_elt):
    argv = ["cover", f"--space={space}", f"--target={fmt_elt(target)}",
            "--family=" + ";".join(fmt_elt(e) for e in family), f"--depth={depth}"]
    if space != "reals":
        argv.append(f"--budget={budget}")
    check = {"type": "cover", "space": space, "budget": budget, "target": fmt_elt(target),
             "family": [fmt_elt(e) for e in family], "truth": truth, "derivable": derivable}
    return cli_op(template, argv, check)


def t_cover_reals(rng, broken):
    """(p, s) below a chain of 5 overlapping intervals: derivable by peeling
    one split per member, so depth 5 suffices.  A broken chain has two
    members that only touch, which leaves their common end uncovered.  Two
    more intervals lie outside [p, s]."""
    p = rr(rng, -2, 0, 4)
    s = p + 3
    m = 5
    fam = _chain_family(rng, p, s, m)
    if broken:
        i = rng.randrange(m - 1)
        fam[i + 1] = (fam[i][1], fam[i + 1][1])
    for side in (-1, 1):
        lo = (p - 2 if side < 0 else s + 1) + rr(rng, 0, F(1, 2), 8)
        fam.append((lo, lo + rr(rng, F(1, 4), F(1, 2), 8)))
    rng.shuffle(fam)
    truth = covered([(p, s, False)], fam)
    return _cover_op("cover-reals-" + ("false" if broken else "true"), "reals", (p, s), fam, m, 4,
                     truth, not broken, _interval_text)


def _ball_text(b) -> str:
    return f"B({fmt(b[1])};{fmt(b[0])})"


def t_cover_balls(rng, seg, broken):
    """Ball covers on loc:q or loc:seg:a,b.

    A true case covers B(r; c) by the balls of radius r at c -/+ 3r/4.
    With rho = 2**-k <= r/4 (k within the budget) every localized uniform
    ball B(rho; y) around a listed point near B(r; c) sits inside one of the
    two, so a depth-2 derivation exists whatever points are listed.  A
    false case asks for a cover by balls far away.
    """
    if seg:
        lo, hi = rr(rng, -2, -1, 4), rr(rng, 1, 2, 4)
        space = f"loc:seg:{fmt(lo)},{fmt(hi)}"
        c = rr(rng, lo, hi, 4)
    else:
        space = "loc:q"
        c = rr(rng, -2, 2, 4)
    budget, r = 4, F(1)
    target = (c, r)
    if broken:
        far = c + rng.choice((1, -1)) * (r + rr(rng, 3, 4, 4))
        fam = [(far, rr(rng, F(1, 4), F(1, 2), 4))]
        depth = 3
    else:
        fam = [(c - 3 * r / 4, r), (c + 3 * r / 4, r)]
        depth = 2
    if not seg:
        truth = covered([(c - r, c + r, False)], [(x - q, x + q) for x, q in fam])
    else:
        truth = covered([(c - r, c + r, False)], [(x - q, x + q) for x, q in fam], (lo, hi))
    name = f"cover-{'seg' if seg else 'q'}-{'false' if broken else 'true'}"
    return _cover_op(name, space, target, fam, depth, budget, truth, not broken, _ball_text)


def t_tvd(rng, broken):
    """Is the closed [a, b] inside the union of the open balls Z, in the
    segment [-1, 2]?  True cases cover with a margin of at least 1/16, which
    the uniform families of radius 1/32 (complete at budget 200) resolve.
    [a, b] has length 3/4 and is split in two pieces, one ball each; a false
    case shrinks one ball below its piece.  The search costs more the nearer
    [a, b] lies to the left end of the segment, so a stays in [1/4, 3/4]."""
    a = rr(rng, F(1, 4), F(3, 4), 8)
    b = a + F(3, 4)
    pts = [a, a + rr(rng, F(1, 4), F(1, 2), 16), b]
    Z = [((x + y) / 2, (y - x) / 2 + rr(rng, F(1, 16), F(1, 8), 16)) for x, y in zip(pts, pts[1:])]
    if broken:
        i = rng.randrange(2)
        x, y = pts[i], pts[i + 1]
        Z[i] = ((x + y) / 2, (y - x) / 2 - F(1, 16))
    truth = covered([(a, b, True)], [(c - r, c + r) for c, r in Z])
    args = {"space": "-1,2", "a": fmt(a), "b": fmt(b),
            "balls": [f"B({fmt(r)}; {fmt(c)})" for c, r in Z], "depth": 4, "budget": 200}
    return lib_op("tvd-" + ("false" if broken else "true"), "tvd_check", args,
                  {"type": "tvd", "truth": truth, "margin": not broken})


def _term(rng, elems, depth):
    if depth == 0 or rng.random() < 0.35:
        x = rng.random()
        if x < 0.04:
            return ("0",)
        if x < 0.08:
            return ("1",)
        return ("dia" if x < 0.55 else "box", rng.choice(elems))
    op = "&" if rng.random() < 0.5 else "|"
    return (op, _term(rng, elems, depth - 1), _term(rng, elems, depth - 1))


def _term_text(t, fmt_elt) -> str:
    if t[0] in ("0", "1"):
        return t[0]
    if t[0] in ("dia", "box"):
        return f"{t[0]}({fmt_elt(t[1])})"
    return f"({_term_text(t[1], fmt_elt)} {t[0]} {_term_text(t[2], fmt_elt)})"


def _term_pair(rng, elems):
    s = _term(rng, elems, 3)
    x = rng.random()
    if x < 1 / 3:
        return s, ("|", s, _term(rng, elems, 2))
    if x < 2 / 3:
        return ("&", s, _term(rng, elems, 2)), s
    return s, _term(rng, elems, 3)


def t_vietoris(rng, carrier):
    from checks import Lattice

    L = Lattice(carrier)
    s, t = _term_pair(rng, L.elems)
    argv = ["vietoris", f"--carrier={carrier}", "--leq", _term_text(s, L.fmt), _term_text(t, L.fmt)]
    return cli_op(f"vietoris-{carrier.split(':')[0]}", argv,
                  {"type": "vietoris", "carrier": carrier, "s": s, "t": t})


def t_vietoris_intervals(rng):
    lo, hi = rr(rng, -2, -1, 4), rr(rng, 1, 2, 4)
    grid = [lo + (hi - lo) * F(k, 8) for k in range(9)]

    def elem():
        x = rng.random()
        if x < 0.05:
            return ()
        if x < 0.1:
            return ((lo, hi),)
        cuts = sorted(rng.sample(grid, 4 if rng.random() < 0.5 else 2))
        return tuple(zip(cuts[::2], cuts[1::2]))

    elems = [elem() for _ in range(6)]
    s, t = _term_pair(rng, elems)

    def fmt_elt(e):
        if not e:
            return "0"
        if e == ((lo, hi),):
            return "1"
        return "|".join(_interval_text(pq) for pq in e)

    probes = [(x + y) / 2 for x, y in zip(grid, grid[1:])] + grid[1:-1]
    models = [()] + [(x,) for x in probes] + [
        (probes[i], probes[j]) for i in range(0, len(probes), 3) for j in range(i + 1, len(probes), 4)
    ]
    carrier = f"intervals:({fmt(lo)},{fmt(hi)})"
    argv = ["vietoris", f"--carrier={carrier}", "--leq", _term_text(s, fmt_elt), _term_text(t, fmt_elt)]
    return cli_op("vietoris-intervals", argv,
                  {"type": "vietoris", "carrier": carrier, "s": s, "t": t, "models": models})


def t_spread(rng, law):
    """Both laws admit a full binary tree, and a budget of at least the
    arity tries every child, so 2**(depth + 1) - 1 nodes are checked."""
    depth = 12
    budget = rng.choice((3, 8))
    count = 2 ** (depth + 1) - 1
    argv = ["spread", f"--law={law}", f"--depth={depth}", f"--budget={budget}"]
    return cli_op(f"spread-{law}", argv, {"type": "spread",
                                   "expect": f"ok: {count} admitted nodes to depth {depth}"})


def t_finite_cover(rng):
    lo, hi = rr(rng, -2, -1, 4), rr(rng, 1, 2, 4)

    def parts(k, maxlen):
        out = []
        for _ in range(k):
            p = rr(rng, lo, hi - F(1, 32), 32)
            out.append((p, min(hi, p + rr(rng, F(1, 32), maxlen, 32))))
        return out

    u = parts(rng.randint(1, 3), F(1, 2))
    fam = [parts(rng.randint(1, 4), F(1, 4)) for _ in range(rng.randint(40, 80))]

    def text(ps):
        return "|".join(_interval_text(pq) for pq in ps)

    truth = covered([(p, q, False) for p, q in u], [pq for ps in fam for pq in ps])
    args = {"ambient": f"{fmt(lo)},{fmt(hi)}", "u": text(u), "family": [text(ps) for ps in fam]}
    return lib_op("finite-cover", "finite_cover_decide", args, {"type": "fcd", "truth": truth})


# ---------------------------------------------------------------------------
# Workload definitions: (template, ops per pass, heavy).
#
# Each workload also carries a small fixed share of the other circles'
# cheapest ops (the "control" rows), so that every layer reports on every
# workload and a change aimed at one circle shows as no change on the
# others.
# ---------------------------------------------------------------------------


def _control_covers():
    return [
        (_kind(t_cover_reals, False), 1, False),
        (_kind(t_vietoris, "grid:3,3"), 1, False),
        (t_vietoris_intervals, 1, False),
        (_kind(t_spread, "full2"), 1, False),
        (t_finite_cover, 1, False),
        (_kind(t_tvd, False), 1, False),
    ]


def _control_located():
    return [
        (t_dist_interval, 1, False),
        (t_haus_intervals, 1, False),
        (_kind(t_plot_exact, 0), 1, False),
        (t_roundtrip_line, 1, False),
    ]


def _kind(template, k):
    return lambda rng: template(rng, k)


WORKLOADS = {
    "located-exact": [
        (_kind(t_dist_disk, False), 2, True),
        (_kind(t_dist_disk, True), 2, True),
        (t_dist_segment, 4, False),
        (t_dist_points, 3, False),
        (t_dist_points1, 2, False),
        (t_dist_interval, 3, False),
        (t_dist_cantor, 3, False),
        (_kind(t_dist_union, True), 1, True),
        (_kind(t_dist_union, False), 1, False),
        (_kind(t_haus_diameter, False), 1, True),
        (_kind(t_haus_diameter, True), 1, True),
        (t_haus_intervals, 2, False),
        (t_haus_cantor, 2, False),
        (t_haus_disks, 1, True),
        (_kind(t_haus_points, True), 1, False),
        (_kind(t_haus_points, False), 1, False),
        (t_haus_segments, 1, True),
        (_kind(t_plot_exact, 0), 1, False),
        (_kind(t_plot_exact, 1), 1, False),
        (_kind(t_plot_exact, 2), 1, False),
        (_kind(t_plot_exact, 3), 1, False),
        (_kind(t_plot_exact, 4), 1, False),
        (_kind(t_plot_exact, 5), 1, False),
        (_kind(t_roundtrip_box, 0), 1, True),
        (_kind(t_roundtrip_box, 1), 1, False),
        (_kind(t_roundtrip_box, 2), 1, False),
        (t_roundtrip_line, 3, False),
    ] + _control_covers(),
    "located-nets": [
        (t_img_dist_disk, 3, True),
        (t_img_dist_segment, 4, False),
        (t_img_dist_points, 3, False),
        (_kind(t_img_dist_line, False), 2, False),
        (_kind(t_img_dist_line, True), 2, False),
        (t_img_dist_union, 2, False),
        (_kind(t_img_haus, 0), 1, True),
        (_kind(t_img_haus, 1), 1, True),
        (_kind(t_img_haus, 2), 1, False),
        (_kind(t_img_haus, 3), 1, False),
        (_kind(t_img_plot, 0), 1, True),
        (_kind(t_img_plot, 1), 1, True),
        (_kind(t_img_plot, 2), 2, False),
        (_kind(t_img_roundtrip, False), 1, True),
        (_kind(t_img_roundtrip, True), 1, False),
    ] + _control_covers(),
    "covers-modal": [
        (_kind(t_cover_reals, False), 4, False),
        (_kind(t_cover_reals, True), 4, False),
        (lambda rng: t_cover_balls(rng, False, False), 2, False),
        (lambda rng: t_cover_balls(rng, False, True), 2, False),
        (lambda rng: t_cover_balls(rng, True, False), 2, False),
        (lambda rng: t_cover_balls(rng, True, True), 2, False),
        (_kind(t_tvd, False), 2, False),
        (_kind(t_tvd, True), 1, True),
        # Cost doubles with every carrier element, so each carrier has its own
        # row: a pass always enumerates the same carriers.
        (_kind(t_vietoris, "chain:8"), 1, False),
        (_kind(t_vietoris, "chain:12"), 1, False),
        (_kind(t_vietoris, "chain:16"), 1, True),
        (_kind(t_vietoris, "bool:3"), 1, False),
        (_kind(t_vietoris, "bool:4"), 1, True),
        (_kind(t_vietoris, "grid:2,4"), 1, False),
        (_kind(t_vietoris, "grid:3,4"), 1, False),
        (_kind(t_vietoris, "grid:4,4"), 1, True),
        (_kind(t_vietoris, "grid:2,8"), 1, True),
        (_kind(t_vietoris, "grid:3,6"), 1, True),
        (t_vietoris_intervals, 3, False),
        (_kind(t_spread, "full2"), 1, False),
        (_kind(t_spread, "cantor3"), 1, False),
        (t_finite_cover, 3, False),
    ] + _control_located(),
}


def sub_rng(workload: str, seed: int, label: str) -> random.Random:
    """Independent generator per (workload, seed, label); string seeding is
    hashed with SHA-512, so it does not depend on PYTHONHASHSEED."""
    return random.Random(f"overt-bench:{workload}:{seed}:{label}")


def make_pass(workload: str, seed: int, index: int) -> list:
    rng = sub_rng(workload, seed, f"pass{index}")
    ops = [make(rng) for make, count, _ in WORKLOADS[workload] for _ in range(count)]
    rng.shuffle(ops)
    return ops


def make_warmup(workload: str, seed: int, index: int) -> list:
    rng = sub_rng(workload, seed, f"warmup{index}")
    return [make(rng) for make, _, heavy in WORKLOADS[workload] if not heavy]
