"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import random
import time
from fractions import Fraction as F
from pathlib import Path

from helpers import (
    cantor_level_intervals,
    cantor_oracle_distance,
    cantor_oracle_sup_distance,
    finite_hausdorff_leq,
    sweep_cover_oracle,
)
from overt import kernel, located, setspec
from overt.intervals import IntervalElement, finite_cover_decide
from overt.kernel import (
    EltSet,
    FormalRealsBase,
    PosClosedSub,
    SetPredicate,
    check_derivation,
    derive_cover,
    sublocale_cover,
)
from overt.located import (
    Decision,
    box_set,
    cantor_set,
    disk_set,
    distance_to_set,
    hausdorff_distance,
    interval_set,
    located_from_overt,
    meets_oracle,
    net_from_located,
    point_set,
    predicate_from_net,
    tvd_check,
    union_located,
)
from overt.metric import FormalBall, LineSegment, RationalLine, completion_base
from overt.plot import PlotSpec, pixel_radius, render_plot
from overt.trees import Positivity, closed_from_open_pos, removal_from_nodes
from overt.vietoris import (
    boolean,
    chain,
    enumerate_models,
    evaluate_nf,
    grid,
    loc_to_point,
    model_point,
    normalize,
    point_to_loc,
    validate_point,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
LINE = RationalLine()


def _report(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


# -- 1. located <-> totally bounded round trip ------------------------------


def _oracle_grid_1d(a, b, delta):
    pts = []
    x = F(a)
    while x < b:
        pts.append(x)
        x += delta
    pts.append(F(b))
    return pts


def _oracle_set(name, delta):
    if name == "interval":
        return _oracle_grid_1d(0, 1, delta), False
    if name == "two-points":
        return [F(0), F(1)], False
    if name == "cantor":
        k = 0
        while F(1, 3**k) > delta:
            k += 1
        pts = sorted({lo for lo, hi in cantor_level_intervals(k)} | {F(1)})
        return pts, False
    if name == "union":
        return _oracle_grid_1d(0, 1, delta) + _oracle_grid_1d(2, 3, delta), False
    if name == "disk":
        pts = []
        x = F(1, 4)
        while x <= F(3, 4):
            y = F(1, 4)
            while y <= F(3, 4):
                if (x - F(1, 2)) ** 2 + (y - F(1, 2)) ** 2 <= F(1, 16):
                    pts.append((x, y))
                y += delta
            x += delta
        return pts, True
    raise AssertionError(name)


def test_criterion_01_round_trip():
    start = time.monotonic()
    cases = {
        "interval": (interval_set(0, 1), interval_set(-1, 2)),
        "two-points": (point_set([0, 1]), interval_set(-1, 2)),
        "cantor": (cantor_set(), interval_set(-1, 2)),
        "union": (union_located(interval_set(0, 1), interval_set(2, 3)), interval_set(-1, 4)),
        "disk": (disk_set(F(1, 2), F(1, 2), F(1, 4)), box_set(0, 1, 0, 1)),
    }
    for name, (S, ambient) in cases.items():
        P = predicate_from_net(S)
        for eps in (F(1, 4), F(1, 16), F(1, 64)):
            kept = net_from_located(ambient, P, eps)
            assert kept, (name, eps)
            oracle, plane = _oracle_set(name, eps / 4)
            assert finite_hausdorff_leq(kept, oracle, 2 * eps, plane=plane), (name, eps)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"round trip took {elapsed:.1f}s"
    _report(1, f"net/predicate round trip within 2*eps on 5 sets x 3 eps ({elapsed:.1f}s)")


# -- 2. distance oracle ------------------------------------------------------


def test_criterion_02_distance_oracle():
    assert cantor_oracle_distance(F(1, 2), 12) == F(1, 6)  # level-12 brute force
    lo, hi = distance_to_set(cantor_set(), F(1, 2)).approximate(F(1, 64))
    assert lo <= F(1, 6) <= hi and hi - lo <= F(1, 64)
    lo2, hi2 = distance_to_set(interval_set(0, 1), F(2)).approximate(F(1, 64))
    assert lo2 <= 1 <= hi2 and hi2 - lo2 <= F(1, 64)
    _report(2, "d(1/2, cantor) brackets 1/6 and d(2, [0,1]) brackets 1 at 1/64")


# -- 3. Hausdorff ------------------------------------------------------------


def test_criterion_03_hausdorff():
    assert cantor_oracle_sup_distance(12) == F(1, 6)  # level-12 brute force
    A, C = interval_set(0, 1), cantor_set()
    lo, hi = hausdorff_distance(A, C).approximate(F(1, 64))
    assert lo <= F(1, 6) <= hi
    for eps in (F(1, 8), F(1, 64)):
        assert hausdorff_distance(A, C).approximate(eps) == hausdorff_distance(C, A).approximate(eps)
    builtins = [
        (interval_set(0, 1), F(1, 64)),
        (point_set([0, 1]), F(1, 64)),
        (cantor_set(), F(1, 64)),
        (union_located(interval_set(0, 1), interval_set(2, 3)), F(1, 64)),
        (disk_set(F(1, 2), F(1, 2), F(1, 4)), F(1, 16)),
        (located.segment_set(0, 0, 1, 1), F(1, 16)),
    ]
    for S, eps in builtins:
        lo, hi = hausdorff_distance(S, S).approximate(eps)
        assert lo == 0
    _report(3, "H([0,1], cantor) brackets 1/6; symmetry exact; H(A,A) contains 0")


# -- 4. closed vs positively closed agreement --------------------------------


def test_criterion_04_pos_notpos_agreement():
    base = completion_base(LINE, 16)
    dv = interval_set(0, 1).distance_value
    pos_pred = SetPredicate("pos01", lambda b: b is kernel.TOP or dv(b.center) < b.radius)
    neg_pred = SetPredicate("neg01", lambda b: b is not kernel.TOP and not dv(b.center) < b.radius)
    subl = PosClosedSub(pos_pred)
    rng = random.Random(2024)
    depth, handicap, budget = 3, 2, 3
    checked = disagreements = 0
    while checked < 100:
        u = base.sample_elements(rng, 1)[0]
        insts = base.axiom_instances(u, 3)
        if not insts:
            continue
        _, fam = insts[rng.randrange(len(insts))]
        V = tuple(f for f in fam if rng.random() < 0.7)
        checked += 1
        closed_target = EltSet(listed=V, predicates=(neg_pred,))
        closed = derive_cover(base, u, closed_target, depth, budget=budget)
        posside = sublocale_cover(base, subl, u, EltSet(listed=V), depth, budget=budget)
        if closed is not None:
            other = sublocale_cover(base, subl, u, EltSet(listed=V), depth + handicap, budget=budget)
            if other is None:
                disagreements += 1
        if posside is not None:
            other = derive_cover(base, u, closed_target, depth + handicap, budget=budget)
            if other is None:
                disagreements += 1
    assert disagreements == 0
    _report(4, f"closed/positively-closed derivability agrees (+{handicap} depth) on {checked} judgments")


# -- 5. overt closed implies located -----------------------------------------


def test_criterion_05_overt_to_located():
    start = time.monotonic()
    amb = (F(-1), F(2))
    sets = [interval_set(0, 1), point_set([0, 1]), cantor_set(),
            union_located(interval_set(0, F(1, 4)), interval_set(F(1, 2), 1))]
    rng = random.Random(555)
    total = unsound = mismatches = 0
    min_gap = F(1, 2**10)
    for S in sets:
        derived = located_from_overt(meets_oracle(S, amb), amb)
        exact = predicate_from_net(S)
        dv = S.distance_value
        for _ in range(250):
            den = 2**10
            x = F(rng.randint(-den, 2 * den), den)
            r = F(rng.randint(1, den), den)
            gap = F(rng.randint(1, den), den) + min_gap
            inner, outer = FormalBall(x, r), FormalBall(x, r + gap)
            a = derived.decide(inner, outer)
            b = exact.decide(inner, outer)
            total += 1
            if a != b:
                mismatches += 1
            if a is Decision.POS_OUTER and not dv(x) < r + gap:
                unsound += 1
            if a is Decision.NOT_POS_INNER and dv(x) < r:
                unsound += 1
    elapsed = time.monotonic() - start
    assert total == 1000 and unsound == 0 and mismatches == 0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(5, f"derived dichotomies match exact predicates on {total} pairs ({elapsed:.1f}s)")


# -- 6. the containment equivalence ------------------------------------------


def test_criterion_06_tvd():
    seg = LineSegment(F(-1), F(2))

    def balls(*specs):
        return [FormalBall(F(c), F(r)) for c, r in specs]

    cases = []
    # true with margin: [a, b] inside the union of the open balls
    for a, b, Z in [
        (0, F(1, 2), balls((F(1, 4), F(3, 4)))),
        (0, F(1, 2), balls((0, F(1, 2)), (F(1, 2), F(1, 2)))),
        (F(1, 4), F(1, 2), balls((F(3, 8), F(1, 2)))),
        (0, 1, balls((F(1, 2), F(5, 4)))),
        (F(-1, 2), F(3, 2), balls((F(1, 2), F(7, 4)))),
        (0, F(1, 4), balls((F(1, 8), F(1, 2)), (1, F(1, 4)))),
        (F(1, 2), F(3, 4), balls((F(5, 8), F(1, 2)))),
        (0, F(1, 2), [FormalBall(F(1, 2), F(2))]),  # Z swallows the space
        (F(-1, 2), 0, balls((F(-1, 4), F(3, 4)))),
        (1, F(5, 4), balls((F(9, 8), F(1, 2)))),
        (0, F(1, 8), balls((F(1, 16), F(1, 4)))),
        (F(3, 4), 1, balls((F(7, 8), F(3, 8)))),
    ]:
        cases.append((F(a), F(b), Z, True))
    # false: some set point escapes the union
    for a, b, Z in [
        (0, F(3, 2), balls((F(1, 4), F(1, 2)))),
        (0, 1, balls((0, F(1, 2)))),
        (0, F(1, 2), []),
        (F(-1, 2), F(3, 2), balls((0, F(1, 4)), (1, F(1, 4)))),
        (0, 1, balls((F(1, 2), F(1, 4)))),
        (F(1, 4), F(3, 4), balls((2, F(1, 8)))),
        (0, F(1, 2), balls((F(3, 4), F(1, 8)))),
        (F(-3, 4), F(7, 4), balls((F(1, 2), 1))),
    ]:
        cases.append((F(a), F(b), Z, False))
    assert len(cases) == 20

    def ground_truth(a, b, Z):
        # [a, b] inside the union of open intervals: endpoint sweep
        segs = sorted((z.center - z.radius, z.center + z.radius) for z in Z)
        covered_to = None
        for lo, hi in segs:
            if covered_to is None:
                if lo < a if a > -1 else lo <= a:
                    covered_to = hi
            elif lo < covered_to:
                covered_to = max(covered_to, hi)
        if covered_to is None:
            return False
        # open cover of a closed interval: both ends strictly inside
        first = segs[0]
        return first[0] < a and covered_to > b

    contradictions = holds = 0
    for a, b, Z, truth in cases:
        assert ground_truth(a, b, Z) == truth  # the constructions line up
        P = predicate_from_net(interval_set(a, b, space=seg))
        rep = tvd_check(P, Z, depth=4, budget=200)
        if rep.verdict == "holds":
            holds += 1
            if not truth:
                contradictions += 1
        elif truth:
            pass  # Unknown on a true case is honest, but we expect none here
    assert contradictions == 0
    assert holds == sum(1 for *_, t in cases if t)  # all margin-true cases found
    _report(6, f"containment check: {holds} hold, 0 contradictions on 20 cases")


# -- 7. the modal lattice -----------------------------------------------------


def _random_term(L, rng, depth=4):
    from overt.vietoris import Box, Dia, TERM_ONE, TERM_ZERO, TermJoin, TermMeet

    elems = L.elements()
    if depth == 0 or rng.random() < 0.3:
        k = rng.randrange(4)
        if k == 0:
            return Dia(elems[rng.randrange(len(elems))])
        if k == 1:
            return Box(elems[rng.randrange(len(elems))])
        return TERM_ZERO if k == 2 else TERM_ONE
    ctor = TermMeet if rng.random() < 0.5 else TermJoin
    return ctor(_random_term(L, rng, depth - 1), _random_term(L, rng, depth - 1))


def test_criterion_07_vietoris():
    assert len(enumerate_models(chain(3))) == 3
    carriers = [chain(2), chain(3), chain(4), chain(5), boolean(3), grid(2, 2)]
    rng = random.Random(707)
    for L in carriers:
        models = enumerate_models(L)
        for pos in models:
            assert validate_point(model_point(L, pos), L) == []  # all six relations
            assert point_to_loc(loc_to_point(pos, L), L) == pos  # round trip
        points = [model_point(L, m) for m in models]
        for _ in range(200):
            t = _random_term(L, rng)
            nf = normalize(t, L)
            for p in points:
                assert p.evaluate(t) == evaluate_nf(nf, p)
    _report(7, "3 chain:3 models; round trip, relations and normal forms on 6 carriers")


# -- 8. kernel soundness ------------------------------------------------------


def test_criterion_08_kernel_soundness():
    reals = FormalRealsBase()
    fam = [(F(0), F(2)), (F(1), F(3))]
    d = derive_cover(reals, (F(0), F(3)), fam, 2)
    assert d is not None and check_derivation(reals, d, (F(0), F(3)), fam)

    rng = random.Random(808)
    ball_base = completion_base(LINE, 12)
    dv = interval_set(0, 1).distance_value
    neg_pred = SetPredicate("neg01", lambda b: b is not kernel.TOP and not dv(b.center) < b.radius)
    pos_pred = SetPredicate("pos01", lambda b: b is kernel.TOP or dv(b.center) < b.radius)

    checked = 0
    while checked < 500:
        kind = rng.randrange(4)
        if kind == 0:
            u = reals.sample_elements(rng, 1)[0]
            p, s = u
            mid1 = p + (s - p) * F(rng.randint(1, 3), 4)
            mid2 = p + (s - p) * F(rng.randint(1, 3), 4)
            if mid1 == mid2:
                continue
            q, r = min(mid1, mid2), max(mid1, mid2)
            fam = [(p, r), (q, s)]
            if rng.random() < 0.5:
                fam.append(reals.sample_elements(rng, 1)[0])
            dvn = derive_cover(reals, u, fam, 3)
            if dvn is None:
                continue
            assert check_derivation(reals, dvn, u, fam)
        elif kind == 1:
            u = ball_base.sample_elements(rng, 1)[0]
            insts = ball_base.axiom_instances(u, 2)
            if not insts:
                continue
            _, fam = insts[rng.randrange(len(insts))]
            dvn = derive_cover(ball_base, u, fam, 2, budget=2)
            if dvn is None:
                continue
            assert check_derivation(ball_base, dvn, u, fam)
        elif kind == 2:
            spec = kernel.ClosedSub(predicates=(neg_pred,))
            u = ball_base.sample_elements(rng, 1)[0]
            insts = ball_base.axiom_instances(u, 2)
            if not insts:
                continue
            _, fam = insts[rng.randrange(len(insts))]
            V = tuple(f for f in fam if rng.random() < 0.6)
            dvn = sublocale_cover(ball_base, spec, u, V, 3, budget=2)
            if dvn is None:
                continue
            assert check_derivation(ball_base, dvn, u, V, sublocale=spec)
        else:
            spec = PosClosedSub(pos_pred)
            u = ball_base.sample_elements(rng, 1)[0]
            insts = ball_base.axiom_instances(u, 2)
            if not insts:
                continue
            _, fam = insts[rng.randrange(len(insts))]
            V = tuple(f for f in fam if rng.random() < 0.6)
            dvn = sublocale_cover(ball_base, spec, u, V, 3, budget=2)
            if dvn is None:
                continue
            assert check_derivation(ball_base, dvn, u, V, sublocale=spec)
        checked += 1
    _report(8, f"{checked} searched derivations all pass the independent checker")


# -- 9. finitary Heine-Borel --------------------------------------------------


def test_criterion_09_finite_covers():
    amb = (F(-1), F(2))
    rng = random.Random(909)

    def rand_elt():
        parts = []
        for _ in range(rng.randint(0, 3)):
            den = 2 ** rng.randint(2, 5)
            a = rng.randint(-den, 2 * den - 1)
            b = rng.randint(a + 1, 2 * den)
            parts.append((F(a, den), F(b, den)))
        return IntervalElement.make(amb, parts)

    agree = 0
    for _ in range(1000):
        u = rand_elt()
        fam = [rand_elt() for _ in range(rng.randint(0, 4))]
        got = finite_cover_decide(u, fam)
        expect = sweep_cover_oracle(u.parts, [e.parts for e in fam], amb)
        assert got == expect
        agree += 1
    _report(9, f"finite cover decision agrees with the endpoint sweep on {agree} families")


# -- 10. decidability on the binary tree --------------------------------------


def test_criterion_10_coherent_decidability():
    rng = random.Random(1010)
    for trial in range(3):
        removed = []
        for _ in range(rng.randint(4, 14)):
            depth = rng.randint(1, 8)
            removed.append(tuple(rng.randint(0, 1) for _ in range(depth)))
        rem = removal_from_nodes(removed, arity=2)
        unknowns = 0
        frontier = [()]
        for _ in range(13):  # nodes of depth 0..12
            for node in frontier:
                if closed_from_open_pos(rem, node, 12) is Positivity.UNKNOWN_BEYOND_HORIZON:
                    unknowns += 1
            frontier = [n + (d,) for n in frontier for d in (0, 1)]
            if len(frontier) > 4096:
                frontier = frontier[:4096]
        assert unknowns == 0
    _report(10, "binary-tree positivity definite for all nodes to depth 12")


# -- 11. plot goldens ----------------------------------------------------------


def test_criterion_11_plot_goldens():
    cases = {
        "disk_16": ("disk:1/2,1/2,1/4", 16),
        "disk_32": ("disk:1/2,1/2,1/4", 32),
        "twopoints_16": ("points:(1/4,1/4);(3/4,3/4)", 16),
        "twopoints_32": ("points:(1/4,1/4);(3/4,3/4)", 32),
    }
    for name, (text, n) in cases.items():
        S = setspec.parse_set_spec(text)
        rendered = render_plot(PlotSpec(S, (0, 1, 0, 1), n, n))
        golden = (GOLDEN_DIR / f"{name}.pgm").read_text(encoding="ascii")
        assert rendered == golden, name

    # per-pixel accuracy at 32x32 against closed-form distances
    for name, anchors, disk in (
        ("disk_32", [(F(1, 2), F(1, 2))], True),
        ("twopoints_32", [(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))], False),
    ):
        n = 32
        r = pixel_radius(F(1, n), F(1, n))
        rows = (GOLDEN_DIR / f"{name}.pgm").read_text().strip().split("\n")[3:]
        for i, row in enumerate(rows):
            for j, val in enumerate(row.split()):
                cx, cy = F(2 * j + 1, 2 * n), 1 - F(2 * i + 1, 2 * n)
                dsq = min((cx - ax) ** 2 + (cy - ay) ** 2 for ax, ay in anchors)
                if disk:
                    inside = dsq <= F(1, 16)
                    if val == "0":
                        assert inside or dsq < (F(1, 4) + 2 * r) ** 2
                    else:
                        assert not inside and dsq >= (F(1, 4) + r) ** 2
                else:
                    if val == "0":
                        assert dsq < (2 * r) ** 2
                    else:
                        assert dsq >= r * r
    _report(11, "4 goldens byte-identical; 32x32 pixels certified against closed forms")
