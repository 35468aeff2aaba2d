import random
from fractions import Fraction as F

import pytest

from helpers import sweep_cover_oracle
from overt.errors import AmbientMismatch
from overt.intervals import (
    IntervalElement,
    finite_cover_decide,
    gap_complement,
    join,
    join_all,
    lattice_leq,
    meet,
    parse_element,
)

AMB = (F(-1), F(2))


def elt(*parts):
    return IntervalElement.make(AMB, parts)


def rand_elt(rng, max_parts=3):
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        den = 2 ** rng.randint(2, 5)
        a = rng.randint(-den, 2 * den - 1)
        b = rng.randint(a + 1, 2 * den)
        parts.append((F(-0) + F(a, den), F(b, den)))
    return elt(*parts)


class TestLattice:
    def test_leq_examples(self):
        assert lattice_leq(elt((0, 1)), elt((0, 1), (2, F(5, 2))))
        assert not lattice_leq(elt((0, 2)), elt((0, 1), (1, 2)))  # 1 uncovered
        assert lattice_leq(IntervalElement.zero(AMB), elt((0, 1)))

    def test_touching_parts_stay_split(self):
        e = elt((0, 1), (1, 2))
        assert e.parts == ((F(0), F(1)), (F(1), F(2)))
        assert join(elt((0, 1)), elt((1, 2))).parts == e.parts

    def test_overlapping_parts_merge(self):
        assert elt((0, 1), (F(1, 2), 2)).parts == ((F(0), F(2)),)

    def test_meet(self):
        assert meet(elt((0, 1)), elt((F(1, 2), 2))).parts == ((F(1, 2), F(1)),)
        assert meet(elt((0, 1)), elt((1, 2))).is_zero

    def test_ambient_mismatch(self):
        other = IntervalElement.make((F(0), F(1)), [(F(0), F(1))])
        with pytest.raises(AmbientMismatch):
            lattice_leq(elt((0, 1)), other)

    def test_parse_round_trip(self):
        e = elt((0, 1), (F(3, 2), 2))
        assert parse_element(str(e), AMB) == e
        assert parse_element("0", AMB).is_zero
        assert parse_element("1", AMB).is_one


def closure_contained_oracle(u, v):
    """Independent decision of 'ambient closure of u inside v'."""
    lo_amb, hi_amb = u.ambient
    for p, q in u.parts:
        ok = False
        for r, s in v.parts:
            left_ok = r < p or (r == p == lo_amb)
            right_ok = q < s or (q == s == hi_amb)
            if left_ok and right_ok:
                ok = True
                break
        if not ok:
            return False
    return True


def well_inside(u, v):
    """u << v decided by the gap complement of u, the largest element
    disjoint from u: some w has u & w = 0 and v | w = 1 iff it does."""
    return join(v, gap_complement(u)).is_one


class TestWellInside:
    def test_example_witness(self):
        u, v = elt((F(1, 4), F(1, 2))), elt((0, 1))
        w = gap_complement(u)
        assert w.parts == ((F(-1), F(1, 4)), (F(1, 2), F(2)))
        assert meet(u, w).is_zero
        assert join(v, w).is_one

    def test_shared_endpoints(self):
        assert not well_inside(elt((0, 1)), elt((0, 1)))

    def test_bottom(self):
        assert gap_complement(IntervalElement.zero(AMB)).is_one
        assert well_inside(IntervalElement.zero(AMB), elt((0, 1)))

    def test_matches_closure_oracle(self):
        rng = random.Random(42)
        hits = 0
        for _ in range(500):
            u, v = rand_elt(rng), rand_elt(rng)
            assert meet(u, gap_complement(u)).is_zero
            got = well_inside(u, v)
            assert got == closure_contained_oracle(u, v)
            hits += got
        assert hits > 20  # the sample actually exercises the positive case

    def test_transitive_with_leq(self):
        rng = random.Random(7)
        for _ in range(200):
            u, v, w = rand_elt(rng), rand_elt(rng), rand_elt(rng)
            if well_inside(u, v) and lattice_leq(v, w):
                assert well_inside(u, w)


class TestFiniteCover:
    def test_heine_borel_example(self):
        fam = [elt((-1, F(3, 5))), elt((F(2, 5), 2))]
        assert finite_cover_decide(IntervalElement.one(AMB), fam)

    def test_uncovered(self):
        assert not finite_cover_decide(elt((0, 1)), [elt((0, F(1, 2)))])
        # the escaping element named by the math: (1/4, 3/4) is well inside
        y = elt((F(1, 4), F(3, 4)))
        assert well_inside(y, elt((0, 1)))
        assert not lattice_leq(y, elt((0, F(1, 2))))

    def test_bottom_empty(self):
        assert finite_cover_decide(IntervalElement.zero(AMB), [])

    def test_adding_bottom_neutral(self):
        rng = random.Random(23)
        for _ in range(100):
            u = rand_elt(rng)
            fam = [rand_elt(rng) for _ in range(rng.randint(0, 3))]
            with_bot = fam + [IntervalElement.zero(AMB)]
            assert finite_cover_decide(u, fam) == finite_cover_decide(u, with_bot)

    def test_matches_sweep_oracle(self):
        rng = random.Random(29)
        for _ in range(300):
            u = rand_elt(rng)
            fam = [rand_elt(rng) for _ in range(rng.randint(0, 4))]
            got = finite_cover_decide(u, fam)
            expect = sweep_cover_oracle(u.parts, [e.parts for e in fam], AMB)
            assert got == expect

    def test_gap_complement_is_maximal_disjoint(self):
        rng = random.Random(31)
        for _ in range(100):
            u = rand_elt(rng)
            w = gap_complement(u)
            assert meet(u, w).is_zero
            assert join_all(AMB, [u, w]).parts if u.parts or w.parts else True
