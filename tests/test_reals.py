from fractions import Fraction as F

import pytest

from helpers import sqrt2_refiner
from overt import located
from overt.errors import PreconditionFailed
from overt.reals import DedekindReal, sqrt_bounds


def sqrt2():
    return DedekindReal(sqrt2_refiner, name="sqrt2-oracle")


class TestRefinementInvariants:
    def test_intervals_intersect_across_precisions(self):
        reals = (
            sqrt2(),
            DedekindReal(lambda e: sqrt_bounds(5, e), name="sqrt5"),
            # 7/3, exact: every bracket is the point itself.
            located.distance_to_set(located.interval_set(0, 1), F(10, 3)),
            # sqrt 10 - 1, from the disk's integer comparison.
            located.distance_to_set(located.disk_set(0, 0, 1), (F(3), F(1))),
            # 1/6, from the cell descent.
            located.hausdorff_distance(located.interval_set(0, 1), located.cantor_set()),
        )
        for x in reals:
            eps = [F(1, 2**k) for k in range(1, 21)]
            boxes = [x.approximate(e) for e in eps]
            for (e1, (lo1, hi1)) in zip(eps, boxes):
                for (e2, (lo2, hi2)) in zip(eps, boxes):
                    assert max(lo1, lo2) <= min(hi1, hi2)
                    if e1 < e2:  # finer interval sits inside the widened coarse one
                        assert lo2 - e2 <= lo1 and hi1 <= hi2 + e2

    def test_width_bound_enforced(self):
        bad = DedekindReal(lambda eps: (F(0), F(2)), name="bad")
        with pytest.raises(PreconditionFailed):
            bad.approximate(F(1, 2))

    def test_repr_never_refines(self):
        def never(eps):
            raise AssertionError(f"refined at {eps}")

        assert repr(DedekindReal(never, name="x")) == "DedekindReal(x)"
