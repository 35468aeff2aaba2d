"""Distances to located sets, computed exactly at any requested precision.

A located set answers distance queries as genuine Dedekind reals: you pick
the precision, it returns a rational interval of at most that width around
the true value.  No floats are involved at any point.
"""

from fractions import Fraction as F

from overt.located import (
    cantor_set,
    distance_to_set,
    hausdorff_distance,
    interval_set,
    point_set,
    union_located,
)
from overt.rationals import format_interval


def show(label, real, prec):
    lo, hi = real.approximate(prec)
    print(f"{label:42} -> {format_interval(lo, hi)}   (width <= {prec})")


# The distance from 2 to [0, 1] is exactly 1.  The interval knows its own
# distance function, so every precision returns the exact bracket [1, 1].
d = distance_to_set(interval_set(0, 1), F(2))
for prec in (F(1, 4), F(1, 64), F(1, 4096)):
    show("d(2, [0,1])", d, prec)

# The middle-thirds set: the point 1/2 sits in the central gap, so its
# distance is 1/6 (realized at the gap endpoints 1/3 and 2/3).
d = distance_to_set(cantor_set(), F(1, 2))
show("d(1/2, cantor)", d, F(1, 64))

# Finite unions stay located; the distance from the midpoint of the gap
# between [0,1] and [2,3] is exactly 1/2.
U = union_located(interval_set(0, 1), interval_set(2, 3))
show("d(3/2, [0,1] | [2,3])", distance_to_set(U, F(3, 2)), F(1, 64))

# Hausdorff distance: how far apart are two sets as wholes?  The unit
# interval and the middle-thirds set differ by exactly 1/6 (the deepest
# point of the widest gap).
h = hausdorff_distance(interval_set(0, 1), cantor_set())
show("H([0,1], cantor)", h, F(1, 64))

# Symmetry is exact, not approximate: both orders give identical intervals.
h_ab = hausdorff_distance(interval_set(0, 1), point_set([0, 1]))
h_ba = hausdorff_distance(point_set([0, 1]), interval_set(0, 1))
assert h_ab.approximate(F(1, 128)) == h_ba.approximate(F(1, 128))
show("H([0,1], {0,1})", h_ab, F(1, 128))
