"""The two faces of locatedness, and the conversion between them.

A located set can be handed around either as a family of finite
epsilon-nets (total boundedness made executable) or as a dichotomy oracle
(for nested balls, either the inner ball certifiably misses the set or the
outer one certifiably meets it).  Each presentation computes the other.
"""

from fractions import Fraction as F

from overt.located import (
    Decision,
    decide_located_pair,
    interval_set,
    net_from_located,
    point_set,
    predicate_from_net,
)
from overt.metric import FormalBall

# Start from the two-point set {0, 1} given by its dichotomy oracle.
two_points = point_set([0, 1])
oracle = predicate_from_net(two_points)

# Ask the oracle questions.  Near 1 the inner ball of radius 1/4 around
# x = 1/2 misses; the outer ball around 0.9 meets.
print("around 1/2:", decide_located_pair(oracle, FormalBall(F(1, 2), F(1, 4)), FormalBall(F(1, 2), F(2, 5))))
print("around 9/10:", decide_located_pair(oracle, FormalBall(F(9, 10), F(1, 8)), FormalBall(F(9, 10), F(1, 4))))

# Rebuild a net of the set from nothing but the oracle, by filtering an
# ambient net: probe every candidate point with one nested-ball question.
ambient = interval_set(-1, 2)
for eps in (F(1, 2), F(1, 8), F(1, 32)):
    kept = net_from_located(ambient, oracle, eps)
    near_zero = [x for x in kept if abs(x) <= 2 * eps / 3]
    near_one = [x for x in kept if abs(x - 1) <= 2 * eps / 3]
    print(f"eps={eps}: kept {len(kept)} points, all within {2*eps/3} of the set "
          f"({len(near_zero)} near 0, {len(near_one)} near 1)")
    assert len(near_zero) + len(near_one) == len(kept)

# A dichotomy that never certifies contact yields an empty filtered net:
# the set may be empty, and the computation honestly says so.
from overt.located import LocatedPredicate, LINE

never = LocatedPredicate(LINE, lambda i, o: Decision.NOT_POS_INNER, name="never")
print("never-meets filtered net:", net_from_located(ambient, never, F(1, 4)))
