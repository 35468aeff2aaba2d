"""Dedekind and upper reals as rational refinement processes.

A ``DedekindReal`` is a pure function from a requested precision ``eps > 0``
to a closed rational interval ``[a, b]`` with ``b - a <= eps``.  Any two
returned intervals intersect, so the number is the unique point in the
intersection of all of them.  Every query is a total call: no partiality, no
digit streams, no floating point.

An ``UpperReal`` is the dual one-sided object: a non-increasing stream of
rational upper bounds.  It carries no lower information; it becomes a
Dedekind real exactly when a locatedness witness (a gap dichotomy) is
supplied, which is what :func:`upper_to_dedekind` does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Sequence

from overt.errors import PreconditionFailed
from overt.rationals import format_interval

Interval = tuple[Fraction, Fraction]


class GapDecision(enum.Enum):
    """Answer of a gap comparison for a query ``s < t``.

    LOWER_SIDE certifies that the number exceeds ``s``;
    UPPER_SIDE certifies that the number is below ``t``.
    """

    LOWER_SIDE = "lower"
    UPPER_SIDE = "upper"


class DedekindReal:
    """A real number queried by precision.

    ``refine`` maps a positive rational eps to a closed rational interval of
    width <= eps containing the number.  Queries are memoized; the memo is
    observationally invisible because ``refine`` is required to be pure.
    """

    def __init__(self, refine: Callable[[Fraction], Interval], name: str = "real"):
        self._refine = refine
        self._name = name
        self._memo: dict[Fraction, Interval] = {}

    def approximate(self, eps: Fraction) -> Interval:
        eps = Fraction(eps)
        if eps <= 0:
            raise PreconditionFailed(f"precision must be positive, got {eps}")
        cached = self._memo.get(eps)
        if cached is not None:
            return cached
        lo, hi = self._refine(eps)
        lo, hi = Fraction(lo), Fraction(hi)
        if hi - lo > eps:
            raise PreconditionFailed(
                f"refiner for {self._name} returned width {hi - lo} > {eps}"
            )
        if lo > hi:
            raise PreconditionFailed(f"refiner for {self._name} returned empty interval")
        self._memo[eps] = (lo, hi)
        return (lo, hi)

    def __repr__(self):
        """The name and the tightest bracket already computed; never refines."""
        if not self._memo:
            return f"DedekindReal({self._name})"
        lo, hi = min(self._memo.values(), key=lambda b: b[1] - b[0])
        return f"DedekindReal({self._name} ~ {format_interval(lo, hi)})"


@dataclass(frozen=True)
class UpperReal:
    """Non-increasing stream of rational upper bounds.

    A rational q belongs to the upper cut iff some ``bound(n) < q``.
    """

    bound: Callable[[int], Fraction]
    name: str = "upper"

    def bounds(self, count: int) -> list[Fraction]:
        return [Fraction(self.bound(n)) for n in range(count)]


def from_rational(q: Fraction) -> DedekindReal:
    q = Fraction(q)
    return DedekindReal(lambda eps: (q, q), name=str(q))


def compare_with_gap(x: DedekindReal, s: Fraction, t: Fraction) -> GapDecision:
    """Locate x against a rational gap s < t.

    Queries x at precision (t - s) / 2, half the gap.  When the returned
    interval clears s from above, the lower side is certain; otherwise the
    interval's upper end is below the gap midpoint, hence below t.
    """
    s, t = Fraction(s), Fraction(t)
    if s >= t:
        raise PreconditionFailed(f"need s < t, got {s} >= {t}")
    lo, hi = x.approximate((t - s) / 2)
    if lo > s:
        return GapDecision.LOWER_SIDE  # s < lo <= x
    return GapDecision.UPPER_SIDE  # x <= hi <= lo + (t-s)/2 <= (s+t)/2 < t


def min_finite(xs: Sequence[DedekindReal]) -> DedekindReal:
    """Minimum of a nonempty finite list, computed componentwise."""
    xs = list(xs)
    if not xs:
        raise PreconditionFailed("min_finite needs a nonempty list")

    def refine(eps: Fraction) -> Interval:
        boxes = [x.approximate(eps) for x in xs]
        return (min(lo for lo, _ in boxes), min(hi for _, hi in boxes))

    return DedekindReal(refine, name="min")


def scale_shift(x: DedekindReal, a: Fraction, b: Fraction) -> DedekindReal:
    """The affine image a*x + b (a, b rational)."""
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        return from_rational(b)

    def refine(eps: Fraction) -> Interval:
        lo, hi = x.approximate(eps / abs(a))
        ends = (a * lo + b, a * hi + b)
        return (min(ends), max(ends))

    return DedekindReal(refine, name="affine")


def upper_to_dedekind(
    u: UpperReal, witness: Callable[[Fraction, Fraction], GapDecision]
) -> DedekindReal:
    """Turn an upper real into a Dedekind real using a locatedness witness.

    The witness answers gap queries (s, t): LOWER_SIDE promises the infimum
    exceeds s, UPPER_SIDE promises it is below t.  Soundness of the witness
    is the caller's contract.  The construction first gallops downward to
    find a lower bound (each rejected probe improves the upper bound, and
    once both probe points drop below the infimum only LOWER_SIDE is sound,
    so the gallop terminates), then narrows the bracket by trisection,
    pulling the upper end down with the bound stream as it goes.
    """

    def refine(eps: Fraction) -> Interval:
        hi = Fraction(u.bound(0))
        # Gallop for a lower bound.
        step = Fraction(1)
        lo = None
        while lo is None:
            s = hi - step
            t = s + min(step, eps) / 2
            if witness(s, t) is GapDecision.LOWER_SIDE:
                lo = s
            else:
                hi = min(hi, t)
            step *= 2
        # Trisect, folding in stream bounds.
        n = 1
        while hi - lo > eps:
            hi = min(hi, Fraction(u.bound(n)))
            n += 1
            if hi - lo <= eps:
                break
            if hi <= lo:
                # Unreachable for a sound witness/stream pair (bounds stay
                # above the infimum, certified lower cuts stay below it).
                return (hi, hi)
            s = lo + (hi - lo) / 3
            t = lo + 2 * (hi - lo) / 3
            if witness(s, t) is GapDecision.LOWER_SIDE:
                lo = s
            else:
                hi = t
        return (lo, hi)

    return DedekindReal(refine, name=f"located({u.name})")


def exact_gap_witness(value: Fraction) -> Callable[[Fraction, Fraction], GapDecision]:
    """Gap witness for a known rational value (ties answer UPPER_SIDE)."""
    value = Fraction(value)

    def witness(s: Fraction, t: Fraction) -> GapDecision:
        if s >= t:
            raise PreconditionFailed(f"need s < t, got {s} >= {t}")
        return GapDecision.LOWER_SIDE if s < value else GapDecision.UPPER_SIDE

    return witness


def gap_witness_of(x: DedekindReal) -> Callable[[Fraction, Fraction], GapDecision]:
    """Gap witness backed by an existing refinement process."""
    return lambda s, t: compare_with_gap(x, s, t)


def sqrt_bounds(x: Fraction, eps: Fraction) -> Interval:
    """Rational bracket of sqrt(x) of width <= eps, via integer square roots."""
    x = Fraction(x)
    if x < 0:
        raise PreconditionFailed(f"sqrt of negative rational {x}")
    if x == 0:
        return (Fraction(0), Fraction(0))
    # Choose scale 2^k with 1/2^k <= eps, then isqrt at that scale.
    k = 0
    while Fraction(1, 2**k) > eps:
        k += 1
    scale = 2**k
    # sqrt(p/q) = sqrt(p*q)/q; bracket sqrt(p*q) at integer scale.
    p, q = x.numerator, x.denominator
    n = p * q * scale * scale
    r = isqrt(n)
    lo = Fraction(r, q * scale)
    hi = Fraction(r + 1, q * scale)
    if r * r == n:
        hi = lo
    return (lo, hi)


def sqrt_real(x: Fraction) -> DedekindReal:
    """sqrt of a nonnegative rational as a refinement process."""
    x = Fraction(x)
    return DedekindReal(lambda eps: sqrt_bounds(x, eps), name=f"sqrt({x})")
