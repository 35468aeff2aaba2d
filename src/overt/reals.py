"""Dedekind reals as rational refinement processes.

A ``DedekindReal`` is a pure function from a requested precision ``eps > 0``
to a closed rational interval ``[a, b]`` with ``b - a <= eps``.  Any two
returned intervals intersect, so the number is the unique point in the
intersection of all of them.  Every query is a total call: no partiality, no
digit streams, no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable

from overt.errors import PreconditionFailed

Interval = tuple[Fraction, Fraction]


class DedekindReal:
    """A real number queried by precision.

    ``refine`` maps a positive rational eps to a closed rational interval of
    width <= eps containing the number.  Each query calls ``refine`` and
    checks its answer; nothing is kept between queries.
    """

    def __init__(self, refine: Callable[[Fraction], Interval], name: str = "real"):
        self._refine = refine
        self._name = name

    def approximate(self, eps: Fraction) -> Interval:
        eps = Fraction(eps)
        if eps <= 0:
            raise PreconditionFailed(f"precision must be positive, got {eps}")
        lo, hi = self._refine(eps)
        lo, hi = Fraction(lo), Fraction(hi)
        if hi - lo > eps:
            raise PreconditionFailed(
                f"refiner for {self._name} returned width {hi - lo} > {eps}"
            )
        if lo > hi:
            raise PreconditionFailed(f"refiner for {self._name} returned empty interval")
        return (lo, hi)

    def __repr__(self):
        """The name only; never refines."""
        return f"DedekindReal({self._name})"


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
