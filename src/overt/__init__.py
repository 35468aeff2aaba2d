"""Exact computation with located sets, formal covers and the Vietoris lattice.

The package is organised around a few cooperating layers:

``reals``
    Dedekind reals as precision-indexed rational refinement processes, and
    rational brackets of square roots.
``kernel``
    Inductively generated formal covers: bases, bounded-depth derivation
    search, an independent derivation checker, sublocales and positivity
    predicates.
``intervals``
    The decidable lattice of finite unions of open rational intervals:
    gap complements, exact finite-cover decisions.
``metric``
    Formal balls over rational metric spaces and the ball base (uniform-size
    cover axioms, each a true cover of its element) handed to the kernel.
``located``
    Located sets as dichotomy oracles and two-sided epsilon-net families:
    distances, Hausdorff distance, net/predicate round trips, the
    closed-vs-positively-closed checks.
``vietoris``
    The modal lattice on generators dia/box over a carrier lattice, its
    normal form, finite-model enumeration and the model round trip.
``trees``
    Tree-presented spaces (Cantor/Baire): spread laws, bounded-horizon
    positivity for pruned trees.
``cli``
    Command line: set-spec parsing, distance/hausdorff/cover/vietoris/spread
    commands and the exact rasterizer for planar located sets.

Everything computes with ``fractions.Fraction``; there is no floating point
anywhere in the library.
"""

from overt.errors import (
    AmbientMismatch,
    InvariantViolation,
    ParseError,
    PreconditionFailed,
)

__all__ = [
    "AmbientMismatch",
    "InvariantViolation",
    "ParseError",
    "PreconditionFailed",
]

__version__ = "0.1.0"
