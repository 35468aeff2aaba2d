"""Command line: distances, Hausdorff distances, cover derivations, modal
lattice queries, spread checks, and exact plots.

Exit codes: 0 success, 1 usage, 2 parse error, 3 failed precondition
(e.g. a search depth over its cap), 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys

from overt import kernel, located, metric, plot, setspec, trees, vietoris
from overt.errors import (
    AmbientMismatch,
    InvariantViolation,
    ParseError,
    PreconditionFailed,
)
from overt.rationals import Cursor, format_interval, parse_rational, parse_rational_list

USAGE_EXIT = 1
PARSE_EXIT = 2
PRECONDITION_EXIT = 3
INTERNAL_EXIT = 4


def _is_rational_list(text: str) -> bool:
    """True for a rational or a comma list of rationals, e.g. ``-3/2,0``."""
    try:
        parse_rational_list(text)
    except ParseError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # argparse takes only decimals for negative numbers; a value such as
        # ``--point -3/2,0`` or ``--viewport -2,2,-2,2`` is a value, not an
        # option, since no option of this parser looks like a number.
        if arg_string.startswith("-") and _is_rational_list(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    p = _Parser(prog="overt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("plot", help="rasterize a planar located set to PGM")
    pl.add_argument("--set", dest="set_spec", required=True)
    pl.add_argument("--viewport", required=True, help="xmin,xmax,ymin,ymax")
    pl.add_argument("--size", required=True, help="WxH")
    pl.add_argument("--out", default=None)

    di = sub.add_parser("distance", help="distance from a point to a set")
    di.add_argument("--set", dest="set_spec", required=True)
    di.add_argument("--point", required=True, help="x or x,y")
    di.add_argument("--prec", required=True)

    ha = sub.add_parser("hausdorff", help="Hausdorff distance of two sets")
    ha.add_argument("--a", required=True)
    ha.add_argument("--b", required=True)
    ha.add_argument("--prec", required=True)

    co = sub.add_parser("cover", help="bounded-depth cover derivation search")
    co.add_argument("--space", required=True, help="reals | loc:q | loc:q2 | loc:seg:a,b")
    co.add_argument("--target", required=True)
    co.add_argument("--family", required=True, help="';'-separated elements")
    co.add_argument("--depth", required=True)
    co.add_argument("--budget", default="4",
                    help="sizes the ball bases of the loc: spaces; reals ignores it")

    vi = sub.add_parser("vietoris", help="modal-lattice inequality")
    vi.add_argument("--carrier", required=True)
    vi.add_argument("--leq", nargs=2, metavar=("S", "T"), required=True)

    sp = sub.add_parser("spread", help="spread-law successor check")
    sp.add_argument("--law", required=True, help="full2 | cantor3")
    sp.add_argument("--depth", required=True)
    sp.add_argument("--budget", default="8")
    return p


def _cmd_plot(args) -> int:
    family = setspec.parse_set_spec(args.set_spec)
    vp = parse_rational_list(args.viewport, most=4)
    if len(vp) < 4:
        raise ParseError("viewport needs xmin,xmax,ymin,ymax", len(args.viewport))
    cur = Cursor(args.size)
    width = cur.integer()
    if not (cur.match("x") or cur.match("X")):
        raise cur.error("size must be WxH, missing 'x'")
    height = cur.finish(cur.integer())
    text = plot.render_plot(plot.PlotSpec(family, tuple(vp), width, height))
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as e:
            print(f"cannot write {args.out}: {e.strerror}", file=sys.stderr)
            return PRECONDITION_EXIT
    else:
        sys.stdout.write(text)
    return 0


def _cmd_distance(args) -> int:
    family = setspec.parse_set_spec(args.set_spec)
    coords = parse_rational_list(args.point)
    if family.space is located.PLANE:
        if len(coords) != 2:
            raise PreconditionFailed("this set needs a 2-d point")
        point = (coords[0], coords[1])
    else:
        if len(coords) != 1:
            raise PreconditionFailed("this set needs a 1-d point")
        point = coords[0]
    prec = parse_rational(args.prec)
    lo, hi = located.distance_to_set(family, point).approximate(prec)
    print(format_interval(lo, hi))
    return 0


def _cmd_hausdorff(args) -> int:
    a = setspec.parse_set_spec(args.a)
    b = setspec.parse_set_spec(args.b)
    prec = parse_rational(args.prec)
    lo, hi = located.hausdorff_distance(a, b).approximate(prec)
    print(format_interval(lo, hi))
    return 0


def _space_base(name: str, budget: int):
    cur = Cursor(name)
    at = cur.skip()
    if cur.match("reals"):
        return cur.finish(kernel.FormalRealsBase())
    for prefix, space in (("loc:q2", metric.PlaneEuclid), ("loc:q", metric.RationalLine)):
        if cur.match(prefix):
            return metric.completion_base(cur.finish(space()), max(budget * 8, 16))
    if cur.match("loc:seg:"):
        at = cur.skip()
        ends = cur.finish(cur.rational_list(most=2))
        if len(ends) < 2:
            raise cur.error("loc:seg needs two endpoints", at)
        k = max(budget, 4)
        if k > metric.MAX_BALL_POINTS.bit_length():  # checked before 2**k is
            raise PreconditionFailed(
                f"loc:seg at budget {budget} needs 2**{k} + 1 ball points, "
                f"over the cap of {metric.MAX_BALL_POINTS}"
            )
        return metric.completion_base(metric.LineSegment(*ends), 2**k + 1)
    raise cur.error(f"unknown space {name!r}", at)


def _integer(text: str) -> int:
    """ASCII digits and nothing else, the one integer token."""
    return Cursor(text).parse(Cursor.integer)


def _cmd_cover(args) -> int:
    depth, budget = _integer(args.depth), _integer(args.budget)
    base = _space_base(args.space, budget)
    target = base.parse_element(args.target)
    cur = Cursor(args.family)
    family = cur.finish(cur.separated(base.read_element, ";"))
    d = kernel.derive_cover(base, target, family, depth, budget=budget)
    if d is None:
        print("unknown")
    else:
        print(kernel.serialize_derivation(base, d))
    return 0


def _cmd_vietoris(args) -> int:
    carrier = vietoris.parse_carrier(args.carrier)
    s = vietoris.parse_term(args.leq[0], carrier)
    t = vietoris.parse_term(args.leq[1], carrier)
    res = vietoris.term_leq(s, t, carrier)
    print("unknown" if res is None else ("true" if res else "false"))
    return 0


_LAWS = {
    "full2": trees.full_binary_law,
    "cantor3": trees.middle_thirds_law,
}


def _cmd_spread(args) -> int:
    depth, budget = _integer(args.depth), _integer(args.budget)
    cur = Cursor(args.law)
    at = cur.skip()
    law = _LAWS.get(cur.finish(cur.word()))
    if law is None:
        raise cur.error(f"unknown law {args.law!r}", at)
    report = trees.check_spread_mon(law(), depth, budget)
    if report.ok:
        print(f"ok: {report.checked} admitted nodes to depth {report.depth}")
    else:
        for v in report.violations:
            print(f"violation at {trees.format_node(v.node)}: {v.reason}")
    return 0


_COMMANDS = {
    "plot": _cmd_plot,
    "distance": _cmd_distance,
    "hausdorff": _cmd_hausdorff,
    "cover": _cmd_cover,
    "vietoris": _cmd_vietoris,
    "spread": _cmd_spread,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_EXIT
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return PARSE_EXIT
    except (PreconditionFailed, AmbientMismatch) as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return PRECONDITION_EXIT
    except InvariantViolation as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
