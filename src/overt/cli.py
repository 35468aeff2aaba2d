"""Command line: distances, Hausdorff distances, cover derivations, modal
lattice queries, spread checks, and exact plots.

Exit codes: 0 success, 1 usage, 2 parse error, 3 failed precondition
(e.g. a possibly-empty set), 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from overt import kernel, located, metric, plot, setspec, trees, vietoris
from overt.errors import (
    AmbientMismatch,
    EmptySetError,
    InvariantViolation,
    ParseError,
    PreconditionFailed,
    UndecidableComparison,
)
from overt.rationals import format_interval, parse_rational, parse_rational_list

USAGE_EXIT = 1
PARSE_EXIT = 2
PRECONDITION_EXIT = 3
INTERNAL_EXIT = 4


def _is_rational_list(text: str) -> bool:
    """True for a rational or a comma list of rationals, e.g. ``-3/2,0``."""
    try:
        for part in text.split(","):
            Fraction(part)
    except (ValueError, ZeroDivisionError):
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
    co.add_argument("--depth", type=int, required=True)
    co.add_argument("--budget", type=int, default=4)

    vi = sub.add_parser("vietoris", help="modal-lattice inequality")
    vi.add_argument("--carrier", required=True)
    vi.add_argument("--leq", nargs=2, metavar=("S", "T"), required=True)

    sp = sub.add_parser("spread", help="spread-law successor check")
    sp.add_argument("--law", required=True, help="full2 | cantor3")
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--budget", type=int, default=8)
    return p


def _parse_size(text: str) -> tuple[int, int]:
    """``WxH``; a malformed part is reported at its offset."""
    parts = text.lower().split("x")
    if len(parts) < 2:
        raise ParseError("size must be WxH, missing 'x'", len(text))
    if len(parts) > 2:
        at = len(parts[0]) + 1 + len(parts[1])
        raise ParseError(f"size must be WxH, trailing input {text[at:]!r}", at)
    dims, at = [], 0
    for part in parts:
        try:
            dims.append(int(part))
        except ValueError:
            lead = at + len(part) - len(part.lstrip())
            raise ParseError(f"malformed size {part!r}", lead) from None
        at += len(part) + 1
    return dims[0], dims[1]


def _cmd_plot(args) -> int:
    family = setspec.parse_set_spec(args.set_spec)
    vp = parse_rational_list(args.viewport, most=4)
    if len(vp) < 4:
        raise ParseError("viewport needs xmin,xmax,ymin,ymax", len(args.viewport))
    spec = plot.PlotSpec(family, tuple(vp), *_parse_size(args.size))
    text = plot.render_plot(spec)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
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
    s = name.strip()
    if s == "reals":
        return kernel.FormalRealsBase()
    if s == "loc:q":
        return metric.completion_base(metric.RationalLine(), max(budget * 8, 16))
    if s == "loc:q2":
        return metric.completion_base(metric.PlaneEuclid(), max(budget * 8, 16))
    if s.startswith("loc:seg:"):
        parts = s[len("loc:seg:"):].split(",")
        if len(parts) != 2:
            raise ParseError("loc:seg needs two endpoints", 0)
        seg = metric.LineSegment(parse_rational(parts[0]), parse_rational(parts[1]))
        return metric.completion_base(seg, 2 ** max(budget, 4) + 1)
    raise ParseError(f"unknown space {name!r}", 0)


def _split_family(text: str) -> list[str]:
    """Split on ';' outside parentheses (the ball syntax contains ';')."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in parts if p.strip()]


def _cmd_cover(args) -> int:
    base = _space_base(args.space, args.budget)
    target = base.parse_element(args.target)
    family = [base.parse_element(e) for e in _split_family(args.family)]
    d = kernel.derive_cover(base, target, family, args.depth, budget=args.budget)
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
    if args.law not in _LAWS:
        raise ParseError(f"unknown law {args.law!r}", 0)
    report = trees.check_spread_mon(_LAWS[args.law](), args.depth, args.budget)
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
    except (EmptySetError, PreconditionFailed, AmbientMismatch) as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return PRECONDITION_EXIT
    except (InvariantViolation, UndecidableComparison) as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
