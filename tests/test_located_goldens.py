"""The serialized output of a fixed table of located-set queries.

The table holds ``overt distance``, ``overt hausdorff`` and 16x16
``overt plot`` commands over every builtin set the grammar builds: disks,
segments, finite sets on the line and in the plane (one with a repeated
point), intervals, the Cantor set, unions and affine images (similarities,
which map to builtin sets again, and a shear of the Cantor set, which keeps
its line-image comparison).  Several queries sit on ties: a rational
distance met exactly, a point on a boundary or inside a set.  A few
``net_from_located`` round trips filter the net of a 2x2 box (or of an
interval, for line sets), printed one kept point per line.
``goldens/located.txt`` holds each command after ``$`` and then its
output; the rendering must match it byte for byte, so any change in an
exact comparison shows.
"""

import contextlib
import io
import shlex
from fractions import Fraction as F
from pathlib import Path

from overt import located, setspec
from overt.cli import main

GOLDEN = Path(__file__).parent / "goldens" / "located.txt"

ROT = "affine:3/5,-4/5,1,4/5,3/5,-1"  # a rotation by a 3-4-5 angle, then a shift
QUARTER = "affine:0,-1,0,1,0,0"  # a quarter turn
DOUBLE = "affine:2,0,1/2,0,2,0"  # scale 2, then a shift

DISTANCES = [
    ("disk:0,0,1", "3,4", "1/16"),
    ("disk:1/2,-1/3,3/4", "2,1", "1/64"),
    ("disk:0,0,1", "1/2,1/2", "1/8"),
    ("disk:0,0,1", "1,0", "1/8"),
    ("disk:-1,2,5/3", "-1,-3", "1/32"),
    ("segment:0,0,3,0", "3,4", "1/16"),
    ("segment:0,0,3,0", "1,2", "1/16"),
    ("segment:0,0,3,0", "-3,-4", "1/16"),
    ("segment:0,0,3,0", "2,0", "1/16"),
    ("segment:-1,1/3,2,5/7", "1/5,-1/2", "1/128"),
    ("points:(0,0);(3,4);(1/3,2/5)", "3/2,2", "1/64"),
    ("points:(1,1);(1,1);(2,3)", "4,7", "1/16"),
    ("points:(1,1);(1,1);(2,3)", "1,1", "1/16"),
    ("points:(1/3);(2/5);(-7/4)", "1/2", "1/1024"),
    ("points:(1/3);(1/3);(5/7)", "-1", "1/256"),
    ("interval:-1,1/2", "3/4", "1/256"),
    ("interval:-1,1/2", "0", "1/256"),
    ("interval:-1,1/2", "-5/4", "1/256"),
    ("cantor", "1/2", "1/1024"),
    ("cantor", "1/4", "1/1024"),
    ("cantor", "5/4", "1/1024"),
    ("union(disk:0,0,1,segment:2,0,3,1)", "5/2,2", "1/32"),
    ("union(interval:0,1,points:(3);(5))", "4", "1/64"),
    (f"image({ROT},disk:0,0,1)", "2,2", "1/32"),
    (f"image({DOUBLE},segment:0,0,1,1)", "-1,3", "1/64"),
    (f"image({QUARTER},points:(1,0);(0,2))", "1,1", "1/16"),
    ("image(affine:1,1,0,0,1,0,cantor)", "1/2,1/3", "1/256"),
    (f"image({ROT},union(disk:0,0,1/2,segment:1,0,2,0))", "3,1", "1/32"),
]

HAUSDORFFS = [
    ("disk:0,0,1", "segment:-1,0,1,0", "1/8"),
    ("interval:0,1", "interval:1/4,3/2", "1/64"),
    ("cantor", "interval:0,1", "1/64"),
    ("points:(0,0);(1,1)", "points:(0,1);(1,0);(1,1)", "1/16"),
    ("points:(0);(1)", "points:(1/2)", "1/16"),
    ("points:(0);(1)", "interval:0,1", "1/64"),
    ("disk:0,0,1/2", "disk:1/4,0,1/4", "1/16"),
    ("segment:0,0,1,1", "segment:0,1/4,1/2,1", "1/16"),
    ("union(disk:0,0,1/2,points:(2,0))", "disk:1,0,1", "1/8"),
    (f"image({QUARTER},segment:0,0,1,0)", "segment:0,0,0,1", "1/16"),
    (f"image({ROT},disk:0,0,1/2)", "points:(1,-1);(2,0)", "1/8"),
]

PLOTS = [
    ("disk:0,0,1", "-2,2,-2,2"),
    ("segment:-1,-1,1,1/2", "-2,2,-2,2"),
    ("points:(0,0);(1,1);(1,1);(-3/2,1/2)", "-2,2,-2,2"),
    ("interval:-1,1/2", "-2,2,-1,1"),
    ("cantor", "0,1,-1/2,1/2"),
    ("points:(1/3);(-1)", "-2,2,-1,1"),
    ("union(disk:1/2,1/2,1/2,segment:-2,-1,1,-1)", "-2,2,-2,2"),
    ("union(interval:-1,0,points:(1/2))", "-2,2,-1,1"),
    (f"image({ROT},segment:0,0,1,1)", "-1,3,-3,1"),
]

# (set, ambient, eps): boxes are 2x2; a line set filters an interval.
ROUNDTRIPS = [
    ("disk:0,0,3/8", "box:-1,1,-1,1", "1/4"),
    ("segment:-1/2,-1/3,1/2,1/4", "box:-1,1,-1,1", "1/4"),
    ("points:(0,0);(1/3,1/2);(1/3,1/2);(-3/4,1/5)", "box:-1,1,-1,1", "1/4"),
    ("union(disk:1/2,1/2,1/4,segment:-1,-1,0,-1/2)", "box:-1,1,-1,1", "1/4"),
    ("points:(1/3);(-1/2);(1/3)", "interval:-1,1", "1/16"),
]


def commands() -> list:
    rows = [["distance", f"--set={s}", f"--point={p}", f"--prec={e}"] for s, p, e in DISTANCES]
    rows += [["hausdorff", f"--a={a}", f"--b={b}", f"--prec={e}"] for a, b, e in HAUSDORFFS]
    rows += [["plot", f"--set={s}", f"--viewport={v}", "--size=16x16"] for s, v in PLOTS]
    return rows


def roundtrip(spec: str, ambient: str, eps: str) -> str:
    S = setspec.parse_set_spec(spec)
    if ambient.startswith("box:"):
        amb = located.box_set(*(F(v) for v in ambient[4:].split(",")))
    else:
        amb = setspec.parse_set_spec(ambient)
    kept = located.net_from_located(amb, located.predicate_from_net(S), F(eps))
    return "".join(
        (f"{p[0]},{p[1]}" if isinstance(p, tuple) else f"{p}") + "\n" for p in kept
    )


def render_table() -> str:
    parts = []
    for argv in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, argv
        parts.append(f"$ overt {shlex.join(argv)}\n{out.getvalue()}")
    for row in ROUNDTRIPS:
        parts.append(f"$ net_from_located {shlex.join(row)}\n{roundtrip(*row)}")
    return "".join(parts)


def test_located_outputs_match_golden():
    assert render_table().encode("ascii") == GOLDEN.read_bytes()


def test_table_spans_commands_and_sets():
    text = GOLDEN.read_text(encoding="ascii")
    heads = [line for line in text.splitlines() if line.startswith("$ ")]
    assert len(heads) == len(commands()) + len(ROUNDTRIPS)
    specs = " ".join(" ".join(c) for c in commands())
    for kind in ("disk:", "segment:", "points:(", "interval:", "cantor", "union(", "image("):
        assert kind in specs
