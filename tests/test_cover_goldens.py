"""The serialized output of a fixed table of ``overt cover`` commands.

The table spans the three cover spaces of the CLI (``reals``, ``loc:q``,
``loc:seg``), judgments that are derived, semantically false, or true but
out of reach, depths 1 to 12 and one Unknown search at depth 40.  Rows with
denominators 3, 5 and 7, a segment with non-dyadic ends and ``loc:q`` at
budget 8 pin the exact arithmetic of the search and of the ball families.  ``goldens/covers.txt`` holds each command
after ``$ overt`` and then its standard output; the rendering must match it
byte for byte, so any change in rule order, instance order or depth shows.
No derived ball cover in it may be false at a point of its space: each is
checked by an endpoint sweep.
"""

import contextlib
import io
import shlex
from pathlib import Path

from helpers import line_ball_cover_holds
from overt.cli import main
from overt.metric import parse_ball, read_ball
from overt.rationals import Cursor, parse_rational

GOLDEN = Path(__file__).parent / "goldens" / "covers.txt"

SEVEN = "(0,1/4);(1/8,3/8);(1/4,1/2);(3/8,5/8);(1/2,3/4);(5/8,7/8);(3/4,1)"
FIVE = "(-1,0);(-1/2,1/2);(0,1);(1/2,3/2);(1,2)"

# (space, target, family, depth, budget)
TABLE = [
    ("reals", "(0,3)", "(0,2);(1,3)", 1, 4),
    ("reals", "(1/4,1/2)", "(0,1)", 1, 4),
    ("reals", "(0,1)", "(0,1);(2,3)", 1, 4),
    ("reals", "(0,1)", "(0,1/2);(1/2,1)", 5, 4),
    ("reals", "(0,1)", "(0,3/8);(1/4,5/8);(1/2,1)", 1, 4),
    ("reals", "(0,1)", "(0,3/8);(1/4,5/8);(1/2,1)", 2, 4),
    ("reals", "(0,1)", SEVEN, 2, 4),
    ("reals", "(0,1)", SEVEN, 3, 4),
    ("reals", "(0,1)", SEVEN, 5, 4),
    ("reals", "(-1,2)", FIVE, 3, 4),
    ("reals", "(-1,2)", FIVE, 5, 4),
    ("reals", "(0,1)", "(0,1/3);(1/4,2/3);(3/5,1)", 4, 2),
    ("reals", "(0,1)", "(-1,1/3);(1/3,2)", 5, 4),
    ("loc:q", "B(1;0)", "B(1;0)", 1, 4),
    ("loc:q", "B(1/2;0)", "B(1;0)", 1, 4),
    ("loc:q", "B(1;0)", "B(1;-1/2);B(1;1/2)", 1, 4),
    ("loc:q", "B(1;0)", "B(1;-1/2);B(1;1/2)", 2, 4),
    ("loc:q", "B(1;0)", "B(1;-1/2);B(1;1/2)", 3, 2),
    ("loc:q", "B(1;0)", "B(1/2;-1/2);B(1/2;1/2)", 5, 2),
    ("loc:q", "B(2;0)", "B(1;-1);B(1;0);B(1;1)", 3, 3),
    ("loc:q", "top", "B(1;0)", 3, 2),
    ("loc:seg:0,1", "top", "B(2; 1/2)", 1, 4),
    ("loc:seg:0,1", "top", "B(1/2;0);B(1/2;1/2);B(1/2;1)", 2, 4),
    ("loc:seg:0,1", "top", "B(1/2;0);B(1/2;1/2);B(1/2;1)", 3, 2),
    ("loc:seg:0,1", "top", "B(1/4;0);B(1/4;1)", 4, 2),
    ("loc:seg:0,1", "B(1/2;1/2)", "B(1/4;1/4);B(1/4;3/4)", 3, 2),
    ("loc:seg:0,1", "B(1/2;1/2)", "B(3/8;1/4);B(3/8;3/4)", 5, 2),
    ("loc:seg:-1,1", "B(1;0)", "B(3/4;-1/2);B(3/4;1/2)", 2, 3),
    ("loc:seg:-1,1", "top", "B(3/4;-1/2);B(3/4;1/2)", 4, 3),
    # The depth of a derivation reused from the search's records must be
    # its true tree depth: an understated one derives the first of these
    # at depth 5, and gives the second a different derivation.
    ("loc:seg:-1,1", "B(1;1/4)", "B(5/8;0)", 5, 3),
    ("loc:seg:-1,1", "B(7/8;-1/2)", "B(1;0);B(5/8;5/8)", 4, 3),
    # Non-dyadic ends, deeper searches and a larger point budget.
    ("reals", "(0,1)", "(0,2/7);(1/5,3/7);(1/3,5/7);(3/5,6/7);(5/7,1)", 6, 4),
    ("reals", "(-1/3,2)", "(-1/3,1/5);(1/7,4/5);(2/3,3/2);(10/7,2)", 7, 4),
    ("reals", "(0,1)", "(0,1/3);(1/3,2/3);(3/5,1)", 8, 4),
    ("reals", "(1/7,6/7)", "(0,1/3);(2/7,4/7);(1/2,5/7);(2/3,1)", 9, 3),
    ("reals", "(0,3)", "(-1/5,1/3);(1/5,4/3);(6/5,12/7);(5/3,7/3);(16/7,16/5)", 10, 4),
    ("reals", "(0,2)", "(0,2/3);(3/5,6/5);(6/5,2)", 11, 4),
    ("reals", "(-2/3,1/5)", "(-1,-2/7);(-3/7,0);(-1/7,1/3)", 12, 2),
    ("reals", "(0,3)", "(0,1/3);(1/5,1);(1,3)", 40, 4),
    ("loc:seg:-1/3,2/5", "top", "B(1/4;-1/3);B(1/4;0);B(1/4;1/3)", 3, 4),
    ("loc:seg:-1/3,2/5", "top", "B(1/5;-1/3);B(1/5;2/5)", 4, 4),
    ("loc:seg:-1/3,2/5", "B(1/3;0)", "B(1/4;-1/7);B(1/4;1/7)", 3, 4),
    ("loc:seg:-1/3,2/5", "B(2/7;1/5)", "B(1/3;-1/5)", 3, 5),
    ("loc:q", "B(1;0)", "B(3/4;-1/3);B(3/4;1/3)", 2, 8),
    ("loc:q", "B(1;1/3)", "B(1/5;3)", 3, 8),
    ("loc:q", "B(2/3;-1/5)", "B(1/2;-1/2);B(1/2;1/7)", 3, 8),
]


def argv_of(row) -> list:
    space, target, family, depth, budget = row
    return ["cover", f"--space={space}", f"--target={target}", f"--family={family}",
            f"--depth={depth}", f"--budget={budget}"]


def render_table() -> str:
    parts = []
    for row in TABLE:
        argv, out = argv_of(row), io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, argv
        parts.append(f"$ overt {shlex.join(argv)}\n{out.getvalue()}")
    return "".join(parts)


def test_cover_outputs_match_golden():
    assert render_table().encode("ascii") == GOLDEN.read_bytes()


def test_table_spans_spaces_depths_and_verdicts():
    text = GOLDEN.read_text(encoding="ascii")
    outputs = text.splitlines()[1::2]
    assert len(outputs) == len(TABLE)
    assert {row[0][:7] for row in TABLE} == {"reals", "loc:q", "loc:seg"}
    assert {row[3] for row in TABLE} == set(range(1, 13)) | {40}
    derived = [o for o in outputs if o != "unknown"]
    assert len(derived) > len(TABLE) // 2 and "unknown" in outputs


def test_derived_ball_covers_hold_at_points():
    outputs = GOLDEN.read_text(encoding="ascii").splitlines()[1::2]
    checked = 0
    for (space, target, family, _, _), out in zip(TABLE, outputs):
        if space == "reals" or out == "unknown":
            continue
        segment = None
        if space.startswith("loc:seg:"):
            segment = tuple(parse_rational(v) for v in space[len("loc:seg:"):].split(","))
        u = None if target == "top" else parse_ball(target)
        cur = Cursor(family)
        members = cur.finish(cur.separated(read_ball, ";"))
        assert line_ball_cover_holds(
            None if u is None else (u.center, u.radius),
            [(b.center, b.radius) for b in members],
            segment,
        ), (space, target, family)
        checked += 1
    assert checked >= 10
