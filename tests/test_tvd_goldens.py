"""The reports of a fixed table of ``tvd_check`` cases.

Each case checks a closed interval [a, b] of a segment against a few open
balls Z, and ``goldens/tvd.txt`` holds, per case, its verdict, the
serialized derivation of the whole-space cover (or ``unknown``) and the
serialized derivation of each sampled ball.  The rendering must match it
byte for byte, so any change in the uniform families, their order or the
search shows.  The table holds both verdicts, dyadic and non-dyadic segment
ends, and depths and budgets on both sides of what a case needs.
"""

from fractions import Fraction
from pathlib import Path

from overt.kernel import serialize_derivation
from overt.located import interval_set, predicate_from_net, tvd_check
from overt.metric import LineSegment, completion_base, parse_ball
from overt.rationals import parse_rational

GOLDEN = Path(__file__).parent / "goldens" / "tvd.txt"

# (segment ends, a, b, balls of Z, depth, budget)
TABLE = [
    ("-1,2", "0", "1/2", ["B(1/2; 1/4)"], 4, 200),
    ("-1,2", "0", "3/2", ["B(1/2; 1/4)"], 4, 200),
    ("-1,2", "1/4", "1", ["B(5/16; 1/4)", "B(7/16; 3/4)"], 4, 200),
    ("-1,2", "1/4", "1", ["B(5/16; 1/4)", "B(1/4; 3/4)"], 4, 200),
    ("0,1", "1/3", "2/3", ["B(1/4; 1/2)"], 3, 17),
    ("0,1", "1/3", "2/3", ["B(1/4; 1/2)"], 1, 17),
    ("-1/3,5/3", "1/5", "4/7", ["B(2/7; 1/3)", "B(1/5; 3/5)"], 4, 65),
    ("-1/3,5/3", "0", "1", ["B(3; 2/3)"], 1, 64),
]


def render_case(row) -> str:
    ends, a, b, balls, depth, budget = row
    seg = LineSegment(*(parse_rational(v) for v in ends.split(",")))
    S = interval_set(parse_rational(a), parse_rational(b), space=seg)
    Z = [parse_ball(t) for t in balls]
    report = tvd_check(predicate_from_net(S), Z, depth=depth, budget=budget)
    # The check's own base, for the element syntax of the derivations.
    base = completion_base(seg, budget)

    def text(d):
        return "unknown" if d is None else serialize_derivation(base, d)

    lines = [f"$ tvd seg={ends} set=[{a},{b}] Z={';'.join(balls)} depth={depth} budget={budget}",
             f"verdict {report.verdict}", f"cover {text(report.cover_derivation)}"]
    lines += [f"sample {base.format_element(u)} {text(d)}" for u, d in report.sample_results]
    return "\n".join(lines) + "\n"


def render_table() -> str:
    return "".join(render_case(row) for row in TABLE)


def test_tvd_reports_match_golden():
    assert render_table().encode("ascii") == GOLDEN.read_bytes()


def test_table_holds_both_verdicts():
    verdicts = [line for line in GOLDEN.read_text(encoding="ascii").splitlines()
                if line.startswith("verdict ")]
    assert len(verdicts) == len(TABLE)
    assert {"verdict holds", "verdict unknown"} <= set(verdicts)
    assert any(Fraction(parse_rational(v)).denominator not in (1, 2)
               for row in TABLE for v in row[0].split(","))
