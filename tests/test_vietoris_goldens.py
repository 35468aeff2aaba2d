"""The serialized output of a fixed table of ``overt vietoris`` commands on
interval carriers.

The table is drawn once from a fixed seed in the shapes of the benchmark's
interval-carrier queries: an ambient (lo, hi) with quarter ends, six
elements cut at the points that split the ambient into eighths (none,
the whole ambient, one or two open intervals), and a pair s, t of terms up to depth 3 where t
is often s joined with more or s met with more.  One row more asks the
meet of ten copies of ``dia((0,1/2)) | box((1/4,1))`` against
``dia((0,1/2))``, which multiplies out to 2^10 tiles before they are
compared.  ``goldens/vietoris.txt`` holds each command after ``$ overt``
and then its standard output; the rendering must match it byte for byte,
so any change in the answers of the normal-form comparison shows.
"""

import contextlib
import io
import random
import shlex
from fractions import Fraction as F
from pathlib import Path

from overt.cli import main
from overt.rationals import format_rational

GOLDEN = Path(__file__).parent / "goldens" / "vietoris.txt"
SEED = 23
COUNT = 60


def _rr(rng, lo, hi, den):
    return F(rng.randint(lo * den, hi * den), den)


def _term(rng, elems, depth):
    if depth == 0 or rng.random() < 0.35:
        x = rng.random()
        if x < 0.04:
            return "0"
        if x < 0.08:
            return "1"
        return f"{'dia' if x < 0.55 else 'box'}({rng.choice(elems)})"
    op = "&" if rng.random() < 0.5 else "|"
    return f"({_term(rng, elems, depth - 1)} {op} {_term(rng, elems, depth - 1)})"


def _query(rng) -> list:
    lo, hi = _rr(rng, -2, -1, 4), _rr(rng, 1, 2, 4)
    grid = [lo + (hi - lo) * F(k, 8) for k in range(9)]

    def elem():
        x = rng.random()
        if x < 0.05:
            return "0"
        if x < 0.1:
            return "1"
        cuts = sorted(rng.sample(grid, 4 if rng.random() < 0.5 else 2))
        parts = zip(cuts[::2], cuts[1::2])
        return "|".join(f"({format_rational(p)},{format_rational(q)})" for p, q in parts)

    elems = [elem() for _ in range(6)]
    s = _term(rng, elems, 3)
    x = rng.random()
    if x < 1 / 3:
        s, t = s, f"({s} | {_term(rng, elems, 2)})"
    elif x < 2 / 3:
        s, t = f"({s} & {_term(rng, elems, 2)})", s
    else:
        t = _term(rng, elems, 3)
    carrier = f"intervals:({format_rational(lo)},{format_rational(hi)})"
    return ["vietoris", f"--carrier={carrier}", "--leq", s, t]


def table() -> list:
    rng = random.Random(SEED)
    rows = [_query(rng) for _ in range(COUNT)]
    meet = " & ".join(["(dia((0,1/2))|box((1/4,1)))"] * 10)
    rows.append(["vietoris", "--carrier=intervals:(0,1)", "--leq", meet, "dia((0,1/2))"])
    return rows


def render_table() -> str:
    parts = []
    for argv in table():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, argv
        parts.append(f"$ overt {shlex.join(argv)}\n{out.getvalue()}")
    return "".join(parts)


def test_vietoris_outputs_match_golden():
    assert render_table().encode("ascii") == GOLDEN.read_bytes()


def test_table_has_both_answers():
    outputs = GOLDEN.read_text(encoding="ascii").splitlines()[1::2]
    assert len(outputs) == COUNT + 1
    assert set(outputs) == {"true", "unknown"}
    assert outputs.count("true") >= COUNT // 4
