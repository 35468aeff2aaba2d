"""Every text entry point against the one text syntax.

Any text either parses, or raises ParseError at an offset inside the text
(0 <= offset <= len(text)), or raises PreconditionFailed (a value outside
a cap); a ball radius that is not positive is a ParseError.  Formatted values read back to themselves.
Derivation errors carry absolute offsets.  The command line, fed mutated
argv of cheap commands, only ever exits 0-4 and answers quickly.
"""

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overt import intervals, kernel, metric, trees, vietoris
from overt.cli import main
from overt.errors import ParseError, PreconditionFailed
from overt.intervals import IntervalElement
from overt.kernel import TOP, Derivation, FormalRealsBase
from overt.metric import FormalBall, format_ball, parse_ball
from overt.rationals import parse_rational, parse_rational_list
from overt.setspec import parse_set_spec
from overt.vietoris import Box, Dia, TermJoin, TermMeet, TERM_ONE, TERM_ZERO, format_term

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True, database=None)

AMB = (F(-2), F(2))
REALS = FormalRealsBase()
LINE_BALLS = metric.completion_base(metric.RationalLine(), 16)
PLANE_BALLS = metric.completion_base(metric.PlaneEuclid(), 16)
CARRIERS = {name: vietoris.parse_carrier(name)
            for name in ("chain:5", "bool:3", "grid:3,4", "intervals:(-2,2)")}

# (entry point, well-formed examples to mutate)
ENTRY_POINTS = {
    "set_spec": (parse_set_spec, ["interval:0,1", "points:(0,0);(1,-1/2)", "cantor",
                                  "union(disk:0,0,1,segment:0,0,1,1)",
                                  "image(affine:1,0,0,0,1,0,interval:-1,1)"]),
    "rational": (parse_rational, ["-3/2", " 7 ", "+1/8"]),
    "rational_list": (lambda t: parse_rational_list(t, most=4), ["-1,1,-1,1", "0, 1/2"]),
    "ball": (parse_ball, ["B(1/4; -1)", "B(1/3; 1/2,1/2)"]),
    "interval_element": (lambda t: intervals.parse_element(t, AMB),
                         ["(0,1)|(3/2,2)", "0", " 1", "(-2, -1/2)"]),
    "reals_element": (REALS.parse_element, ["(0,3)", "top", "( -1/2 , 1)"]),
    "ball_element": (PLANE_BALLS.parse_element, ["B(1; 0,1)", "top"]),
    "carrier": (vietoris.parse_carrier, ["chain:4", "bool:3", "grid:2,3", "intervals:(0,1)"]),
    "term_chain": (lambda t: vietoris.parse_term(t, CARRIERS["chain:5"]),
                   ["dia(3) & box(4)", "(1 | dia(0))"]),
    "term_bool": (lambda t: vietoris.parse_term(t, CARRIERS["bool:3"]),
                  ["dia(ab) | box({})", "box(abc)"]),
    "term_grid": (lambda t: vietoris.parse_term(t, CARRIERS["grid:3,4"]), ["dia(1,2) & 0"]),
    "term_intervals": (lambda t: vietoris.parse_term(t, CARRIERS["intervals:(-2,2)"]),
                       ["dia((0,1/2) | (1,2)) & box(1)"]),
    "carrier_element": (CARRIERS["grid:3,4"].parse_element, ["2,3", " 0 , 1 "]),
    "derivation_reals": (lambda t: kernel.parse_derivation(REALS, t),
                         ["(split (0,3) ((0,2) (1,3)))",
                          "(tra (split (0,3) ((0,2) (1,3))) ((ref (0,2)) (ext (1,3) (0,4))))"]),
    "derivation_balls": (lambda t: kernel.parse_derivation(LINE_BALLS, t),
                         ["(m2 top (B(1/2; 0) B(1/2; 1)))", "(ref B(1;0))"]),
    "node": (trees.parse_node, ["0,1,2", "()", " 3, 4"]),
    "removal_spec": (trees.parse_removal_spec, ["nodes:0,0;1", "alpha:0010", "alpharun:1011"]),
}

_ALPHABET = "0123456789/-+,;:()|& xXBtopdiaboxrefsplitchainbool{}.e_\t"


@st.composite
def texts(draw, examples):
    """A mutated example (up to three byte edits) or a random short text."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=_ALPHABET, max_size=24))
    text = draw(st.sampled_from(examples))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(_ALPHABET))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_any_text_parses_or_fails_inside_the_text(name):
    parse, examples = ENTRY_POINTS[name]
    for text in examples:
        parse(text)

    @SETTINGS
    @given(texts(examples))
    def check(text):
        try:
            parse(text)
        except ParseError as e:
            assert 0 <= e.offset <= len(text), (text, e)
        except PreconditionFailed:
            pass

    check()


# ---------------------------------------------------------------------------
# Round trips through the formatters.
# ---------------------------------------------------------------------------

rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@ROUND_TRIP
@given(rationals, st.integers(1, 30), st.integers(1, 8), st.booleans())
def test_ball_round_trip(x, rn, rd, plane):
    b = FormalBall((x, -x / 3) if plane else x, F(rn, rd))
    assert parse_ball(format_ball(b)) == b


@st.composite
def interval_elements(draw):
    cuts = sorted(set(draw(st.lists(rationals.map(lambda q: q / 10), max_size=6))))
    parts = [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]
    return IntervalElement.make(AMB, parts)


@ROUND_TRIP
@given(interval_elements())
def test_interval_element_round_trip(e):
    assert intervals.parse_element(str(e), AMB) == e


def _elements(L):
    if L.elements() is not None:
        return st.sampled_from(L.elements())
    return interval_elements()


def _terms(L):
    leaves = st.one_of(st.just(TERM_ZERO), st.just(TERM_ONE),
                       _elements(L).map(Dia), _elements(L).map(Box))
    return st.recursive(leaves, lambda sub: st.one_of(st.builds(TermMeet, sub, sub),
                                                      st.builds(TermJoin, sub, sub)),
                        max_leaves=6)


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_term_round_trip(name):
    L = CARRIERS[name]

    @ROUND_TRIP
    @given(_terms(L))
    def check(t):
        assert vietoris.parse_term(format_term(t, L), L) == t

    check()


def _reals_elements():
    return st.one_of(st.just(TOP), st.tuples(rationals, st.integers(1, 9)).map(
        lambda p: (p[0], p[0] + F(p[1], 4))))


def _ball_elements():
    return st.one_of(st.just(TOP), st.builds(FormalBall, rationals, rationals.map(abs).map(
        lambda r: r + F(1, 8))))


def _derivations(elements):
    """Syntactic derivation trees (not necessarily valid ones)."""
    fams = st.lists(elements, max_size=3).map(tuple)
    leaves = st.one_of(
        st.builds(Derivation, st.sampled_from(("ref", "poshyp")), elements),
        st.builds(lambda u, w: Derivation("ext", u, witness=w), elements, elements),
        st.builds(lambda r, u, f: Derivation(r, u, witness=f),
                  st.sampled_from(("split", "amb", "m2", "m2loc")), elements, fams),
    )

    def grow(sub):
        return st.builds(lambda h, subs: Derivation("tra", h.element, premises=(h, *subs)),
                         sub, st.lists(sub, max_size=3))

    return st.recursive(leaves, grow, max_leaves=6)


@pytest.mark.parametrize("base, elements", [(REALS, _reals_elements()),
                                            (LINE_BALLS, _ball_elements())],
                         ids=["reals", "balls"])
def test_derivation_round_trip(base, elements):
    @ROUND_TRIP
    @given(_derivations(elements))
    def check(d):
        assert kernel.parse_derivation(base, kernel.serialize_derivation(base, d)) == d

    check()


def test_found_ball_derivations_round_trip():
    # Ball bases print blanks inside elements, e.g. B(1/4; -1).  The top of
    # a segment has an m2 family; that of the line has none.
    base = metric.completion_base(metric.LineSegment(F(-1), F(1)), 17)
    for u in (TOP, FormalBall(F(0), F(1))):
        fam = base.axiom_instances(u, 2)[0][1]
        d = kernel.derive_cover(base, u, fam, 2, budget=2)
        text = kernel.serialize_derivation(base, d)
        assert "; " in text and kernel.parse_derivation(base, text) == d


# ---------------------------------------------------------------------------
# Absolute offsets.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "base, text, offset",
    [(REALS, "(split (0,3) ((0,2) (1,x)))", 23),
     (LINE_BALLS, "(ref B(1;0)", 11),
     # an element error inside a premise of tra, at its own byte
     (REALS, "(tra (split (0,3) ((0,2) (1,3))) ((ref (0,2)) (ref (1,x))))", 54),
     (REALS, "(tra (split (0,3) ((0,2) (1,3))) ((ref (0,2)) (ref (3,1))))", 51),
     (LINE_BALLS, "(ref B(1; 0, x))", 13),
     (LINE_BALLS, "(m2 top (B(1/2; 0) B(1/2;1)", 27),
     (REALS, "()", 1),
     (REALS, "(ref (0,3)) (ref (0,1))", 12),
     (REALS, "ref (0,3)", 0),
     (REALS, "(ext (0,1))", 10),
     # a radius that is not positive: its first byte
     (LINE_BALLS, "(ref B(0; 1))", 7),
     (LINE_BALLS, "(m2 top (B(1/2; 0) B( -1/2;1)))", 22),
     # an axiom leaf ends at its family
     (REALS, "(open (0,1) ((0,1/2)) ((poshyp (0,1/2))))", 22)],
)
def test_derivation_offsets(base, text, offset):
    with pytest.raises(ParseError) as e:
        kernel.parse_derivation(base, text)
    assert e.value.offset == offset


@pytest.mark.parametrize("name, text", [
    ("term_chain", "(" * 2000 + "1" + ")" * 2000),
    ("derivation_reals", "(tra " * 2000),
    ("set_spec", "union(" * 2000),
])
def test_deep_nesting_is_a_parse_error(name, text):
    with pytest.raises(ParseError) as e:
        ENTRY_POINTS[name][0](text)
    assert 0 <= e.value.offset <= len(text)


def test_elements_in_derivations_accept_blanks():
    d = kernel.parse_derivation(REALS, "(split ( 0 , 3 ) ((0,2) (1, 3)))")
    assert d == Derivation("split", (F(0), F(3)), witness=((F(0), F(2)), (F(1), F(3))))


# The one rational grammar: p/q or p, ASCII digits, no decimals, exponents or
# digit separators, reported at the first byte that does not fit.
@pytest.mark.parametrize(
    "argv, offset",
    [(["distance", "--set=interval:0,1", "--point=0", "--prec=0.25"], 1),
     (["distance", "--set=interval:0,1", "--point=0.5e1", "--prec=1/4"], 1),
     (["cover", "--space=loc:q", "--target=B(1/2; 0.5)", "--family=top", "--depth=1"], 8),
     (["cover", "--space=reals", "--target=(0.5,1)", "--family=top", "--depth=1"], 2),
     (["vietoris", "--carrier=chain:3_0", "--leq", "1", "1"], 7),
     (["plot", "--set=disk:0,0,1", "--viewport=-1,1,-1,1", "--size=1_0x2"], 1),
     (["spread", "--law=full2 x", "--depth=1"], 6)],
)
def test_one_rational_grammar(capsys, argv, offset):
    assert main(argv) == 2
    assert f"(at offset {offset})" in capsys.readouterr().err


def test_node_digit_grammar():
    with pytest.raises(ParseError) as e:
        trees.parse_node("1_0")
    assert e.value.offset == 1


@pytest.mark.parametrize(
    "argv",
    [["spread", "--law=full2", "--depth=63"],
     ["cover", "--space=loc:seg:0,1", "--target=top", "--family=top", "--depth=1",
      "--budget=40"],
     ["cover", "--space=loc:q", "--target=top", "--family=top", "--depth=1",
      "--budget=1000000000"]],
)
def test_caps_checked_up_front(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


def test_caps_admit_the_sizes_in_use():
    assert trees.check_spread_mon(trees.middle_thirds_law(), 12, 8).ok
    assert len(metric.completion_base(metric.LineSegment(F(0), F(1)), 17).points) == 17
    with pytest.raises(PreconditionFailed):
        metric.completion_base(metric.RationalLine(), metric.MAX_BALL_POINTS + 1)
    with pytest.raises(PreconditionFailed):
        trees.check_spread_mon(trees.full_binary_law(), 20, 2)


# ---------------------------------------------------------------------------
# A small fuzz of the command line.
# ---------------------------------------------------------------------------

CHEAP = [
    ["distance", "--set", "disk:0,0,1", "--point", "-3/2,0", "--prec", "1/4"],
    ["distance", "--set", "union(interval:0,1,points:(3))", "--point", "2", "--prec", "1/8"],
    ["hausdorff", "--a", "points:(0);(1)", "--b", "interval:0,1", "--prec", "1/4"],
    ["plot", "--set", "disk:0,0,1", "--viewport", "-1,1,-1,1", "--size", "4x4"],
    ["distance", "--set", "image(affine:1,1/2,0,0,1,0,segment:-1,0,1,0)", "--point", "3,1",
     "--prec", "1/64"],
    ["hausdorff", "--a", "image(affine:1,1/2,0,0,1,0,points:(0,0);(1,1))",
     "--b", "image(affine:1,0,0,-1/2,1,0,points:(0,1);(1,0))", "--prec", "1/16"],
    ["cover", "--space", "reals", "--target", "(0,3)", "--family", "(0,2);(1,3)", "--depth", "2"],
    ["cover", "--space", "loc:q", "--target", "B(1; 0)", "--family", "top", "--depth", "1"],
    ["cover", "--space", "loc:seg:0,1", "--target", "top", "--family", "B(1/2; 0);B(1/2; 1)",
     "--depth", "1", "--budget", "4"],
    ["vietoris", "--carrier", "bool:3", "--leq", "dia(ab)", "dia(a) | dia(b)"],
    ["vietoris", "--carrier", "grid:2,3", "--leq", "box(1,2) & dia(0,1)", "dia(1,1)"],
    ["vietoris", "--carrier", "intervals:(0,1)", "--leq", "dia((0,1/2))", "dia(1)"],
    ["spread", "--law", "cantor3", "--depth", "4"],
]


def _mutate(rng, argv):
    """One to three edits: mostly a byte inserted, deleted or replaced in an
    option's value, sometimes an argument dropped or repeated."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")]
        i = rng.choice(values) if values and rng.random() < 0.9 else rng.randrange(len(argv))
        arg, j, ch = argv[i], rng.randint(0, len(argv[i])), rng.choice(_ALPHABET)
        op = rng.randrange(10)
        if op < 3:
            argv[i] = arg[:j] + ch + arg[j:]
        elif op < 6:
            argv[i] = arg[:j] + arg[j + 1:]
        elif op < 9:
            argv[i] = arg[:j] + ch + arg[j + 1:]
        elif rng.random() < 0.5:
            del argv[i]
        else:
            argv.insert(i, arg)
    return argv


def test_cli_fuzz(capsys):
    rng = random.Random(20071)
    for _ in range(300):
        argv = _mutate(rng, rng.choice(CHEAP))
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), argv
        assert elapsed < 2, (argv, elapsed)
