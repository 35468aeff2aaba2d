from pathlib import Path

import pytest

from overt.cli import main
from overt.errors import ParseError
from overt.plot import PlotSpec, render_plot
from overt.setspec import parse_set_spec
from overt.vietoris import parse_carrier, parse_term

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSetSpecParsing:
    def test_interval(self):
        S = parse_set_spec("interval:0,1")
        assert S.name == "[0,1]"

    def test_union_structure(self):
        S = parse_set_spec("union(cantor,points:(1/2))")
        assert "cantor" in S.name

    def test_empty_interval_offset(self):
        with pytest.raises(ParseError) as e:
            parse_set_spec("interval:1,0")
        assert "empty interval" in str(e.value)
        assert e.value.offset == 9

    def test_unknown_constructor(self):
        with pytest.raises(ParseError):
            parse_set_spec("blob:1,2")

    def test_malformed_rational(self):
        with pytest.raises(ParseError):
            parse_set_spec("interval:a,1")

    def test_image_affine(self):
        S = parse_set_spec("image(affine:2,0,0,0,2,0,interval:0,1)")
        pts = S.net(1)
        assert all(isinstance(p, tuple) for p in pts)

    def test_nested_union(self):
        S = parse_set_spec("union(union(interval:0,1,interval:2,3),points:(5))")
        assert S.inhabited


class TestCommands:
    def test_distance(self, capsys):
        code, out, _ = run(capsys, "distance", "--set", "interval:0,1", "--point", "2", "--prec", "1/64")
        assert code == 0
        assert out.strip() == "[1, 1]"

    def test_distance_negative_point(self, capsys):
        code, out, _ = run(capsys, "distance", "--set", "disk:0,0,1", "--point", "-3/2,0", "--prec", "1/4")
        assert code == 0 and out.strip() == "[1/2, 1/2]"
        code, out, _ = run(capsys, "distance", "--set", "interval:0,1", "--point", "-3/2", "--prec", "1/4")
        assert code == 0 and out.strip() == "[3/2, 3/2]"

    def test_distance_cantor(self, capsys):
        code, out, _ = run(capsys, "distance", "--set", "cantor", "--point", "1/2", "--prec", "1/64")
        assert code == 0
        lo, hi = out.strip()[1:-1].split(", ")
        from fractions import Fraction as F

        assert F(lo) <= F(1, 6) <= F(hi)

    def test_hausdorff(self, capsys):
        code, out, _ = run(capsys, "hausdorff", "--a", "interval:0,1", "--b", "interval:0,2", "--prec", "1/16")
        assert code == 0
        from fractions import Fraction as F

        lo, hi = out.strip()[1:-1].split(", ")
        assert F(lo) <= 1 <= F(hi)

    def test_cover_derivation(self, capsys):
        code, out, _ = run(
            capsys, "cover", "--space", "reals", "--target", "(0,3)",
            "--family", "(0,2);(1,3)", "--depth", "2",
        )
        assert code == 0
        assert out.strip() == "(split (0,3) ((0,2) (1,3)))"

    def test_cover_unknown(self, capsys):
        code, out, _ = run(
            capsys, "cover", "--space", "reals", "--target", "(0,1)",
            "--family", "(0,1/2)", "--depth", "6",
        )
        assert code == 0
        assert out.strip() == "unknown"

    def test_cover_over_completion(self, capsys):
        code, out, _ = run(
            capsys, "cover", "--space", "loc:seg:0,1", "--target", "top",
            "--family", "B(2; 1/2)", "--depth", "1",
        )
        assert code == 0
        assert out.strip() != "unknown"

    def test_vietoris(self, capsys):
        code, out, _ = run(capsys, "vietoris", "--carrier", "chain:3", "--leq", "box(2)", "box(1)|dia(2)")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "vietoris", "--carrier", "chain:3", "--leq", "dia(1)", "box(1)")
        assert code == 0 and out.strip() == "false"

    def test_spread(self, capsys):
        code, out, _ = run(capsys, "spread", "--law", "cantor3", "--depth", "4")
        assert code == 0 and out.startswith("ok:")

    def test_plot_stdout_matches_golden(self, capsys):
        code, out, _ = run(
            capsys, "plot", "--set", "disk:1/2,1/2,1/4",
            "--viewport", "0,1,0,1", "--size", "16x16",
        )
        assert code == 0
        golden = (GOLDEN_DIR / "disk_16.pgm").read_text(encoding="ascii")
        assert out == golden

    def test_plot_negative_viewport(self, capsys):
        code, out, _ = run(
            capsys, "plot", "--set", "disk:0,0,1", "--viewport", "-2,2,-2,2", "--size", "8x8",
        )
        assert code == 0
        spec = PlotSpec(parse_set_spec("disk:0,0,1"), (-2, 2, -2, 2), 8, 8)
        assert out == render_plot(spec)

    def test_plot_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "o.pgm"
        code, _, _ = run(
            capsys, "plot", "--set", "points:(1/4,1/4);(3/4,3/4)",
            "--viewport", "0,1,0,1", "--size", "16x16", "--out", str(out_file),
        )
        assert code == 0
        golden = (GOLDEN_DIR / "twopoints_16.pgm").read_text(encoding="ascii")
        assert out_file.read_text(encoding="ascii") == golden


class TestExitCodes:
    def test_usage(self, capsys):
        assert run(capsys, "distance", "--set", "interval:0,1")[0] == 1
        assert run(capsys, "nonsense")[0] == 1
        # a dash value that is no rational list stays an option
        assert run(capsys, "distance", "--set", "interval:0,1", "--point", "-x", "--prec", "1/4")[0] == 1

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "distance", "--set", "interval:1,0", "--point", "0", "--prec", "1/4")
        assert code == 2 and "parse error" in err

    def test_precondition(self, capsys):
        code, _, err = run(
            capsys, "plot", "--set", "disk:0,0,1", "--viewport", "0,0,0,1", "--size", "4x4"
        )
        assert code == 3 and "precondition" in err

    def test_dimension_mismatch_precondition(self, capsys):
        code, _, _ = run(capsys, "distance", "--set", "disk:0,0,1", "--point", "2", "--prec", "1/4")
        assert code == 3

    @pytest.mark.parametrize(
        "carrier, offset",
        [("chain:x", 6), ("bool:x", 5), ("grid:2,x", 7), ("grid:2", 5),
         ("intervals:(0,x)", 13), ("intervals:( y,1)", 12)],
    )
    def test_malformed_carrier_parse_error(self, capsys, carrier, offset):
        code, _, err = run(capsys, "vietoris", f"--carrier={carrier}", "--leq", "1", "1")
        assert code == 2 and f"(at offset {offset})" in err

    @pytest.mark.parametrize("carrier", ["bool:2", "chain:3", "grid:2,2"])
    def test_empty_generator_parse_error(self, capsys, carrier):
        code, out, err = run(capsys, "vietoris", f"--carrier={carrier}", "--leq", "dia()", "0")
        assert code == 2 and out == "" and "(at offset 4)" in err
        code, _, err = run(capsys, "vietoris", f"--carrier={carrier}", "--leq", "1", "box( )")
        assert code == 2 and "(at offset 5)" in err

    @pytest.mark.parametrize(
        "size, offset",
        [("axb", 0), ("4x", 2), ("3x4x5", 3), ("4", 1), ("4x b", 3), ("x4", 0)],
    )
    def test_malformed_size_parse_error(self, capsys, size, offset):
        code, out, err = run(
            capsys, "plot", "--set", "disk:0,0,1", "--viewport", "-1,1,-1,1", f"--size={size}"
        )
        assert code == 2 and out == "" and f"(at offset {offset})" in err

    @pytest.mark.parametrize(
        "flag, value, offset",
        [("--viewport", "-1,1,-1,x", 8), ("--viewport", "0,,0,1", 2), ("--point", "0, 1/0", 3)],
    )
    def test_malformed_rational_list_offset(self, capsys, flag, value, offset):
        argv = {"--viewport": ["plot", "--set", "disk:0,0,1", "--size", "2x2"],
                "--point": ["distance", "--set", "disk:0,0,1", "--prec", "1/4"]}[flag]
        code, _, err = run(capsys, *argv, f"{flag}={value}")
        assert code == 2 and f"(at offset {offset})" in err

    @pytest.mark.parametrize(
        "argv, offset",
        [(["plot", "--set=disk:0,0,1", "--size=2x2", "--viewport=0,1,0"], 5),  # end of the value
         (["plot", "--set=disk:0,0,1", "--size=2x2", "--viewport=0,1,0,1,5"], 8),  # fifth value
         (["cover", "--space=loc:q", "--target=B(1/2; 0, x)", "--family=top", "--depth=1"], 10),
         (["cover", "--space=loc:q", "--target=B(1/2; 0, 1, 2)", "--family=top", "--depth=1"], 13),
         (["cover", "--space=reals", "--target=(0,x)", "--family=top", "--depth=1"], 3)],
    )
    def test_true_offsets(self, capsys, argv, offset):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"(at offset {offset})" in err

    @pytest.mark.parametrize("carrier", ["chain:1025", "grid:100000,100000", "bool:9"])
    def test_carrier_size_cap(self, capsys, carrier):
        code, _, err = run(capsys, "vietoris", f"--carrier={carrier}", "--leq", "1", "1")
        assert code == 3 and "precondition" in err

    def test_large_carriers_answer(self, capsys):
        code, out, _ = run(capsys, "vietoris", "--carrier=bool:8", "--leq", "dia(ab)", "dia(a) | dia(b)")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "vietoris", "--carrier=chain:1024", "--leq", "box(1)", "dia(1)")
        assert code == 0 and out.strip() == "false"


class TestModalTermOffsets:
    # The offset of the bad token in the term, not in the generator's text.
    @pytest.mark.parametrize(
        "carrier, term, offset",
        [("chain:3", "dia(z)", 4), ("chain:3", "1 & box( 7)", 9),
         ("bool:3", "box(az)", 5), ("grid:2,2", "dia(0,x)", 6),
         ("grid:2,2", "dia(0, 5)", 7), ("intervals:(0,1)", "dia((0,x))", 7),
         ("intervals:(0,1)", "dia((0,1/2) | (q,1))", 15)],
    )
    def test_generator_offset(self, carrier, term, offset):
        with pytest.raises(ParseError) as e:
            parse_term(term, parse_carrier(carrier))
        assert e.value.offset == offset
