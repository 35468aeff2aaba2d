import time
from fractions import Fraction
from pathlib import Path

import pytest

from overt import kernel, located
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
        xs = (Fraction(4), Fraction(3), Fraction(3, 2))
        assert [S.distance_value(x) for x in xs] == [1, 0, Fraction(1, 2)]


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

    @pytest.mark.parametrize("prec, seconds", [("1/64", 1), ("1/1024", 10)])
    def test_hausdorff_disk_and_diameter_in_time(self, capsys, prec, seconds):
        # H(unit disk, diameter) = 1, from cells near where it is attained.
        start = time.perf_counter()
        code, out, _ = run(capsys, "hausdorff", "--a=disk:0,0,1", "--b=segment:-1,0,1,0", f"--prec={prec}")
        elapsed = time.perf_counter() - start
        lo, hi = (Fraction(v) for v in out.strip()[1:-1].split(", "))
        assert code == 0 and lo <= 1 <= hi and hi - lo <= Fraction(prec)
        assert elapsed < seconds

    SHEARED_SEGMENT = "image(affine:1,1/2,0,0,1,0,segment:-1,0,1,0)"

    def test_sheared_segment_plot_in_time(self, capsys):
        # The shear maps the segment to itself, as a segment with an exact
        # comparison, so the plot is the segment's own.
        start = time.perf_counter()
        code, out, _ = run(capsys, "plot", f"--set={self.SHEARED_SEGMENT}", "--viewport=-2,2,-2,2",
                           "--size=64x64")
        elapsed = time.perf_counter() - start
        assert code == 0 and elapsed < 1
        assert (code, out) == run(capsys, "plot", "--set=segment:-1,0,1,0", "--viewport=-2,2,-2,2",
                                  "--size=64x64")[:2]

    def test_sheared_segment_distance_is_exact(self, capsys):
        code, out, _ = run(capsys, "distance", f"--set={self.SHEARED_SEGMENT}", "--point=3,0",
                           "--prec=1/1024")
        assert code == 0 and out.strip() == "[2, 2]"

    def test_cantor_under_zero_column_is_one_point(self, capsys):
        # The image is the one point (0, 0), answered without a Cantor net.
        start = time.perf_counter()
        code, out, _ = run(capsys, "distance", "--set=image(affine:0,0,0,0,0,0,cantor)",
                           "--point=1,1", "--prec=1/1000000000")
        elapsed = time.perf_counter() - start
        lo, hi = (Fraction(v) for v in out.strip()[1:-1].split(", "))
        assert code == 0 and lo * lo <= 2 <= hi * hi
        assert elapsed < 1

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

    def test_spread_at_depth_19_is_fast(self, capsys):
        # 2**20 - 1 nodes, just inside the node cap; each step judges one digit
        start = time.perf_counter()
        code, out, _ = run(capsys, "spread", "--law=full2", "--depth=19")
        elapsed = time.perf_counter() - start
        assert (code, out) == (0, "ok: 1048575 admitted nodes to depth 19\n")
        assert elapsed < 3

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
         (["cover", "--space=reals", "--target=(0,x)", "--family=top", "--depth=1"], 3),
         # the offset in the family value, not in the element that holds it
         (["cover", "--space=loc:q", "--target=top", "--family=B(1;0);B(1;x)", "--depth=1"], 11),
         (["cover", "--space=loc:q", "--target=top", "--family=B(1;0);  B(x;0)", "--depth=1"], 11),
         (["cover", "--space=loc:seg:0,x", "--target=top", "--family=top", "--depth=1"], 10),
         (["cover", "--space=loc:seg:0", "--target=top", "--family=top", "--depth=1"], 8),
         (["cover", "--space=loc:seg:0,1,2", "--target=top", "--family=top", "--depth=1"], 12),
         # an unknown name: its first non-blank byte
         (["cover", "--space=  loc:zz", "--target=top", "--family=top", "--depth=1"], 2),
         (["spread", "--law= full3", "--depth=1"], 1),
         # depth and budget: the one integer token, ASCII digits only
         (["spread", "--law=full2", "--depth=1_0"], 1),
         (["spread", "--law=full2", "--depth= +3"], 1),
         (["spread", "--law=full2", "--depth=3", "--budget=-2"], 0),
         (["spread", "--law=full2", "--depth=", "--budget=2"], 0),
         (["cover", "--space=reals", "--target=(0,3)", "--family=(0,2);(1,3)", "--depth=2x"], 1),
         (["cover", "--space=reals", "--target=(0,3)", "--family=(0,2);(1,3)", "--depth=2",
           "--budget=  4.0"], 3),
         # a ball whose coordinates do not fit the space: its B
         (["cover", "--space=loc:q2", "--target=B(1; 0)", "--family=B(1; 0,0)", "--depth=2"], 0),
         (["cover", "--space=loc:q", "--target=B(1; 0,0)", "--family=B(1; 0)", "--depth=2"], 0),
         (["cover", "--space=loc:q2", "--target=  B(1; 0)", "--family=top", "--depth=2"], 2),
         (["cover", "--space=loc:q", "--target=top", "--family=B(1; 0);  B(1; 0,0)", "--depth=2"], 10),
         (["cover", "--space=loc:q2", "--target=top", "--family=B(1; 0,0);B(1/2; 1)", "--depth=2"], 10),
         (["cover", "--space=loc:seg:0,1", "--target=top", "--family=top;B(1/2; 0,1)", "--depth=2"], 4),
         # a radius that is not positive: its first byte
         (["cover", "--space=loc:q", "--target=B(0;0)", "--family=top", "--depth=1"], 2),
         (["cover", "--space=loc:q2", "--target=top", "--family=B(1;0,0);B( -1/4; 1,1)", "--depth=1"], 12),
         (["cover", "--space=loc:seg:0,1", "--target= B(0/3; 1/2)", "--family=top", "--depth=1"], 3)],
    )
    def test_true_offsets(self, capsys, argv, offset):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"(at offset {offset})" in err

    @pytest.mark.parametrize("out", ["no-such-dir/x.pgm", "."])
    def test_unwritable_plot_out(self, capsys, tmp_path, monkeypatch, out):
        # A missing directory and a directory: one line on stderr, no traceback.
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "plot", "--set=disk:0,0,1", "--viewport=-1,1,-1,1",
                                "--size=2x2", f"--out={out}")
        assert code == 3 and stdout == "" and err.startswith(f"cannot write {out}: ")
        assert len(err.splitlines()) == 1

    def test_depth_cap(self, capsys):
        # Each element deepens one unit of depth at a time; a depth over the
        # cap is refused before any search, so even ten digits answer at once.
        argv = ["cover", "--space=reals", "--target=(0,1)", "--family=(0,1/2);(1/2,1)"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--depth=9999999999")
        assert code == 3 and out == "" and "exceeds the cap of 256" in err
        assert time.perf_counter() - start < 1
        code, _, err = run(capsys, *argv, f"--depth={kernel.MAX_DEPTH + 1}")
        assert code == 3 and "precondition" in err
        code, out, _ = run(capsys, *argv, f"--depth={kernel.MAX_DEPTH}")
        assert code == 0 and out.strip() == "unknown"

    SHEARED_DISK = "--set=image(affine:1,1/2,0,0,1,0,disk:0,0,1)"

    def test_disk_net_cap(self, capsys):
        # A disk net's size is known before a point is built, so a net over
        # the cap is refused at once.
        start = time.perf_counter()
        code, out, err = run(capsys, "distance", self.SHEARED_DISK, "--point=3,0", "--prec=1/100000")
        assert code == 3 and out == "" and f"over the cap of {located._MAX_DISK_NET}" in err
        assert time.perf_counter() - start < 1

    def test_disk_net_under_the_cap_answers(self, capsys):
        code, out, _ = run(capsys, "distance", self.SHEARED_DISK, "--point=3,0", "--prec=1/16")
        assert code == 0 and out == "[153403/80688, 3762361/1936512]\n"

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
