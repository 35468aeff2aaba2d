"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py -q"""

import gc
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import checks
import run
import workloads

BENCH = Path(__file__).resolve().parent
NAMES = sorted(workloads.WORKLOADS)


def _python(code: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                         capture_output=True, text=True, timeout=600, check=True)
    return out.stdout


def _op_list(workload: str, seed: int, hash_seed: str) -> str:
    code = (
        "import json, workloads\n"
        f"w, s = {workload!r}, {seed}\n"
        "ops = [workloads.make_warmup(w, s, i) for i in range(3)]\n"
        "ops += [workloads.make_pass(w, s, i) for i in range(3)]\n"
        "print(json.dumps(ops, sort_keys=True, default=str))\n"
    )
    return _python(code, hash_seed)


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_gives_byte_identical_ops(workload):
    assert _op_list(workload, 7, "1") == _op_list(workload, 7, "2")


@pytest.mark.parametrize("workload", NAMES)
def test_other_seed_gives_other_ops(workload):
    assert _op_list(workload, 7, "0") != _op_list(workload, 8, "0")


def test_cli_values_are_attached_and_coordinates_go_negative():
    negative = 0
    for workload in NAMES:
        for op in workloads.make_pass(workload, 3, 0):
            if op["call"] != "cli":
                continue
            flags = [a for a in op["argv"][1:] if a.startswith("--")]
            assert all("=" in a for a in flags if a != "--leq"), op["argv"]
            negative += any("=-" in a or ",-" in a or ":-" in a for a in op["argv"])
    assert negative > 20


def _traced_counts(workload: str, hash_seed: str) -> dict:
    code = (
        "import json, run, workloads\n"
        "run.import_overt()\n"
        f"ops = workloads.make_pass({workload!r}, 3, 0)[:12]\n"
        "tracer, results, _, _ = run.run_traced(ops)\n"
        "assert not run.check_all(results, tracer)\n"
        "m = tracer.metrics()\n"
        "print(json.dumps({k: v for k, v in m.items() if not k.endswith(('.s', '_s'))}))\n"
    )
    return json.loads(_python(code, hash_seed))


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_across_hash_seeds(workload):
    first = _traced_counts(workload, "1")
    assert first == _traced_counts(workload, "2")
    assert first["cli.main.calls"] + first["located.net_from_located.probes"] > 0


def test_wrong_expected_value_fails_the_run(monkeypatch, capsys):
    make_pass = workloads.make_pass

    def corrupted(workload, seed, index):
        ops = make_pass(workload, seed, index)
        op = next(op for op in ops if op["check"]["type"] == "bracket")
        agg, terms = op["check"]["real"]
        op["check"]["real"] = (agg, [(q, t + 1) for q, t in terms])
        return ops

    monkeypatch.setattr(workloads, "make_pass", corrupted)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    code = run.main(["--workload", "covers-modal", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_closed_forms_bracket_known_values():
    run.import_overt()
    for argv, value in (
        (["hausdorff", "--a=disk:0,0,1", "--b=segment:-1,0,1,0", "--prec=1/4"], F(1)),
        (["hausdorff", "--a=interval:0,1", "--b=cantor", "--prec=1/64"], F(1, 6)),
        (["distance", "--set=cantor", "--point=1/2", "--prec=1/64"], F(1, 6)),
    ):
        prec = F(argv[-1][len("--prec="):])
        status, out = run.execute({"call": "cli", "argv": argv})
        assert status == ""
        assert checks.check_bracket(out, checks.rational(value), prec) == ""
        assert checks.check_bracket(out, checks.rational(value + 2 * prec), prec) != ""
    assert checks.cantor_dist(F(1, 2)) == F(1, 6)
    assert checks.cantor_dist(F(1, 4)) == 0
    assert checks.cantor_dist(F(5, 11)) == F(5, 11) - F(1, 3)


@pytest.mark.parametrize("carrier", ["chain:5", "bool:3", "grid:3,3", "grid:2,4"])
def test_brute_force_models_are_the_principal_ones(carrier):
    L = checks.Lattice(carrier)
    birkhoff = {frozenset(u for u in L.elems if not L.leq(u, n)) for n in L.elems}
    assert set(checks.lattice_models(L)) == birkhoff


def test_reference_loop_allocates_nothing_the_collector_tracks():
    run.reference()
    before = gc.get_count()[0]
    assert run.reference() > 0
    assert gc.get_count()[0] == before
