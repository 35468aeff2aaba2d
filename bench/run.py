"""The overt benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, a closed loop with one client: each op starts
when the previous one has finished.  An op is one call of
``overt.cli.main(argv)`` with its output captured, or one public library
call where the CLI has no command (``net_from_located``, ``tvd_check``,
``finite_cover_decide``); every op parses its own inputs, so no library
object is shared between ops.

With ``--trace 0`` the run times whole passes of seeded ops until
``--seconds`` have passed (and at least 100 ops ran), checks every answer
and prints the end-to-end metrics.  With ``--trace 1`` it runs the first two
passes of the same seed, each op once plainly and once under the tracer of
``spans.py`` (alternating which goes first), and prints the per-layer
metrics and the tracing overhead; its counts do not depend on timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every answer passed its check.  Metric names and units come from
``BENCHMARK.json`` at the root of the checkout.

End-to-end times are scaled to a reference speed.  On a shared 2-core
virtual machine the CPU speed was seen to change by a third within minutes,
which moves every time in a run alike.  After each op and each warm-up op
(untimed) the run times ``reference()``: fixed integer arithmetic and a
pointer chase through a 4 MB array, neither of which calls the library.
Op times are divided by the reference's median over the timed loop,
set-up time by its median over the warm-up rounds, each relative to
``REF_MS``: the values read as on a machine where the reference takes
``REF_MS`` milliseconds.  A change to the program moves them as it moves
wall time; a change of the machine's speed mostly does not.  The summary
line gives the unscaled values too.  Traced runs report unscaled times.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from math import gcd  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WARMUP_ROUNDS = 3
MIN_OPS = 100
TRACE_PASSES = 2
REF_LOOPS = 1500
REF_SLOTS = 1 << 19
REF_STEPS = 12000
REF_MS = 3.5


def import_overt():
    """Import the library from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import overt
    import overt.cli  # noqa: F401  (loads every layer, so set-up counts the import)

    if src not in Path(overt.__file__).resolve().parents:
        raise ImportError(f"overt was imported from {overt.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Ops.
# ---------------------------------------------------------------------------


def _net_from_located(a):
    from overt import located, setspec
    from overt.rationals import parse_rational

    S = setspec.parse_set_spec(a["set"])
    amb = a["ambient"]
    if amb.startswith("box:"):
        ambient = located.box_set(*(parse_rational(v) for v in amb[4:].split(",")))
    else:
        ambient = setspec.parse_set_spec(amb)
    return located.net_from_located(ambient, located.predicate_from_net(S), parse_rational(a["eps"]))


def _tvd_check(a):
    from overt import located, metric
    from overt.rationals import parse_rational

    lo, hi = (parse_rational(v) for v in a["space"].split(","))
    seg = metric.LineSegment(lo, hi)
    S = located.interval_set(parse_rational(a["a"]), parse_rational(a["b"]), space=seg)
    Z = [metric.parse_ball(t) for t in a["balls"]]
    return located.tvd_check(located.predicate_from_net(S), Z, depth=a["depth"], budget=a["budget"]).verdict


def _finite_cover_decide(a):
    from overt import intervals
    from overt.rationals import parse_rational

    amb = tuple(parse_rational(v) for v in a["ambient"].split(","))
    u = intervals.parse_element(a["u"], amb)
    return intervals.finite_cover_decide(u, [intervals.parse_element(t, amb) for t in a["family"]])


LIBRARY_CALLS = {
    "net_from_located": _net_from_located,
    "tvd_check": _tvd_check,
    "finite_cover_decide": _finite_cover_decide,
}


def execute(op) -> tuple:
    """Run one op: ('', output) on success, (reason, None) on failure."""
    from overt import cli

    try:
        if op["call"] != "cli":
            return "", LIBRARY_CALLS[op["call"]](op["args"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op["argv"]))
        if rc != 0:
            return f"exit code {rc}: {err.getvalue().strip()[-300:]}", None
        return "", out.getvalue()
    except Exception as e:  # an op that raises is a failed op, not a crashed run
        return f"{type(e).__name__}: {e}", None


def verify(op, output) -> str:
    """'' when the answer passes its check, else the reason it does not."""
    c = op["check"]
    kind = c["type"]
    if kind == "bracket":
        return checks.check_bracket(output, c["real"], c["prec"])
    if kind == "plot":
        return checks.check_plot(output, c["geom"], c["viewport"], c["w"], c["h"])
    if kind == "roundtrip":
        return checks.check_roundtrip(output, c["geom"], c["eps"])
    if kind == "cover":
        return checks.check_cover(output, c)
    if kind == "vietoris":
        return checks.check_vietoris(output, c)
    if kind == "spread":
        return "" if output.strip() == c["expect"] else f"expected {c['expect']!r}"
    if kind == "tvd":
        if output == "holds" and not c["truth"]:
            return "containment reported for a case the endpoint sweep refutes"
        if c["margin"] and output != "holds":
            return f"verdict {output!r} on a case covered with margin"
        return ""
    if kind == "fcd":
        return "" if output == c["truth"] else f"answered {output}, the sweep says {c['truth']}"
    raise ValueError(f"unknown check {kind!r}")


def describe(op) -> str:
    return " ".join(op["argv"]) if op["call"] == "cli" else f"{op['call']} {json.dumps(op['args'])}"


def check_all(results, tracer=None) -> list:
    """Failures as (op, reason, output); the checks run untimed."""
    failures = []
    for i, (op, status, output) in enumerate(results):
        if not status:
            if tracer is not None:
                tracer.op = ("check", i)
                tracer.install()
            try:
                status = verify(op, output)
            except Exception as e:
                status = f"unreadable answer ({type(e).__name__}: {e})"
            finally:
                if tracer is not None:
                    tracer.uninstall()
        if status:
            failures.append((op, status, output))
    return failures


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


@functools.cache
def ring() -> array:
    """REF_SLOTS slots (4 MB) that link into one cycle in scattered order:
    x -> 1103515245 x + 12345 mod 2**19 has full period."""
    return array("q", ((1103515245 * x + 12345) % REF_SLOTS for x in range(REF_SLOTS)))


def reference() -> float:
    """Seconds taken by fixed work that calls nothing of the library.

    A loop of integer arithmetic (products, gcd, floor division) follows the
    processor's speed; a chase through ``ring()`` follows the memory's.  The
    two together tracked the program's own slowdowns better than either
    alone.  Neither allocates an object the garbage collector tracks, so the
    time does not grow with the library's caches."""
    nxt = ring()
    t0 = time.perf_counter()
    a, b = 1, 1
    for i in range(1, REF_LOOPS):
        num, den = a * (i + 7) + b * i, b * (i + 7)
        g = gcd(num, den)
        a, b = num // g, den // g
        if b > 1 << 64:
            a, b = a % 1000003 + 1, b % 999983 + 1
    x = 0
    for _ in range(REF_STEPS):
        x = nxt[x]
    return time.perf_counter() - t0


def setup(workload: str, seed: int, refs: list) -> tuple:
    """Generate ops and warm up, three times; returns (median seconds, results).
    The reference runs after each warm-up op, outside the round's time."""
    rounds, results = [], []
    for i in range(WARMUP_ROUNDS):
        t0, ref_s = time.perf_counter(), 0.0
        workloads.make_pass(workload, seed, 0)
        for op in workloads.make_warmup(workload, seed, i):
            results.append((op, *execute(op)))
            refs.append(reference())
            ref_s += refs[-1]
        rounds.append(time.perf_counter() - t0 - ref_s)
    return statistics.median(rounds), results


def run_plain(workload: str, seed: int, seconds: float, refs: list) -> tuple:
    latencies, results = [], []
    started, index = time.perf_counter(), 0
    while time.perf_counter() - started < seconds or len(latencies) < MIN_OPS:
        for op in workloads.make_pass(workload, seed, index):
            t0 = time.perf_counter()
            status, output = execute(op)
            latencies.append(time.perf_counter() - t0)
            results.append((op, status, output))
            refs.append(reference())
        index += 1
    return latencies, results, index


def run_traced(ops) -> tuple:
    """Each op once plainly and once traced; returns (tracer, results,
    plain seconds, traced seconds).  Both runs of an op must agree."""
    import spans

    tracer = spans.Tracer()
    results, plain_s, traced_s = [], 0.0, 0.0
    for i, op in enumerate(ops):
        answers = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.op = ("op", i)
                tracer.install()
            t0 = time.perf_counter()
            try:
                answers[traced] = execute(op)
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if traced:
                traced_s += dt
            else:
                plain_s += dt
        status, output = answers[True]
        if not status and answers[False] != answers[True]:
            status = "traced and plain runs disagree"
        results.append((op, status, output))
    return tracer, results, plain_s, traced_s


def emit(correct, attempted, failed, values, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def report_failures(failures):
    for op, reason, output in failures:
        print(f"FAILED [{op['t']}] {describe(op)}\n    {reason}\n    output: {str(output)[:200]!r}",
              file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import_overt()
    except ImportError as e:
        print(f"cannot import the library: {e}", file=sys.stderr)
        return 2
    imported = time.perf_counter() - _START
    ring()  # built once, outside set-up time
    setup_refs, refs = [], []
    setup_s, warm = setup(args.workload, args.seed, setup_refs)
    setup_s += imported

    if args.trace:
        ops = [op for i in range(TRACE_PASSES) for op in workloads.make_pass(args.workload, args.seed, i)]
        tracer, results, plain_s, traced_s = run_traced(ops)
        traced_failures = check_all(results, tracer)
        failures = check_all(warm) + traced_failures
        values = tracer.metrics()
        values["trace.overhead_frac"] = traced_s / plain_s - 1
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(path)
        print(f"{args.workload} seed {args.seed}: {len(results)} ops traced, {len(tracer.spans)} spans"
              f" in {path.relative_to(ROOT)}; plain {plain_s:.2f} s, traced {traced_s:.2f} s")
        report_failures(failures)
        emit(not failures, len(results), len(traced_failures), values, "per_layer")
        return 1 if failures else 0

    latencies, results, passes = run_plain(args.workload, args.seed, args.seconds, refs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed_failures = check_all(results)
    failures = check_all(warm) + timed_failures
    attempted, failed = len(results), len(timed_failures)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    slowdown = statistics.median(refs) * 1000 / REF_MS
    setup_slowdown = statistics.median(setup_refs) * 1000 / REF_MS
    values = {
        "throughput_ops_s": (attempted - failed) / sum(latencies) * slowdown,
        "latency_p50_ms": deciles[4] * 1000 / slowdown,
        "latency_p90_ms": deciles[8] * 1000 / slowdown,
        "completed_frac": (attempted - failed) / attempted,
        "setup_s": setup_s / setup_slowdown,
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(1 for x in latencies if x > deciles[8])
    print(f"{args.workload} seed {args.seed}: {attempted} ops in {passes} passes, {sum(latencies):.2f} s busy;"
          f" {len(latencies)} latency samples, {beyond} beyond p90; {failed} failed"
          f" (failed_frac {failed / attempted:.4f}); {len(warm)} warm-up ops;"
          f" reference median {slowdown * REF_MS:.4f} ms over {len(refs)} samples"
          f" ({setup_slowdown * REF_MS:.4f} ms in set-up); unscaled"
          f" {(attempted - failed) / sum(latencies):.4g} ops/s, p50 {deciles[4] * 1000:.4g} ms,"
          f" p90 {deciles[8] * 1000:.4g} ms, setup {setup_s:.4g} s")
    report_failures(failures)
    emit(not failures, attempted, failed, values, "end_to_end")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
