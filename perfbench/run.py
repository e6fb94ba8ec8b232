#!/usr/bin/env python3
"""drinfeld2 benchmark: one workload, one process, one caller (closed loop).

    python3 perfbench/run.py --workload realize_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src.

--trace 0  times the workload's ops for --seconds seconds with tracing off and
           reports the end-to-end metrics, in reference seconds: each time
           is scaled by the machine's speed at that moment, sampled all
           through the run (clock.py).  The raw wall times are recorded too.
--trace 1  runs a fixed, seeded subset of the ops twice, untraced and then
           traced, and reports the per-layer metrics; the spans and call
           counts are written under perfbench/out/.

Every op's output is compared with perfbench/golden.json, and the README CLI
examples are replayed through drinfeld2.cli.main and compared byte for byte.
Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

PRIME_OPS = ("add", "neg", "mul", "sub", "inv", "pow", "scalar", "is_square_unit", "pth_root")
SELF_LAYERS = ("ff", "ore", "linalg", "frobenius", "drinfeld", "polyring", "classify", "census")


def import_library():
    """Import drinfeld2 from this checkout's src/, never from elsewhere."""
    pkg = SRC / "drinfeld2"
    if not (pkg / "__init__.py").is_file():
        sys.exit("perfbench: no library at %s; run from a checkout of the repository" % pkg)
    sys.path.insert(0, str(SRC))
    import drinfeld2

    if Path(drinfeld2.__file__).resolve().parent != pkg.resolve():
        sys.exit("perfbench: imported drinfeld2 from %s, expected %s" % (drinfeld2.__file__, pkg))


def provenance(args, ops):
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "drinfeld2").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "ops": ops,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "loop": "closed, 1 caller, 1 thread",
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_cli_corpus(corpus, tracer=None):
    """Replay each stored CLI call in-process; return the number that differ.
    With a tracer, each call is one traced op named cli<i>."""
    from drinfeld2 import cli

    mismatches = 0
    for i, case in enumerate(corpus):
        out, err = io.StringIO(), io.StringIO()
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.op = "cli%d" % i
            span = tracer.span("bench", "cli")
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(case["argv"]))
            except SystemExit as exc:
                code = exc.code
        if code != case["exit"] or out.getvalue() != case["stdout"]:
            mismatches += 1
            print("cli mismatch: drinfeld2 %s (exit %r)" % (" ".join(case["argv"]), code),
                  file=sys.stderr)
    return mismatches


def run_op(clock, wl, op, golden):
    """(start, raw seconds, ok) for one op; the check runs after the clock
    stops, and an op that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        start, raw, out = clock.measure(wl.call, op)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return t0, time.perf_counter() - t0, False
    return start, raw, checked(wl, op, out, golden)


def checked(wl, op, out, golden):
    try:
        return bool(wl.check(op, out, golden))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def timed_run(wl, args, golden):
    """Time ops for args.seconds under a SpeedClock.  The set-up repetitions
    are spread evenly over the run, so their median sees the same machine as
    the ops do.  Every time is reported in reference seconds (clock.py); the
    raw wall times go to the record beside them."""
    from clock import SpeedClock
    from workloads import stream

    repeats = wl.setup_repeats
    setups = []  # (start, raw seconds)
    samples, failed, seen = [], 0, set()  # samples: (op, start, raw seconds)

    with SpeedClock() as clock:
        def set_up():
            t0, raw, state = clock.measure(wl.setup, args.seed)
            setups.append((t0, raw))
            return state

        state = set_up()
        shapes = {op.shape for op in state["ops"]}
        start = time.perf_counter()
        paused = 0.0  # wall time spent in set-up repetitions, not counted
        for op in stream(state):
            elapsed = time.perf_counter() - start - paused
            if elapsed >= args.seconds and (not wl.needs_full_pass or seen == shapes):
                break
            if len(setups) < repeats and elapsed >= args.seconds * len(setups) / repeats:
                t0 = time.perf_counter()
                set_up()
                paused += time.perf_counter() - t0
            t0, raw, ok = run_op(clock, wl, op, golden)
            failed += not ok
            samples.append((op, t0, raw))
            seen.add(op.shape)
        while len(setups) < repeats:
            set_up()

    setup_s = [clock.scaled(t0, raw) for t0, raw in setups]
    scaled = [(op, clock.scaled(t0, raw)) for op, t0, raw in samples]
    unscaled = [(op, dt) for op, _, dt in samples]
    rate, p50, p90 = wl.rates(scaled, state)
    raw_rate, raw_p50, raw_p90 = wl.rates(unscaled, state)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "work_per_s": (rate, "work/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {
        "work_unit": wl.work_unit,
        "setup_repeats_s": setup_s,
        "timed_s": sum(dt for _, dt in scaled),
        "op_p90_ms": None if p90 is None else p90 * 1e3,
        "per_op_ms": {str(k): v for k, v in _per_shape_ms(scaled).items()},
        "reference_median_ms": clock.reference_median_s() * 1e3,
        "reference_samples": len(clock.times),
        "raw": {
            "setup_s": statistics.median(dt for _, dt in setups),
            "work_per_s": raw_rate,
            "op_p50_ms": raw_p50 * 1e3,
            "op_p90_ms": None if raw_p90 is None else raw_p90 * 1e3,
            "setup_repeats_s": [dt for _, dt in setups],
            "timed_s": sum(dt for _, dt in unscaled),
        },
    }
    return len(samples), failed, metrics, extra


def _per_shape_ms(samples):
    out = {}
    for op, dt in samples:
        out.setdefault(op.shape, []).append(round(dt * 1e3, 3))
    return out


def traced_run(wl, args, golden):
    """Untraced then traced pass over the same fixed op list.  Outputs are
    checked after the tracer is removed, so checking adds no counts."""
    from tracer import Tracer

    t0 = time.perf_counter()
    state = wl.setup(args.seed)
    for op in wl.trace_ops(state):
        call_or_none(wl, op)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        with tracer.span("bench", "setup"):
            state = wl.setup(args.seed)
        ops = wl.trace_ops(state)
        outputs = []
        for i, op in enumerate(ops):
            tracer.op = i
            with tracer.span("bench", "op"):
                outputs.append(call_or_none(wl, op))
        tracer.op = None
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    failed = sum(out is None or not checked(wl, op, out, golden)
                 for op, out in zip(ops, outputs))
    realized = 0
    if wl.name == "realize_sweep":
        realized = sum(len(out[0]) for out in outputs if out is not None)
    metrics = layer_metrics(tracer, traced_s / untraced_s, realized)
    extra = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans_kept": len(tracer.spans),
        "counts": dict(sorted(tracer.counts.items())),
        "yields": dict(sorted(tracer.yields.items())),
        "self_s": dict(sorted(tracer.self_s.items())),
        "inclusive_s": dict(sorted(tracer.incl_s.items())),
    }
    return len(ops), failed, metrics, extra, tracer


def call_or_none(wl, op):
    try:
        return wl.call(op)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def layer_metrics(tr, overhead, realized):
    c, incl = tr.counts, tr.incl_s

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(key):
        return c.get(key, 0), "count"

    def secs(key):
        return incl.get(key, 0.0), "s"

    m = {"%s.self_s" % layer: (tr.self_s.get(layer, 0.0), "s") for layer in SELF_LAYERS}
    entries = c.get("census.full_report", 0) + c.get("census.realize", 0)
    m.update({
        "ff.ext_add.calls": calls("ff.ExtensionField.add"),
        "ff.ext_mul.calls": calls("ff.ExtensionField.mul"),
        "ff.frob_iter.calls": calls("ff.ExtensionField.frob_iter"),
        "ff.prime_ops.calls": (sum(c.get("ff.PrimeField." + op, 0) for op in PRIME_OPS), "count"),
        "ff.least_irreducible.s": secs("ff.least_irreducible"),
        "ff.field_build.s": (
            incl.get("ff.ext_make", 0.0) + incl.get("ff.field_make", 0.0)
            - incl.get("ff.least_irreducible", 0.0), "s"),
        "ore.mul.calls": calls("ore.OrePoly.__mul__"),
        "linalg.solve.calls": calls("linalg.solve"),
        "frobenius.charpoly.calls": calls("frobenius.charpoly"),
        "frobenius.charpoly.s": secs("frobenius.charpoly"),
        "drinfeld.modules_built": calls("drinfeld.DrinfeldModule.__init__"),
        "drinfeld.minimal_polynomial.calls": calls("drinfeld.minimal_polynomial"),
        "drinfeld.phi.calls": calls("drinfeld.DrinfeldModule.phi"),
        "polyring.mul.calls": calls("polyring.Poly.__mul__"),
        "polyring.divmod.calls": calls("polyring.Poly.__divmod__"),
        "polyring.is_irreducible.calls": calls("polyring.is_irreducible"),
        "polyring.is_irreducible.s": secs("polyring.is_irreducible"),
        "polyring.squarefree_split.calls": calls("polyring.squarefree_split"),
        "classify.weil_admissible.calls": calls("classify.weil_admissible"),
        "classify.weil_admissible.s": secs("classify.weil_admissible"),
        "classify.endomorphism_order.s": secs("classify.endomorphism_order"),
        "census.grid_walks": (ratio(c.get("census.candidate_pairs", 0), entries), "ratio"),
        "census.candidates": (tr.yields.get("census.candidate_pairs", 0), "count"),
        "census.admissible_ratio": (
            ratio(tr.yields.get("census.admissible_pairs", 0),
                  tr.yields.get("census.candidate_pairs", 0)), "ratio"),
        "census.realize.distinct_ratio": (ratio(realized, c.get("frobenius.charpoly", 0)), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def write_spans(path, tracer):
    with open(path, "w") as fh:
        for op, sid, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                 "start": round(start, 7), "end": round(end, 7)}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="drinfeld2 benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text())

    tracer = cli_tracer = None
    if args.trace:
        from tracer import Tracer

        attempted, failed, metrics, extra, tracer = traced_run(wl, args, golden[wl.name])
        cli_tracer = Tracer().install()
        try:
            cli_mismatches = run_cli_corpus(golden["cli"], cli_tracer)
        finally:
            cli_tracer.uninstall()
        extra["cli_counts"] = dict(sorted(cli_tracer.counts.items()))
    else:
        attempted, failed, metrics, extra = timed_run(wl, args, golden[wl.name])
        cli_mismatches = run_cli_corpus(golden["cli"])

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {
        "provenance": provenance(args, attempted),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "cli_corpus": {"cases": len(golden["cli"]), "mismatches": cli_mismatches},
        "metrics": metrics,
        "detail": extra,
    }
    if tracer is not None:
        record["spans_files"] = []
        for suffix, tr in (("", tracer), ("-cli", cli_tracer)):
            path = OUT / ("spans-%s%s.jsonl" % (stem, suffix))
            write_spans(path, tr)
            record["spans_files"].append(str(path.relative_to(ROOT)))
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")

    print("# %s" % json.dumps(record["provenance"]))
    if not args.trace:
        print_end_to_end(wl, metrics, extra, attempted, failed)
    else:
        for name, m in metrics.items():
            print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print("%-36s %16s %s" % ("cli_corpus", "%d/%d" % (len(golden["cli"]) - cli_mismatches,
                                                       len(golden["cli"])), "match"))
    result = {
        "correct": failed == 0 and cli_mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def print_end_to_end(wl, metrics, extra, attempted, failed):
    """The end-to-end metrics under the names the notes use."""
    rows = [
        ("setup_s", metrics["setup_s"]["value"], "s"),
        ("%s_per_s" % wl.work_unit, metrics["work_per_s"]["value"], "%s/s" % wl.work_unit),
        ("op_p50_ms", metrics["op_p50_ms"]["value"], "ms  (%d ops)" % attempted),
    ]
    if extra["op_p90_ms"] is not None:
        rows.append(("op_p90_ms", extra["op_p90_ms"], "ms  (%d ops)" % attempted))
    rows += [
        ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MiB"),
        ("ops_failed_frac", failed / attempted, "failed/attempted (%d/%d)" % (failed, attempted)),
    ]
    for name, value, unit in rows:
        print("%-36s %16.6g %s" % (name, value, unit))
    raw = extra["raw"]
    print("# times above are in reference seconds (clock.py); reference op median %.4f ms over "
          "%d samples; raw wall: setup_s %.4g, %s_per_s %.4g, op_p50_ms %.4g"
          % (extra["reference_median_ms"], extra["reference_samples"], raw["setup_s"], wl.work_unit,
             raw["work_per_s"], raw["op_p50_ms"]))


if __name__ == "__main__":
    sys.exit(main())
