"""Benchmark of the superalg command line, end to end and layer by layer.

    python3 bench/run.py --workload derive_sparse --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client in one process runs a closed
loop: each op is one `superalg.cli.main` invocation on one input file,
started when the previous one has finished.  Set-up imports the package
from `src/` and writes the seeded inputs (see workloads.py); it is
repeated SETUP_REPS times and its median is `setup_s`.  The op list is
then run pass after pass for about `--seconds`; every answer is checked
against closed forms (oracle.py) and a wrong one is counted, not raised.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, medians over
the passes, with every time in reference seconds (see calibrate below).  --trace 1 alternates untraced and traced passes and prints
the per-layer metrics (tracing.py): one traced set-up plus the median traced
pass, and the tracing overhead.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A result
file with the environment, per-pass samples and, when traced, the spans
is written under .bench_work/results/.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

import oracle
import tracing
from workloads import WORKLOADS, Plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 11
clock = time.perf_counter

# Host speed.  On a shared host the guest's speed drifts by up to 1.7x
# within a minute, and a whole run can fall in a slow stretch, so raw
# times of the same code spread past any useful bound from run to run.
# Each timed interval is therefore scaled by CAL_REF_S over the time of
# CAL_BLOCKS fixed blocks of interpreter work (reference_block) measured
# right before and right after it.  The end-to-end times are in reference
# seconds: seconds on a host where those blocks take CAL_REF_S, close to
# their time on a 2-vCPU KVM guest under Python 3.11.  The blocks do not
# touch superalg, so the program under test cannot change them; raw times
# go to the result file and the human-readable lines.  Successive timings
# of four blocks differed there by 12-17% (sd of the log ratio), of
# sixteen blocks (about 35 ms) by 4-7%.
CAL_BLOCKS = 16
CAL_REF_S = 0.032


def reference_block():
    """Fixed interpreter work of the kinds superalg does: exact fractions,
    dict updates keyed by tuples and small lists."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 400):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        row = [(j * i) % 13 for j in range(12)]
        if sum(row) % 2:
            table[(i,)] = tuple(row)
    return acc, len(table)


def calibrate():
    """Seconds CAL_BLOCKS reference blocks take now, with the collector
    off so that the program's live objects do not slow them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        for _ in range(CAL_BLOCKS):
            reference_block()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds, before, after):
    """`seconds` measured between two calibrations, in reference seconds."""
    return seconds * 2.0 * CAL_REF_S / (before + after)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def fresh_import():
    """Import the package from src/ as a new process would."""
    for name in [n for n in sys.modules if n == "superalg" or n.startswith("superalg.")]:
        del sys.modules[name]
    cli = importlib.import_module("superalg.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError("imported superalg from %s, not from %s" % (cli.__file__, SRC))
    return sys.modules["superalg"]


def timed_setup(plan, workdir):
    """Raw and reference seconds of one set-up."""
    before = calibrate()
    start = clock()
    superalg = fresh_import()
    plan.write_inputs(superalg, workdir)
    raw = clock() - start
    return raw, scaled(raw, before, calibrate())


def run_pass(main, ops, top, tracer=None):
    """Run every op once; return its times and the failure reasons.

    `wall_s` and `top_rung_s` are in reference seconds, `raw_*` as
    measured; `latencies` are raw and `cal` holds the calibrations taken
    between the ops."""
    latencies = []
    failures = []
    cal = [calibrate()]
    for index, op in enumerate(ops):
        out = io.StringIO()
        reason = None
        code = None
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = main(op.argv)
                else:
                    code = tracer.root("cli", index, main, op.argv)
        except Exception:
            reason = "raised " + traceback.format_exc().strip().splitlines()[-1]
        latencies.append(clock() - start)
        cal.append(calibrate())
        text = out.getvalue()
        if tracer is not None:
            tracer.stats.add("cli.out_bytes", len(text.encode()))
        reason = reason or oracle.check(op, code, text)
        if reason is not None:
            failures.append("%s: %s" % (" ".join(op.argv), reason))
    ref = [scaled(t, cal[i], cal[i + 1]) for i, t in enumerate(latencies)]
    on_top = [op.rung is top for op in ops]
    return {"wall_s": sum(ref),
            "top_rung_s": sum(t for t, top_op in zip(ref, on_top) if top_op),
            "raw_wall_s": sum(latencies),
            "raw_top_rung_s": sum(t for t, top_op in zip(latencies, on_top) if top_op),
            "latencies": latencies, "cal": cal}, failures


def layer_values(stats):
    """Per-layer metric values of one traced stretch."""
    values = {}
    for name in tracing.NAMES:
        values[name + ".calls"] = stats.calls[name]
        values[name + ".self_s"] = stats.self_s[name]
    s = stats.sums

    def ratio(num, den):
        return num / den if den else 0.0

    values.update({
        "core.element.inits": stats.calls["core.element"],
        "core.law_nnz": ratio(s["core.law_nnz_total"], stats.calls["fileformat.load"]),
        "core.validate.dim3": s["core.validate.dim3"],
        "derivations.derivation_space.equations": s["derivations.derivation_space.equations"],
        "derivations.derivation_space.unknowns": s["derivations.derivation_space.unknowns"],
        "derivations.derivation_space.fill": ratio(
            s["derivations.derivation_space.nonzeros"],
            s["derivations.derivation_space.cells"]),
        "linalg.nullspace.rank": s["linalg.nullspace.rank"],
        "linalg.nullspace.max_bits_in": stats.peaks["linalg.nullspace.max_bits_in"],
        "linalg.nullspace.max_bits_out": stats.peaks["linalg.nullspace.max_bits_out"],
        "linalg.row_space_basis.rank_ratio": ratio(
            s["linalg.row_space_basis.rank"], s["linalg.row_space_basis.vectors_in"]),
        "linalg.span_contains.hit_ratio": ratio(
            s["linalg.span_contains.hits"], stats.calls["linalg.span_contains"]),
        "extension.semidirect_extension.success_ratio": ratio(
            s["extension.semidirect_extension.successes"],
            stats.calls["extension.semidirect_extension"]),
        "fileformat.load.bytes": s["fileformat.load.bytes"],
        "fileformat.dump.bytes": s["fileformat.dump.bytes"],
        "cli.out_bytes": s["cli.out_bytes"],
    })
    return values


def self_time_gap(stats, spans):
    """Sum of all self times minus the summed duration of the root spans."""
    roots = sum(end - start for _, _, start, end, parent, _ in spans if parent is None)
    return sum(stats.self_s.values()) - roots, roots


def measure(plan, workdir, seconds, traced):
    """Passes for about `seconds`; traced runs alternate plain and traced."""
    superalg = sys.modules["superalg"]
    main = sys.modules["superalg.cli"].main
    ops = plan.ops(workdir)
    tracer = None
    setup_stats = None
    if traced:
        tracer = tracing.Tracer(sys.modules)
        tracer.install()
        try:
            tracer.root("setup", -1, plan.write_inputs, superalg, workdir)
        finally:
            tracer.uninstall()
        setup_stats = tracer.take()
        gap, roots = self_time_gap(setup_stats, tracer.spans)
        checks = [("setup", gap, roots)]
    passes = []
    traced_passes = []
    failures = []
    start = clock()
    while True:
        cycle = clock()
        times, bad = run_pass(main, ops, plan.top)
        passes.append(times)
        failures += bad
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
            try:
                times, bad = run_pass(main, ops, plan.top, tracer)
            finally:
                tracer.uninstall()
            failures += bad
            stats = tracer.take()
            gap, roots = self_time_gap(stats, tracer.spans[first_span:])
            checks.append(("pass %d" % len(traced_passes), gap, roots))
            values = layer_values(setup_stats.merge(stats))
            values["trace.wall_s"] = times["raw_wall_s"]
            values["trace.spans"] = len(tracer.spans) - first_span
            traced_passes.append(values)
        now = clock()
        if now - start + (now - cycle) > seconds:
            break
    result = {"ops": ops, "passes": passes, "failures": failures,
              "attempted": len(ops) * len(passes) * (2 if traced else 1)}
    if traced:
        result.update(traced_passes=traced_passes, checks=checks, spans=tracer.spans)
    return result


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, plan):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rungs": [{"input": r.tag, "dim": r.dim} for r in plan.rungs],
        "top_rung": plan.top.tag,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def declared_metrics(trace_on):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace_on else "end_to_end"]


def end_to_end(setup_times, result, failed):
    attempted = result["attempted"]
    return {
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in result["passes"]),
        "top_rung_s": statistics.median(p["top_rung_s"] for p in result["passes"]),
        "ok_ops_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(result):
    traced = result["traced_passes"]
    values = {key: statistics.median(p[key] for p in traced) for key in traced[0]}
    plain = statistics.median(p["raw_wall_s"] for p in result["passes"])
    values["trace.untraced_wall_s"] = plain
    values["trace.overhead_s"] = values["trace.wall_s"] - plain
    return values


def print_layer_table(values):
    print("per-layer self time, median traced pass plus the traced set-up:")
    rows = sorted(((k[:-len(".self_s")], v) for k, v in values.items()
                   if k.endswith(".self_s")), key=lambda kv: -kv[1])
    total = sum(v for _, v in rows)
    for name, v in rows:
        if v:
            print("  %-36s %9.4f s %5.1f%% %9d calls  moves %s"
                  % (name, v, 100.0 * v / total, values.get(name + ".calls", 0),
                     tracing.SHOULD_MOVE.get(name, "-")))
    print("  %-36s %9.4f s" % ("sum of self times", total))
    print("tracing overhead: traced wall %.4f s - untraced wall %.4f s = %.4f s"
          % (values["trace.wall_s"], values["trace.untraced_wall_s"],
             values["trace.overhead_s"]))


def run(args):
    if not os.path.isfile(os.path.join(SRC, "superalg", "__init__.py")):
        raise BenchError("no superalg package under %s" % SRC)
    sys.path.insert(0, SRC)
    plan = Plan(args.workload, args.seed)
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times = [timed_setup(plan, workdir) for _ in range(SETUP_REPS)]
        result = measure(plan, workdir, args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(result["failures"])
    correct = failed == 0
    env = environment(args, plan)
    print("environment: %s" % json.dumps(env))
    for reason in result["failures"][:20]:
        print("FAILED %s" % reason)
    if args.trace:
        values = per_layer(result)
        print_layer_table(values)
        for label, gap, roots in result["checks"]:
            ok = abs(gap) <= 1e-6 * roots + 1e-9
            print("self-time check, %s: layers sum to %.6f s of %.6f s traced: %s"
                  % (label, roots + gap, roots, "ok" if ok else "MISMATCH"))
            correct = correct and ok
    else:
        values = end_to_end(setup_times, result, failed)
        passes = result["passes"]
        print("raw seconds, medians: setup %.6f, wall %.6f, top rung %.6f"
              % (statistics.median(raw for raw, _ in setup_times),
                 statistics.median(p["raw_wall_s"] for p in passes),
                 statistics.median(p["raw_top_rung_s"] for p in passes)))
        print("calibration: median %.6f s, reference %.6f s"
              % (statistics.median(c for p in passes for c in p["cal"]), CAL_REF_S))
    print("passes: %d, ops per pass: %d" % (len(result["passes"]), len(result["ops"])))
    print("failed_ops_frac: %d of %d ops = %g" % (failed, result["attempted"],
                                                  failed / result["attempted"]))

    metrics = {}
    for m in declared_metrics(args.trace == 1):
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-48s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))

    record = {"environment": env, "metrics": metrics, "correct": correct,
              "attempted": result["attempted"], "failed": failed,
              "failures": result["failures"], "setup_s_samples": setup_times,
              "passes": result["passes"], "ops": [op.argv for op in result["ops"]]}
    if args.trace:
        record["traced_passes"] = result["traced_passes"]
        record["spans"] = result["spans"]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print("result file: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
