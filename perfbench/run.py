"""Host-time benchmark of the EOF reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fuzz-5os --seed 2026 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
semantic digest over the run's sessions (``sessions=<n> <sha256>``).
The exit code is 0 only when every check passed, 1 when a check failed,
2 when the benchmark cannot run (for example when ``src/repro`` is
missing).
"""

import time

#: Process start, before any ``repro`` import: one-time import cost is
#: part of set-up time.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: Where runs keep scratch state and span files (ignored by git).
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Busy processes for single-board sessions (the container has 2 cores;
#: a campaign's own worker processes already use both).
PROCESSES = 2
#: A traced run measures this share of an untraced run's sessions twice
#: (once plain, once traced).
TRACE_SHARE = 4

LAYERS = ("hw.memory", "hw.board", "instrument.tracer", "instrument.decode",
          "oses", "agent", "link", "ddi", "fuzz.generator", "fuzz.mutator",
          "fuzz.corpus", "fuzz.feedback", "fuzz.monitors", "fuzz.snapshot",
          "fuzz.restore", "fuzz.engine", "farm", "db", "obs", "firmware",
          "spec", "analysis")

#: Per-layer counts taken straight from the tracer: metric -> unit.
TRACER_COUNTS = {
    "hw.memory.calls": "count", "hw.board.calls": "count",
    "instrument.tracer.hits": "count", "instrument.decode.records": "count",
    "oses.calls": "count", "agent.steps": "count",
    "ddi.attach_s": "s", "fuzz.generator.calls": "count",
    "fuzz.mutator.calls": "count", "fuzz.corpus.calls": "count",
    "fuzz.monitors.calls": "count", "fuzz.restore.calls": "count",
    "farm.barrier_wait_s": "s", "farm.start_s": "s", "obs.events": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the checkout's ``repro`` modules a run touches (timed as
    set-up); raises ImportError when the checkout has no ``src/repro``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise ImportError(f"no repro package under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import repro.bench.runner  # noqa: F401
    import repro.fuzz.engine  # noqa: F401
    import workloads
    return workloads


def untraced(args, wl, workload, scratch, import_s):
    board = isinstance(workload, wl.BoardWorkload)
    processes = PROCESSES if board else 1
    m = wl.run_pass(workload, args.seed,
                    wl.session_count(workload, args.seconds, processes),
                    scratch, processes=processes)
    replay = wl.Measurements()
    failures = m.failures + wl.check_replay(workload, args.seed, scratch, m,
                                            replay)
    # Board sessions: each session's largest board at the end of fuzzing.
    # Campaigns: the peak of the largest worker process.
    rss = statistics.median(m.session_rss_mb) if board else wl.peak_rss_mb()
    if board:
        # Pool workers start cold; the replay is this process's first
        # session, so it is cold too once the import is added.
        setups = m.cold_setup_s + [import_s + sum(replay.setup_s)]
    else:
        # Every campaign spawns fresh workers; the first pays the import.
        setups = [import_s + m.setup_s[0]] + m.setup_s[1:] + replay.setup_s
    metrics = wl.end_to_end(m, setups, rss)
    # The digest over the sessions a traced run repeats, for comparison.
    digests = {sessions: wl.prefix_digest(workload, m, sessions)
               for sessions in (trace_sessions(wl, workload, args),
                                wl.session_count(workload, args.seconds,
                                                 processes))}
    return digests, m.attempted, failures, metrics


def trace_sessions(wl, workload, args) -> int:
    """Sessions a traced run measures (twice)."""
    return max(2, wl.session_count(workload, args.seconds, 1) // TRACE_SHARE)


def traced(args, wl, workload, scratch):
    from tracer import SpanTracer, install_layers
    sessions = trace_sessions(wl, workload, args)
    plain = wl.run_pass(workload, args.seed, sessions, scratch)
    tracer = SpanTracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    install_layers(tracer)
    try:
        spanned = wl.run_pass(workload, args.seed, sessions, scratch,
                              tracer=tracer)
    finally:
        tracer.uninstall()
    failures = plain.failures + spanned.failures
    if plain.digest != spanned.digest:
        failures.append(f"traced digest {spanned.digest[:12]} != untraced "
                        f"digest {plain.digest[:12]}")
    span_file = os.path.join(
        WORK_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(span_file)
    print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, "
          f"written to {os.path.relpath(span_file, ROOT)}")
    if isinstance(workload, wl.CampaignWorkload):
        print("note: campaign workers run in child processes, so only "
              "coordinator-side layers (farm, db, obs) are traced; "
              "worker-side layers read 0 and are not estimated")
    metrics = per_layer(wl, tracer, plain, spanned)
    return {sessions: spanned.digest}, plain.attempted + spanned.attempted, \
        failures, metrics


def per_layer(wl, tracer, plain, spanned):
    """Per-layer metrics: self times and counts from the traced pass,
    per-OS throughput from the untraced one."""
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s.get(layer, 0.0), "s")
    for name, unit in TRACER_COUNTS.items():
        metrics[name] = (float(tracer.counts.get(name, 0)), unit)
    loop = tracer.span_s.get("fuzz.engine", 0.0)
    metrics["fuzz.engine.share"] = (
        tracer.self_s.get("fuzz.engine", 0.0) / loop if loop else 0.0, "ratio")
    records = tracer.counts.get("instrument.decode.records", 0)
    metrics["fuzz.feedback.fresh_ratio"] = (
        tracer.counts.get("fuzz.feedback.fresh", 0) / records
        if records else 0.0, "ratio")
    metrics["link.transactions"] = (float(spanned.link_transactions), "count")
    metrics["link.bytes"] = (float(spanned.link_bytes), "bytes")
    metrics["link.txns_per_program"] = (
        spanned.link_transactions / max(spanned.attempted, 1), "ratio")
    restores = spanned.snapshot_restores
    metrics["fuzz.snapshot.restores"] = (float(restores), "count")
    metrics["fuzz.snapshot.pages_per_restore"] = (
        spanned.snapshot_pages / restores if restores else 0.0, "ratio")
    attempts = restores + spanned.snapshot_fallbacks
    metrics["fuzz.snapshot.fallback_ratio"] = (
        spanned.snapshot_fallbacks / attempts if attempts else 0.0, "ratio")
    metrics["farm.seeds_shared"] = (float(spanned.seeds_shared), "count")
    metrics["farm.seeds_imported"] = (float(spanned.seeds_imported), "count")
    metrics["db.journal_bytes"] = (float(spanned.journal_bytes), "bytes")
    for os_name in wl.OSES:
        wall = plain.os_wall.get(os_name, 0.0)
        metrics[f"target.{os_name}.programs_per_s"] = (
            plain.os_programs.get(os_name, 0) / wall if wall else 0.0, "1/s")
    metrics["trace.overhead_ratio"] = (spanned.fuzz_s / plain.fuzz_s, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} (expected one "
              f"of {', '.join(wl.WORKLOADS)})", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        if args.trace:
            digests, attempted, failures, metrics = traced(
                args, wl, workload, scratch)
        else:
            digests, attempted, failures, metrics = untraced(
                args, wl, workload, scratch, import_s)
    except Exception:  # the run itself failed: report, exit nonzero
        traceback.print_exc()
        digests, attempted, failures, metrics = {}, 0, ["uncaught error"], {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        wl.stop_resource_tracker()
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for sessions, digest in sorted(digests.items()):
        print(f"digest {args.workload} seed={args.seed} sessions={sessions} "
              f"{digest}")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(int(attempted), 1),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
