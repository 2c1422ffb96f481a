"""Wall-clock benchmark of the DejaView reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload desktop_record --seed 1 --seconds 15
    python3 perfbench/run.py --workload recall --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run measures one workload in this fresh process.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer profile (see
``perfbench/README.md``).  The last line of standard output is the
result as JSON; a summary line with sample counts goes before it, and the
full report (plus, when traced, every span) is written under
``perfbench/out/``.  ``--workload all`` runs each workload in its own
process and prints every end-to-end metric as a table.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("desktop_record", "fleet_serve", "recall")

#: End-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "recorded_s_per_wall_s": "s/s",
    "checkpoint_ms_p50": "ms",
    "checkpoint_ms_p90": "ms",
    "stored_bytes_per_recorded_s": "B/s",
    "seek_ms_p50": "ms",
    "seek_ms_p95": "ms",
    "search_ms_p50": "ms",
    "search_ms_p95": "ms",
    "revive_ms_p50": "ms",
    "revive_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer counts: name -> (counter summed over the traced sessions,
#: unit).
COUNTS = {
    "display.commands": ("display.commands_logged", "count"),
    "display.log_bytes": ("display.log_bytes", "B"),
    "index.inserts": ("index.inserts", "count"),
    "checkpoint.count": ("checkpoint.count", "count"),
    "checkpoint.pages_committed": ("checkpoint.pages_saved", "pages"),
    "checkpoint.revive_fallbacks": ("revive.fallbacks", "count"),
    "replay.log_bytes": ("replay.log_bytes", "B"),
    "replay.events": ("replay.events", "count"),
}

#: Per-layer ratios of summed counters: name -> (numerator, denominator
#: terms, unit).
RATIOS = {
    "policy.take_ratio": ("checkpoint.count", ("tick.count",), "ratio"),
    "checkpoint.dedup_ratio": (
        "storage.pages_deduped", ("checkpoint.pages_saved",), "ratio"),
    "checkpoint.flush_pages_per_batch": (
        "flush_pages", ("flush_batches",), "pages/batch"),
    "display.keyframe_hit_ratio": (
        "playback.cache_hits",
        ("playback.cache_hits", "playback.cache_misses"), "ratio"),
    "display.commands_applied_per_seek": (
        "playback.commands_applied", ("playback.seeks",), "cmds/seek"),
    "index.interval_cache_hit_ratio": (
        "index.interval_cache_hits",
        ("index.interval_cache_hits", "index.interval_cache_misses"),
        "ratio"),
    "index.postings_scanned_per_query": (
        "index.postings_scanned", ("index.queries",), "postings/query"),
    "checkpoint.pages_restored_per_revive": (
        "revive.pages_restored", ("revive.count",), "pages/revive"),
}

#: The remaining per-layer figures and their units.
OTHER_LAYER_UNITS = {
    "runtime.gc.collections": "count",
    "runtime.gc.ms": "ms",
    "checkpoint.cross_dedup_ratio": "ratio",
    "checkpoint.backlog_bytes_p95": "B",
    "checkpoint.thin_dangling": "count",
    "replay.useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def percentile(values, q):
    """The q-th percentile (linear interpolation between ranks)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results, timer):
    """End-to-end values, plus the sample count behind each percentile
    and the figures the contract cannot carry for every workload."""
    samples = dict(results.samples)
    samples["checkpoint_ms"] = [s * 1e3 for s in timer.samples]
    values = {
        "setup_s": statistics.median(results.setup_s),
        "recorded_s_per_wall_s":
            results.recorded_s / results.record_wall_s,
        "stored_bytes_per_recorded_s":
            results.stored_bytes / results.stored_recorded_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(results.setup_s)}
    for name in END_TO_END:
        if name not in values:
            key, _, pct = name.rpartition("_p")
            values[name] = percentile(samples.get(key, []), int(pct))
            counts[name] = len(samples.get(key, []))
    replays = samples.get("replay_revive_ms", [])
    extra = {
        "failed_ratio": results.failed / max(1, results.attempted),
        "replay_revive_ms_p50": percentile(replays, 50),
        "replay_revive_samples": len(replays),
    }
    return values, counts, extra


def per_layer(tracer, workload, results, baseline_s, traced_s):
    from spans import GC_SPAN, LAYER_SPANS

    stats, roots_wall, accounted = tracer.summary()
    values = {}
    for span in LAYER_SPANS:
        entry = stats.get(span, {"calls": 0, "self_s": 0.0})
        values[span + ".calls"] = entry["calls"]
        values[span + ".self_ms"] = entry["self_s"] * 1e3
    gc_entry = stats.get(GC_SPAN, {"calls": 0, "total_s": 0.0})
    values["runtime.gc.collections"] = gc_entry["calls"]
    values["runtime.gc.ms"] = gc_entry["total_s"] * 1e3

    counters = {}
    for dejaview in workload.dejaviews():
        for name, value in dejaview.telemetry.metrics.counter_values().items():
            counters[name] = counters.get(name, 0) + value
    fleet = getattr(workload, "fleet", None)
    fleet_counters = (fleet.telemetry.metrics.counter_values()
                      if fleet is not None else {})
    # Group-commit batches: solo sessions flush in store, a fleet between
    # steps.
    counters["flush_pages"] = (
        counters.get("storage.writeback_flush_pages", 0)
        + fleet_counters.get("fleet.flush_pages", 0))
    counters["flush_batches"] = (
        counters.get("storage.writeback_flushes", 0)
        + fleet_counters.get("fleet.flush_batches", 0))
    for name, (counter, _unit) in COUNTS.items():
        values[name] = counters.get(counter, 0)
    for name, (numerator, denominator, _unit) in RATIOS.items():
        base = sum(counters.get(term, 0) for term in denominator)
        values[name] = counters.get(numerator, 0) / base if base else 0.0
    values["checkpoint.cross_dedup_ratio"] = results.details.get(
        "fleet_dedup_ratio", 0.0)
    values["checkpoint.backlog_bytes_p95"] = (
        fleet.telemetry.metrics.histogram("fleet.writeback_backlog")
        .summary()["p95"] or 0) if fleet is not None else 0
    values["checkpoint.thin_dangling"] = len(
        results.details.get("thin_dangling", ()))
    # Wasted work of replay-revive: units between the seed anchor and the
    # target, over units re-executed (the traced round's revives are the
    # last ones run).
    executed = tracer.children_of("checkpoint.revive_thinned",
                                  "workloads.unit")
    distances = results.samples.get("replay_distance_units", [])
    distances = distances[len(distances) - len(executed):] if executed else []
    values["replay.useful_ratio"] = (sum(distances) / sum(executed)
                                     if sum(executed) else 0.0)
    values["trace.overhead_ratio"] = traced_s / baseline_s

    # Figures the program derives deterministically (calls, virtual time
    # charged, counted bytes) must repeat exactly for one seed.
    stable = {name: (entry["calls"], entry["virtual_us"])
              for name, entry in stats.items() if name != GC_SPAN}
    stable.update({name: values[name] for name in COUNTS})
    digest = "%08x" % zlib.crc32(json.dumps(stable, sort_keys=True).encode())
    checks = {"span_accounting": accounted, "root_wall_s": roots_wall,
              "determinism_digest": digest}
    return values, checks


def per_layer_units():
    from spans import LAYER_SPANS

    units = {}
    for span in LAYER_SPANS:
        units[span + ".calls"] = "count"
        units[span + ".self_ms"] = "ms"
    units.update({name: unit for name, (_c, unit) in COUNTS.items()})
    units.update({name: unit for name, (_n, _d, unit) in RATIOS.items()})
    units.update(OTHER_LAYER_UNITS)
    return units


def run(args):
    from spans import Tracer
    from workloads import MIN_ROUNDS, RECALL_SETUPS, Results, TickTimer, make

    results = Results()
    timer = TickTimer()
    timer.install()
    workload = make(args.workload, args.seed, results, timer)
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace}
    if not args.trace:
        for _ in range(RECALL_SETUPS if workload.name == "recall" else 0):
            workload.setup()
        measured = 0.0
        while (measured < args.seconds
               or len(results.round_wall_s) < MIN_ROUNDS):
            wall = workload.round(len(results.round_wall_s))
            results.round_wall_s.append(wall)
            measured += wall
        workload.finish()
        values, counts, extra = end_to_end(results, timer)
        units = END_TO_END
        summary.update(samples=counts, extra=extra)
        ok = all(counts.values())
    else:
        workload.setup()
        start = time.perf_counter()
        # Untraced rounds, then the same round traced (round 0 each time,
        # so the two do identical work).
        while (not results.round_wall_s
               or time.perf_counter() - start < args.seconds / 2):
            results.round_wall_s.append(workload.round(0))
        baseline = statistics.median(results.round_wall_s)
        tracer = Tracer()
        tracer.install()
        try:
            workload.setup()
            traced = workload.round(0)
        finally:
            tracer.uninstall()
        values, checks = per_layer(tracer, workload, results, baseline,
                                   traced)
        units = per_layer_units()
        summary.update(checks=checks)
        ok = checks["span_accounting"]
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, "spans-%s-%d.jsonl"
                                 % (args.workload, args.seed)))
    timer.uninstall()
    summary.update(rounds=len(results.round_wall_s),
                   details=results.details, failures=results.failures)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "report-%s-%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(summary, metrics=values), fh, indent=1)
    print(json.dumps(summary))
    return {
        "correct": bool(ok and results.failed == 0),
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def run_all(args):
    """Every workload, each in a fresh process; prints one table."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print("%s: run failed (exit %d)" % (name, proc.returncode))
            status = 1
            continue
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        rows.append((name, "correct", result["correct"], "",
                     "%d/%d failed" % (result["failed"],
                                       result["attempted"])))
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, "%.6g" % entry["value"],
                         entry["unit"], summary["samples"].get(metric, "")))
        for metric, value in summary["extra"].items():
            rows.append((name, metric, "%.6g" % value, "", ""))
    print("%-15s %-28s %14s %6s %s" % ("workload", "metric", "value",
                                       "unit", "samples"))
    for row in rows:
        print("%-15s %-28s %14s %6s %s" % row)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: %s/repro not found; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
