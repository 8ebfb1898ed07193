#!/usr/bin/env python3
"""End-to-end benchmark of the call-path profile toolkit.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload analyst-session --seed 1 \\
        --seconds 10 --trace 0

Each workload runs a fixed op list made from ``--seed`` and sized by
``--seconds`` (the same arguments always give the same work), checks
every answer against a reference computed at set-up from the in-memory
path, and prints one JSON object as its last line.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the op list once
plain and once with the layer tracer and reports the per-layer split.
See ``e2ebench/README.md`` for the workloads and what each metric is
taken over.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: a run must finish within 180 s; the child gets what set-up leaves
CHILD_TIMEOUT_S = 150

#: end-to-end metrics: name -> unit (every workload reports all of them)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "open_p50_ms": "ms",
    "primary_p50_ms": "ms",
    "primary_p75_ms": "ms",
    "secondary_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: per-layer ratios and counts besides calls/self/incl (name -> unit)
RATIOS = {
    "trace.chunks_touched_ratio": "ratio",
    "trace.slab_chunk_share": "ratio",
    "server.cache.hit_ratio": "ratio",
    "query.rows_returned_ratio": "ratio",
    "corpus.fsyncs_per_ingest": "count",
    "tracing_overhead_ratio": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt one reference answer; the run must "
                             "then report a failed op and correct=false")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def set_up(module, workdir: Path, seed: int, repeats: int):
    """Run set-up *repeats* times, keep the last, then add its references.

    Only the program's part is timed: building the inputs and saving
    them.  The references (the in-memory answers and their fingerprints)
    are the benchmark's own work and are computed once, after the timed
    repeats.  Returns the spec, the wall times, and the times scaled to
    reference host speed by the calibration probes taken around each
    set-up.
    """
    times, scaled, previous = [], [], None
    spec = memo = None
    probe = harness.calibrate()
    for i in range(repeats):
        target = workdir / f"setup-{i}"
        target.mkdir(parents=True)
        memo = None  # free the last set-up's inputs before the next
        with harness.Timer() as t:
            spec, memo = module.setup(target, seed)
        after = harness.calibrate()
        times.append(t.s)
        factor = harness.REFERENCE_PROBE_S / ((probe + after) / 2)
        scaled.append(harness.at_speed(t.s, t.cpu, factor))
        probe = after
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = target
    spec.update(module.references(spec, memo))
    return spec, times, scaled


def execute(module, spec: dict, units: list, workdir: Path, traced: bool,
            corrupt: str | None) -> dict:
    if not module.IN_PROCESS:
        return module.execute(spec, units, traced, corrupt, CHILD_TIMEOUT_S)
    payload = dict(spec, workload=module.NAME, units=units, traced=traced,
                   corrupt=corrupt)
    path = workdir / f"spec-{'traced' if traced else 'plain'}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return harness.run_child(
        [str(harness.BENCH_DIR / "worker.py"), str(path)], CHILD_TIMEOUT_S)


def _ms(values: list[float], q: float) -> float:
    return harness.percentile(values, q) * 1e3 if values else 0.0


def measured(module, args, workdir: Path, corrupt: str | None) -> dict:
    spec, setup_times, setup_scaled = set_up(module, workdir, args.seed,
                                             harness.SETUP_REPEATS)
    units = module.units(args.seed, args.seconds)
    out = execute(module, spec, units, workdir, False, corrupt)
    rec = harness.Recorder.from_json(out["recorder"])

    def values(scaled: bool) -> dict:
        def pick(population):
            return rec.timings(population, scaled)

        return {
            "setup_s": statistics.median(setup_scaled if scaled
                                         else setup_times),
            "ops_per_s": rec.attempted / out["scaled_loop_s" if scaled
                                             else "loop_s"],
            "open_p50_ms": _ms(pick("open"), 0.5),
            "primary_p50_ms": _ms(pick("primary"), 0.5),
            "primary_p75_ms": _ms(pick("primary"), 0.75),
            "secondary_p50_ms": _ms(pick("secondary"), 0.5),
            "peak_rss_mib": out["peak_rss_mib"],
        }

    reported = values(True)
    primary, secondary = module.ROLES["primary"], module.ROLES["secondary"]
    return {
        "recs": [rec],
        "metrics": {name: {"value": reported[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
        "detail": {
            "unscaled": values(False),
            "probe_median_s": statistics.median(rec.probes),
            "cpu_share": {
                **{pop: rec.cpu_share(pop) for pop in module.POPULATIONS},
                "loop": out["loop_cpu_s"] / out["loop_s"]},
            "setup_times_s": setup_times, "loop_s": out["loop_s"],
            "samples": {pop: len(v) for pop, v in rec.samples.items()},
            "by_role": {
                f"{primary}_p50_ms": reported["primary_p50_ms"],
                f"{primary}_p75_ms": reported["primary_p75_ms"],
                f"{secondary}_p50_ms": reported["secondary_p50_ms"],
            },
        },
    }


def traced(module, args, workdir: Path, corrupt: str | None) -> dict:
    units = module.units(args.seed, args.seconds)
    runs = []
    for mode in ("plain", "traced"):
        spec, _, _ = set_up(module, workdir / mode, args.seed, 1)
        runs.append(execute(module, spec, units, workdir / mode,
                            mode == "traced", corrupt))
    plain, traced_out = runs
    metrics = {}
    for layer, entry in traced_out["layers"]["layers"].items():
        metrics[f"{layer}.calls"] = {"value": entry["calls"],
                                     "unit": "count"}
        metrics[f"{layer}.self_ms"] = {"value": entry["self_ms"],
                                       "unit": "ms"}
        metrics[f"{layer}.incl_ms"] = {"value": entry["incl_ms"],
                                       "unit": "ms"}
    ratios = dict.fromkeys(RATIOS, 0.0)
    ratios.update(traced_out["extras"])
    counters = traced_out["layers"]["counters"]
    scanned = counters.get("query.rows_scanned", 0)
    if scanned:
        ratios["query.rows_returned_ratio"] = (
            counters.get("query.rows_returned", 0) / scanned)
    ratios["tracing_overhead_ratio"] = (traced_out["scaled_loop_s"]
                                        / plain["scaled_loop_s"])
    for name, unit in RATIOS.items():
        metrics[name] = {"value": ratios[name], "unit": unit}
    return {
        "recs": [harness.Recorder.from_json(r["recorder"]) for r in runs],
        "metrics": metrics,
        "detail": {"plain_loop_s": plain["loop_s"],
                   "traced_loop_s": traced_out["loop_s"]},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not harness.sources_present():
        print(f"e2ebench: no program sources at {harness.SRC}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    harness.use_sources()
    module = importlib.import_module(harness.WORKLOADS[args.workload])
    corrupt = module.CONTROL_KEY if args.negative_control else None
    workdir = harness.ROOT / ".e2ebench-work" / f"{module.NAME}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced if args.trace else measured
        result = run(module, args, workdir, corrupt)
        print(json.dumps({"provenance": harness.provenance(workdir),
                          "workload": module.NAME, "seed": args.seed,
                          "roles": module.ROLES, "detail": result["detail"]}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run shares the parent
    recs = result["recs"]
    failed = sum(rec.failed for rec in recs)
    checks = [line for rec in recs
              for line in rec.errors + rec.problems(module.POPULATIONS)]
    for line in checks:
        print(f"check: {line}")
    print(json.dumps({
        "correct": not checks and failed == 0,
        "attempted": sum(rec.attempted for rec in recs),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
