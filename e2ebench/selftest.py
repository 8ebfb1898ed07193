#!/usr/bin/env python3
"""Self-tests of the benchmark itself: negative control and steadiness.

Usage, from the root of a checkout::

    python3 e2ebench/selftest.py control [WORKLOAD ...]
    python3 e2ebench/selftest.py steady [--runs 10] [--first-seed 1]
        [WORKLOAD ...]

``control`` runs each workload once with one reference answer
corrupted and fails unless the oracle catches it (a failed op and
``correct: false``), then once clean and fails unless that run is
correct with zero failed ops.  ``steady`` runs each workload ``--runs``
times, one seed each, and prints every end-to-end metric's median and
interquartile spread (as a share of the median) against the bound in
``BENCHMARK.json`` (next to the spread the same runs would have
without host-speed scaling, and the share of each timing that was CPU
work); it fails when any spread exceeds its bound.  Runs are
sequential: one benchmark at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0,
             extra: tuple[str, ...] = (), detail: list | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=str(ROOT), timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    if detail is not None:
        detail.extend(json.loads(ln)["detail"] for ln in lines
                      if ln.startswith('{"provenance"'))
    return json.loads(lines[-1])


def control(workloads: list[str], seconds: int) -> int:
    bad = 0
    for workload in workloads:
        corrupted = run_once(workload, 1, seconds,
                             extra=("--negative-control",))
        clean = run_once(workload, 1, seconds)
        caught = corrupted["failed"] >= 1 and not corrupted["correct"]
        ok = clean["correct"] and clean["failed"] == 0
        print(f"{workload:16s} corrupted reference caught: {caught} "
              f"({corrupted['failed']} failed ops); clean run correct: "
              f"{ok}")
        bad += (not caught) + (not ok)
    return 1 if bad else 0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(workloads: list[str], runs: int, first_seed: int,
           seconds: int) -> int:
    bounds = {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}
    failed = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        details: list[dict] = []
        for seed in range(first_seed, first_seed + runs):
            result = run_once(workload, seed, seconds, detail=details)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect run {result}")
                failed += 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {runs} runs, seeds {first_seed}.."
              f"{first_seed + runs - 1}")
        for name, vals in values.items():
            s = spread(vals)
            bound = bounds[name]
            over = s > bound
            failed += over
            unscaled = spread([d["unscaled"][name] for d in details])
            print(f"  {name:18s} median {statistics.median(vals):12.4f}  "
                  f"spread {s * 100:6.2f}%  bound {bound * 100:5.1f}%  "
                  f"{'OVER' if over else 'ok' if s < bound / 3 else 'near'}"
                  f"  unscaled {unscaled * 100:6.2f}%"
                  f"  [{' '.join(f'{v:.4g}' for v in vals)}]")
        # how much of each timing is CPU work, the part that is scaled
        shares: dict[str, list[float]] = {}
        for d in details:
            for pop, share in d["cpu_share"].items():
                shares.setdefault(pop, []).append(share)
        print("  cpu share (median): " + "  ".join(
            f"{pop} {statistics.median(v):.2f}" for pop, v in shares.items()))
        sys.stdout.flush()
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("control", "steady"))
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: 1 for control (the smallest op "
                             "list), run_seconds of BENCHMARK.json for "
                             "steady")
    args = parser.parse_intermixed_args(argv)
    workloads = args.workloads or list(harness.WORKLOADS)
    if args.mode == "control":
        return control(workloads, args.seconds or 1)
    return steady(workloads, args.runs, args.first_seed,
                  args.seconds or _benchmark()["run_seconds"])


if __name__ == "__main__":
    raise SystemExit(main())
