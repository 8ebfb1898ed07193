"""trace-windows: windowed queries over a time-partitioned trace store.

The store is the one BENCH_trace.json measures: eight rank-imbalanced
ranks of the scale-6x3 program in trace mode, ~100k events in 64
chunks.  One unit is a cycle of ten composed window queries (match-all
+ sort + limit) in the fixed order 1%, 5%, 1%, 25%, 1%, 5%, 100%, 1%,
5%, 25% of the span (4:3:2:1), then one flame slab, and at fixed cycles
an idleness series and a store reopen.  ``trace.store``,
``trace.model`` and the correlate/merge/attribution pipeline they feed
do the work.

Populations: ``open`` (reopen the store + the 100% window answer),
``primary`` (1% windows), ``secondary`` (the 100% window).  The 5% and
25% windows, flames and series are checked and count in ``ops_per_s``
but are not timed one by one.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

from harness import Timer, fingerprint, query_answer

NAME = "trace-windows"
POPULATIONS = {"open": 0.5, "primary": 0.75, "secondary": 0.5}
ROLES = {"primary": "window_narrow", "secondary": "window_full"}
CONTROL_KEY = "win-0.01-0"
IN_PROCESS = True

N_CHUNKS = 64
WIDTHS = (0.01, 0.05, 0.25)
POSITIONS = 3                    # fixed window positions per width
CYCLE = (0.01, 0.05, 0.01, 0.25, 0.01, 0.05, 1.0, 0.01, 0.05, 0.25)
FLAMES = 2
SERIES_EVERY, REOPEN_EVERY = 4, 2
UNIT_SECONDS = 0.42              # one cycle's wall time on the reference host
MIN_CYCLES = 12                  # the reopen median needs a few samples
POPULATION_OF = {0.01: "primary", 1.0: "secondary"}


def _window_key(width: float, k: int) -> str:
    return f"win-{width}-{0 if width >= 1.0 else k}"


def _windows(t_begin: float, t_end: float) -> dict:
    """Window bounds: each width at the same fixed positions, so every
    seed runs the same windows (the seed only orders them)."""
    span = t_end - t_begin
    out = {_window_key(1.0, 0): (t_begin, t_end)}
    for width in WIDTHS:
        for k in range(POSITIONS):
            lo = t_begin + (k + 0.5) / POSITIONS * (1.0 - width) * span
            out[_window_key(width, k)] = (lo, lo + width * span)
    flames = [(rank, t_begin + frac * span, t_begin + (frac + 0.1) * span)
              for rank, frac in ((1, 0.2), (6, 0.6))]
    return {"windows": out, "flames": flames}


def _query(bounds, metric: str):
    from repro.query import query

    return query("**/*").window(*bounds).sort(metric).limit(50)


def _window(source, bounds, metric: str) -> dict:
    from repro.query import run_query

    return query_answer(run_query(_query(bounds, metric), source))


def _flame(source, flame) -> dict:
    from repro.trace import flame_slab

    rank, lo, hi = flame
    return flame_slab(source, rank=rank, t0=lo, t1=hi)


def _series(source, t_begin: float, t_end: float) -> dict:
    from repro.trace import idleness_series

    return idleness_series(source, t0=t_begin, t1=t_end, bins=16)


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def setup(workdir: Path, seed: int):
    """Simulate the trace and write its store (the timed part)."""
    from repro.sim.scale import scale_program
    from repro.sim.spmd import trace_spmd
    from repro.trace import create_trace_store

    traces = trace_spmd(scale_program(fanout=6, depth=3), nranks=8, seed=7,
                        trace_slices=48, name="bench-trace")
    t_begin, t_end = traces.t_begin, traces.t_end
    path = workdir / "bench-trace.rpstore"
    create_trace_store(traces, str(path),
                       chunk_duration=(t_end - t_begin) / N_CHUNKS).close()
    return {"path": str(path), "metric": traces.metrics.by_id(0).name,
            "t_begin": t_begin, "t_end": t_end}, traces


def references(spec: dict, traces) -> dict:
    """The same answers from the in-memory trace set."""
    metric = spec["metric"]
    plan = _windows(spec["t_begin"], spec["t_end"])
    refs = {key: fingerprint(_window(traces, bounds, metric))
            for key, bounds in plan["windows"].items()}
    for i, flame in enumerate(plan["flames"]):
        refs[f"flame-{i}"] = fingerprint(_flame(traces, flame))
    refs["series"] = fingerprint(_series(traces, spec["t_begin"],
                                         spec["t_end"]))
    return {"refs": refs}


def units(seed: int, seconds: int) -> list:
    """Fixed cycles; each width visits its positions equally often in a
    seeded order, and rare ops sit at fixed cycles."""
    rng = random.Random(seed)
    n = max(MIN_CYCLES, round(seconds / UNIT_SECONDS))
    positions = {}
    for width in set(CYCLE):
        slots = [k % POSITIONS for k in range(n * CYCLE.count(width))]
        rng.shuffle(slots)
        positions[width] = slots
    out = []
    for c in range(n):
        unit = [["window", width, positions[width].pop()]
                for width in CYCLE]
        unit.append(["flame", c % FLAMES])
        if c % SERIES_EVERY == SERIES_EVERY - 1:
            unit.append(["series"])
        if c % REOPEN_EVERY == REOPEN_EVERY - 1:
            unit.append(["reopen"])
        out.append(unit)
    return out


# --------------------------------------------------------------------- #
# child side
# --------------------------------------------------------------------- #
class State:
    def __init__(self, spec: dict) -> None:
        from repro.trace.store import TRACE_MANIFEST, open_trace

        self.open_trace = open_trace
        self.path = spec["path"]
        self.metric = spec["metric"]
        self.t_begin, self.t_end = spec["t_begin"], spec["t_end"]
        self.plan = _windows(self.t_begin, self.t_end)
        with open(os.path.join(self.path, TRACE_MANIFEST), "rb") as fh:
            manifest = json.loads(fh.read())
        self.chunk_bounds = [(c["t_lo"], c["t_hi"])
                             for c in manifest["chunks"]]
        self.verifications = 0
        self.store = self.open(self.path)
        _window(self.store, self.plan["windows"][_window_key(1.0, 0)],
                self.metric)
        self.verify_all()
        self.windows = 0
        self.touched = 0
        self.overlapping = 0
        self.slab_answered = 0

    def open(self, path: str):
        """Open the store, counting the chunk files it verifies (each
        first read of a chunk file checks its CRC: a cold read)."""
        store = self.open_trace(path)
        verify = store._verified_mmap

        def counting(*args):
            self.verifications += 1
            return verify(*args)

        store._verified_mmap = counting
        return store

    def verify_all(self) -> None:
        """The first read of a chunk file verifies its CRC.  The full
        window reads the slabs of all chunks but one; reading one rank's
        events over the whole span reads every events file, so every
        timed window after this finds its chunks verified."""
        self.store.events_window(0, self.t_begin, self.t_end)

    def slabs(self, bounds) -> tuple[int, int]:
        """Chunks overlapping the window, and those fully inside it
        (answered from their slab), from the manifest bounds."""
        lo, hi = bounds
        overlapping = answered = 0
        for c_lo, c_hi in self.chunk_bounds:
            if c_hi < lo or c_lo >= hi:
                continue
            overlapping += 1
            answered += lo <= c_lo and c_hi < hi
        return overlapping, answered


def _tag(op: str, state: State, before: int, slabs: int) -> str:
    """``op/path/chunks``: whether any chunk came from its slab, and
    whether the op had to verify chunk files (cold) or found them
    verified."""
    cold = state.verifications > before
    return (f"{op}/{'slab' if slabs else 'events'}/"
            f"{'cold' if cold else 'verified'}")


def op_window(state: State, op: list, rec, oracle):
    width, k = op[1], op[2]
    key = _window_key(width, k)
    bounds = state.plan["windows"][key]
    store = state.store
    store.reset_counters()
    before = state.verifications
    with Timer() as t:
        answer = _window(store, bounds, state.metric)
    overlapping, slabs = state.slabs(bounds)
    state.windows += 1
    state.touched += store.chunks_touched
    state.overlapping += overlapping
    state.slab_answered += slabs
    population = POPULATION_OF.get(width)
    if population is not None:
        rec.sample(population, _tag(f"window-{width:g}", state, before,
                                    slabs), t)
    return oracle.check(key, answer)


def op_flame(state: State, op: list, rec, oracle):
    i = op[1]
    answer = _flame(state.store, state.plan["flames"][i])
    return oracle.check(f"flame-{i}", answer)


def op_series(state: State, op: list, rec, oracle):
    answer = _series(state.store, state.t_begin, state.t_end)
    return oracle.check("series", answer)


def op_reopen(state: State, op: list, rec, oracle):
    """Reopen and answer the full window (timed), then verify the
    remaining chunk files so the windows after a reopen find every
    chunk verified too."""
    key = _window_key(1.0, 0)
    bounds = state.plan["windows"][key]
    state.store.close()
    state.store = None
    before = state.verifications
    with Timer() as t:
        store = state.open(state.path)
        answer = _window(store, bounds, state.metric)
    state.store = store
    rec.sample("open", _tag("open+window-1", state, before,
                            state.slabs(bounds)[1]), t)
    state.verify_all()
    return oracle.check(key, answer)


OPS = {"window": op_window, "flame": op_flame, "series": op_series,
       "reopen": op_reopen}


def finish(state: State) -> dict:
    if state.store is not None:
        state.store.close()
    total = state.windows * len(state.chunk_bounds)
    return {
        "trace.chunks_touched_ratio": state.touched / total if total else 0.0,
        "trace.slab_chunk_share": (state.slab_answered / state.overlapping
                                   if state.overlapping else 0.0),
    }
