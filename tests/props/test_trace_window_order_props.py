"""Windows answered from arrays equal the object-graph materialization.

A query window is answered from the trace's interned context table
(:meth:`~repro.trace.model.TraceSet.window_frame`) without building a
CCT.  The reference is :meth:`window_experiment`, which materializes
per-rank profiles, correlates and merges them.  The two must agree on
every cell, bit for bit, *and* on row order.

The fig1-based properties never reorder siblings, so this battery uses
a wider program (``scale_program(fanout=6, depth=3)``, 259 contexts)
over four ranks whose random event streams touch contexts in different
orders, plus the shapes that make order observable:

* a ``TIME_RESOLUTION`` (1e-9, not dyadic) metric, whose float sums
  change with the order costs are added in;
* twin contexts that differ only in the entry frame's ``call_line`` —
  distinct call-path trie branches that correlate to the same leaf;
* contexts whose sample sits on a call instruction, so a leaf scope is
  also the parent of other scopes.
"""

from __future__ import annotations

import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import MetricTable
from repro.hpcrun.profile_data import Frame
from repro.query import query, run_query
from repro.trace import TIME_RESOLUTION, TraceData, TraceSet, create_trace_store

NRANKS = 4
T_SPAN = 10.0


def _template():
    from repro.sim.scale import scale_program
    from repro.sim.spmd import trace_spmd

    return trace_spmd(scale_program(fanout=6, depth=3), nranks=1, seed=7,
                      name="order-template")


TEMPLATE = _template()
# the scopes down to the second call level keep the pool small enough
# that one rank's stream often sums several contexts into one leaf
_BASE = [(f, line) for f, line in TEMPLATE.contexts if len(f) <= 3]
_TWINS = [((Frame(f[0].proc, f[0].file, call_line),) + f[1:], line)
          for call_line in (7, 8) for f, line in _BASE]
_AT_CALLS = sorted({(f[:-1], f[-1].call_line) for f, _ in _BASE if len(f) > 1},
                   key=repr)
CONTEXTS = _BASE + _TWINS + _AT_CALLS

METRICS = MetricTable()
METRICS.add("cycles", unit="cycles")
METRICS.add("walltime", unit="seconds")
RESOLUTIONS = {1: TIME_RESOLUTION}


def _events(seed: int):
    """Per-rank ``(ctx, t, cycles, walltime)`` streams, drawn uniformly.

    Uniform draws (not Hypothesis's small-value bias) keep tick counts
    wide — at 1e-9 resolution their float sums depend on the order they
    are added in — and make one leaf collect several contexts often.  A
    zero pair records a context that has no cost.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(NRANKS):
        stream = []
        for _ in range(rng.randint(0, 120)):
            zero = rng.random() < 0.1
            stream.append((
                rng.randrange(len(CONTEXTS)),
                rng.uniform(0.0, T_SPAN),
                0 if zero else rng.randrange(2 ** 30, 2 ** 40),
                0 if zero else rng.randrange(10 ** 11, 10 ** 12),
            ))
        out.append(stream)
    return out


def _build(events) -> TraceSet:
    traces = []
    for rank, stream in enumerate(events):
        td = TraceData(METRICS, resolutions=RESOLUTIONS, rank=rank,
                       program="order", time_metric=1)
        for ci, t, cycles, wall in stream:
            frames, line = CONTEXTS[ci]
            td.record(frames, line, t, {0: cycles, 1: wall})
        traces.append(td)
    return TraceSet(traces, TEMPLATE.structure, name="order-trace")


QUERIES = [
    query("**/*"),
    query("**/*").sort("walltime").limit(25),
    query("** / p2_*").squash().sort("cycles", "exclusive"),
    query("**/*").where("walltime.exclusive > 0").prune("** / p1_2"),
    query("**/*").groupby("name").sort("walltime", "exclusive"),
    query("** / p1_*").match("** / {\"category\": \"statement\"}")
    .select(["walltime"], ["raw", "inclusive", "exclusive"]),
]


def _fingerprint(result):
    hexed = [tuple(v.hex() if isinstance(v, float) else v for v in row)
             for row in result.to_rows()]
    rows = None if result.rows is None else result.rows.tolist()
    parents = None if result.parents is None else result.parents.tolist()
    return hexed, list(result.labels), rows, parents, result.truncated


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       cuts=st.tuples(st.floats(0.0, T_SPAN), st.floats(0.0, T_SPAN)))
def test_window_frame_equals_window_experiment(seed, cuts):
    traces = _build(_events(seed))
    a, b = sorted(cuts)
    windows = [(None, None), (a, b), (None, a), (b, None)]
    with tempfile.TemporaryDirectory() as tmp:
        store = create_trace_store(traces, os.path.join(tmp, "t.rpstore"),
                                   chunk_duration=2.5)
        try:
            for target in (traces, store):
                for t0, t1 in windows:
                    reference = target.window_experiment(t0, t1)
                    for q in QUERIES:
                        want = _fingerprint(run_query(q, reference))
                        got = _fingerprint(run_query(q.window(t0, t1), target))
                        assert got == want, (type(target).__name__, t0, t1,
                                             q.to_spec())
        finally:
            store.close()
