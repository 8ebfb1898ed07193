"""analyst-session: the paper's presentation pipeline, in process.

One unit is one analyst session over the ~8.4k-scope scaled profile
saved as ``.rpdb``: open it and render the Calling Context View, then
the clicks (hot path, Callers and Flat views, a derived metric, sort by
it, re-render), then the five-shape query battery.  The core, viewer
and query layers do the work; no trace, corpus or server code runs.

Populations: ``open`` (load + first CCV render), ``primary`` (all
post-open clicks of one session), ``secondary`` (the query battery as
one operation).
"""

from __future__ import annotations

import random
from pathlib import Path

from harness import Timer, fingerprint, query_answer

NAME = "analyst-session"
POPULATIONS = {"open": 0.5, "primary": 0.75, "secondary": 0.5}
ROLES = {"primary": "session", "secondary": "queries"}
#: the reference the negative control corrupts
CONTROL_KEY = "clicks"
IN_PROCESS = True

FANOUT, DEPTH, NRANKS = 7, 4, 4
UNIT_SECONDS = 0.37        # one session's wall time on the reference host
MIN_SESSIONS = 40          # p75 needs 40 samples for ten beyond it
HOT_THRESHOLD = 0.12       # the heaviest of seven near-equal children

#: the five-shape battery of BENCH_query.json, in its wire-spec form
QUERIES = [
    {"pattern": "** / *"},
    {"ops": [{"op": "match", "pattern": "** / *"},
             {"op": "filter", "where": ["cycles.exclusive >= 0.01%"]}],
     "sort": {"metric": "cycles", "flavor": "exclusive"}, "limit": 10},
    {"ops": [{"op": "prune", "pattern": "p3_*"},
             {"op": "match", "pattern": "** / *"},
             {"op": "groupby", "key": "name"}],
     "sort": {"metric": "cycles"}},
    {"ops": [{"op": "match", "pattern": "** / p*"}, {"op": "squash"}]},
    {"ops": [{"op": "match", "pattern": "** / *"},
             {"op": "filter", "where": ["cycles.inclusive >= 50%"]}]},
]


def _choices(seed: int) -> dict:
    """What the seed varies: the derived metric's constant.  It changes
    values, not work, so every seed runs the same session."""
    return {"scale": random.Random(seed).randint(2, 9),
            "flavor": "inclusive"}


# --------------------------------------------------------------------- #
# the session, shared by the reference replay and the measured loop
# --------------------------------------------------------------------- #
def _open(experiment):
    from repro.core.views import ViewKind
    from repro.viewer.session import ViewerSession
    from repro.viewer.table import render_view

    session = ViewerSession(experiment)
    session.hot_path_threshold = HOT_THRESHOLD
    text = render_view(session.view(ViewKind.CALLING_CONTEXT), depth=4)
    return session, text


def _clicks(session, choices: dict) -> dict:
    from repro.core.metrics import MetricFlavor
    from repro.core.views import ViewKind
    from repro.viewer.table import render_view

    hot = session.expand_hot_path()
    callers = render_view(session.view(ViewKind.CALLERS), depth=2)
    flat = render_view(session.view(ViewKind.FLAT), depth=3)
    session.add_derived_metric("scaled", f"{choices['scale']} * $0")
    session.show(ViewKind.CALLING_CONTEXT)
    session.sort_by("scaled", MetricFlavor(choices["flavor"]))
    sorted_text = session.render(expand_depth=4)
    return {"hot_path": [[n.name for n in hot.path], list(hot.values)],
            "callers": callers, "flat": flat, "sorted": sorted_text}


def _battery(experiment, specs) -> list:
    from repro.query import Query, run_query

    return [query_answer(run_query(Query.from_spec(s), experiment))
            for s in specs]


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def setup(workdir: Path, seed: int):
    """Build the scaled profile and save it (the timed part)."""
    from repro.hpcprof import database
    from repro.hpcprof.experiment import Experiment
    from repro.sim.scale import scale_program

    experiment = Experiment.from_program(
        scale_program(fanout=FANOUT, depth=DEPTH), nranks=NRANKS)
    path = workdir / "scaled.rpdb"
    database.save(experiment, str(path))
    return {"path": str(path), "choices": _choices(seed)}, experiment


def references(spec: dict, experiment) -> dict:
    """The same session replayed on the in-memory experiment."""
    session, text = _open(experiment)
    return {"refs": {
        "open": fingerprint(text),
        "clicks": fingerprint(_clicks(session, spec["choices"])),
        "queries": fingerprint(_battery(experiment, QUERIES))}}


def units(seed: int, seconds: int) -> list:
    """One unit per session; the seed orders each session's battery."""
    rng = random.Random(seed ^ 0x5E55)
    n = max(MIN_SESSIONS, round(seconds / UNIT_SECONDS))
    out = []
    for _ in range(n):
        order = list(range(len(QUERIES)))
        rng.shuffle(order)
        out.append([["open"], ["clicks"], ["queries", order]])
    return out


# --------------------------------------------------------------------- #
# child side
# --------------------------------------------------------------------- #
class State:
    def __init__(self, spec: dict) -> None:
        from repro.hpcprof import database

        self.load = database.load
        self.path = spec["path"]
        self.choices = spec["choices"]
        self.experiment = None
        self.session = None


def _form(experiment) -> str:
    """The storage form the experiment was opened from, as observed."""
    return "rpstore" if hasattr(experiment, "store") else "rpdb"


def op_open(state: State, op: list, rec, oracle):
    with Timer() as t:
        state.experiment = state.load(state.path)
        state.session, text = _open(state.experiment)
    built = state.session.loaded_views
    rec.sample("open", f"open/{_form(state.experiment)}/built-{built}", t)
    return oracle.check("open", text)


def op_clicks(state: State, op: list, rec, oracle):
    before = state.session.loaded_views
    with Timer() as t:
        answer = _clicks(state.session, state.choices)
    built = state.session.loaded_views - before
    rec.sample("primary", f"session-clicks/{_form(state.experiment)}/"
               f"built-{built}", t)
    return oracle.check("clicks", answer)


def op_queries(state: State, op: list, rec, oracle):
    order = op[1]
    # the query engine caches its frame on the tree: cold on a fresh open
    warm = getattr(state.experiment.cct, "_query_frame", None) is not None
    with Timer() as t:
        answers = _battery(state.experiment, [QUERIES[i] for i in order])
    rec.sample("secondary", f"query-battery/{_form(state.experiment)}/"
               f"{'warm' if warm else 'cold'}", t)
    restored = [None] * len(order)
    for slot, answer in zip(order, answers):
        restored[slot] = answer
    state.experiment = state.session = None
    return oracle.check("queries", restored)


OPS = {"open": op_open, "clicks": op_clicks, "queries": op_queries}


def finish(state: State) -> dict:
    return {}
