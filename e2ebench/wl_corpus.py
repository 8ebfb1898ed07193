"""corpus-diff: a crash-safe profile corpus taking writes beside reads.

One tenant under a count-capped retention policy, seeded full at
set-up, so every ingest also evicts the oldest profile.  One unit is a
cycle of four ingests, each followed by a read-back (load + match-all
query), then one align + diff + regression detection of the cycle's
first and last profiles; on every other cycle the last profile carries
a planted 2x regression that the detector must flag.  Diagnosis,
explicit retention and reopens (journal replay) sit at fixed cycles.
``corpus.catalog``/``corpus.journal``, ``hpcprof.align`` and
``core.ensemble`` do the work.

Populations: ``open`` (reopen the corpus + list + first read-back),
``primary`` (one ingest), ``secondary`` (align + diff + detect).
Read-backs, diagnosis and retention are checked and count in
``ops_per_s`` but are not timed one by one.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from harness import Timer, fingerprint, query_answer

from repro.corpus.journal import JOURNAL_NAME

NAME = "corpus-diff"
POPULATIONS = {"open": 0.5, "primary": 0.75, "secondary": 0.5}
ROLES = {"primary": "ingest", "secondary": "diff"}
CONTROL_KEY = "diff-0-R"
IN_PROCESS = True

TENANT = "bench"
CAP = 12                       # retention: profiles kept per tenant
INGESTS_PER_CYCLE = 4
PLANT_EVERY = 2                # cycles whose diff target is regressed
DIAGNOSE_EVERY, RETENTION_EVERY, REOPEN_EVERY = 5, 3, 2
UNIT_SECONDS = 0.19            # one cycle's wall time on the reference host
MIN_CYCLES = 12                # 48 ingests: ten beyond the p75
SCALES = (1.0, 1.25, 1.5, 1.75)
PLANTED_FRAME = "p1_2"         # its whole subtree costs 2x when planted
MATCH_ALL = {"pattern": "** / *"}


# --------------------------------------------------------------------- #
# variants and their in-memory answers
# --------------------------------------------------------------------- #
def _variants():
    """Variant id -> in-memory experiment: uniform scalings and one
    planted regression (``R``)."""
    from repro.core.attribution import attribute
    from repro.core.cct import CCTKind
    from repro.hpcprof.experiment import Experiment
    from repro.sim.scale import scale_program

    def build(scale: float, planted: bool):
        exp = Experiment.from_program(scale_program(fanout=5, depth=3))
        stack = [(exp.cct.root, False)]
        while stack:
            node, hot = stack.pop()
            hot = hot or (planted and node.kind is CCTKind.FRAME
                          and node.name == PLANTED_FRAME)
            factor = scale * (2.0 if hot else 1.0)
            for mid in list(node.raw):
                node.raw[mid] *= factor
            stack.extend((child, hot) for child in node.children)
        attribute(exp.cct)
        exp.cct.invalidate_caches()
        return exp

    out = {str(i): build(s, False) for i, s in enumerate(SCALES)}
    out["R"] = build(1.0, True)
    return out


def _readback(experiment) -> dict:
    from repro.query import Query, run_query

    return query_answer(run_query(Query.from_spec(MATCH_ALL), experiment))


def _summary(experiment) -> list:
    """What the diagnosis must report for one profile of this variant."""
    total = experiment.total("cycles")
    result = experiment.hot_path("cycles")
    return [float(total), result.path[-1].name,
            float(result.hotspot_value / total)]


def _diff(members) -> dict:
    from repro.core.ensemble import align_experiments, detect_regressions

    ensemble = align_experiments(members)
    diff = ensemble.diff(0, 1)
    findings = detect_regressions(ensemble, target=1, baseline=[0])
    return {
        "root": sorted(diff.cct.root.inclusive.items()),
        "findings": [{k: v for k, v in f.to_payload().items()
                      if k != "target"} for f in findings],
    }


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def setup(workdir: Path, seed: int):
    """Build the variants and seed the corpus full (the timed part)."""
    from repro.corpus import RetentionPolicy, open_corpus
    from repro.hpcprof.binio import dumps_binary

    variants = _variants()
    blobs = {}
    for vid, exp in variants.items():
        blobs[vid] = workdir / f"variant-{vid}.rpdb"
        blobs[vid].write_bytes(dumps_binary(exp))
    root = workdir / "corpus"
    corpus = open_corpus(str(root), create=True)
    try:
        corpus.set_policy(TENANT, RetentionPolicy(max_profiles=CAP))
        live = []
        for i in range(CAP):
            vid = str(i % len(SCALES))
            entry = corpus.ingest_bytes(TENANT, blobs[vid].read_bytes(),
                                        name=f"seed-{i}.rpdb")
            live.append([entry.pid, vid])
    finally:
        corpus.close()
    return {"root": str(root), "blobs": {k: str(v) for k, v in blobs.items()},
            "live": live}, variants


def references(spec: dict, variants) -> dict:
    """Read-backs, diagnosis summaries and diffs of the in-memory
    variants; the clean diffs must flag nothing, the planted one its
    regression."""
    refs = {f"variant-{vid}": fingerprint(_readback(exp))
            for vid, exp in variants.items()}
    summaries = {vid: _summary(exp) for vid, exp in variants.items()}
    for target in [str(i) for i in range(1, len(SCALES))] + ["R"]:
        answer = _diff([variants["0"], variants[target]])
        flagged = any(f["kind"] == "regression"
                      and f["scope"].startswith(PLANTED_FRAME)
                      for f in answer["findings"])
        if flagged != (target == "R"):
            raise RuntimeError(f"reference diff 0-{target}: planted "
                               f"regression flagged={flagged}")
        refs[f"diff-0-{target}"] = fingerprint(answer)
    return {"refs": refs, "summaries": summaries}


def units(seed: int, seconds: int) -> list:
    """Every seed ingests the same variants; the seed orders them."""
    rng = random.Random(seed)
    n = max(MIN_CYCLES, round(seconds / UNIT_SECONDS))
    clean = [str(1 + c % (len(SCALES) - 1)) for c in range(n)]
    middles = [str(k % len(SCALES))
               for k in range(n * (INGESTS_PER_CYCLE - 2))]
    rng.shuffle(clean)
    rng.shuffle(middles)
    out = []
    for c in range(n):
        planted = c % PLANT_EVERY == PLANT_EVERY - 1
        last = "R" if planted else clean.pop()
        middle = [middles.pop() for _ in range(INGESTS_PER_CYCLE - 2)]
        unit = []
        for k, vid in enumerate(["0", *middle, last]):
            unit.append(["ingest", vid, f"c{c}-{k}.rpdb"])
            unit.append(["readback"])
        unit.append(["diff", last])
        if c % DIAGNOSE_EVERY == DIAGNOSE_EVERY - 1:
            unit.append(["diagnose"])
        if c % RETENTION_EVERY == RETENTION_EVERY - 1:
            unit.append(["retention"])
        if c % REOPEN_EVERY == REOPEN_EVERY - 1:
            unit.append(["reopen"])
        out.append(unit)
    return out


# --------------------------------------------------------------------- #
# child side
# --------------------------------------------------------------------- #
class State:
    def __init__(self, spec: dict) -> None:
        from repro.corpus import open_corpus

        self.open_corpus = open_corpus
        self.root = spec["root"]
        self.blobs = {vid: Path(p).read_bytes()
                      for vid, p in spec["blobs"].items()}
        self.summaries = spec["summaries"]
        self.live = [tuple(x) for x in spec["live"]]   # oldest first
        self.cycle = []          # (pid, vid) ingested this cycle
        self.corpus = open_corpus(self.root)
        self.listed = {e.pid for e in self.corpus.list(TENANT)}
        self.fsyncs = 0
        self.ingest_fsyncs = 0
        self.ingests = 0
        real_fsync = os.fsync

        def counting_fsync(fd):
            self.fsyncs += 1
            return real_fsync(fd)

        os.fsync = counting_fsync

    def vid_of(self, pid: str) -> str:
        return dict(self.live)[pid]

    def check_listing(self) -> str | None:
        listed = sorted(e.pid for e in self.corpus.list(TENANT))
        expected = sorted(pid for pid, _ in self.live)
        if listed != expected:
            return f"corpus lists {len(listed)} profiles {listed[:3]}..., " \
                   f"expected {expected[:3]}..."
        return None


def _form(path: str) -> str:
    """The storage form of a profile file, from its magic bytes."""
    if os.path.isdir(path):
        return "rpstore"
    with open(path, "rb") as fh:
        return "rpdb" if fh.read(4) == b"RPDB" else "other"


def op_ingest(state: State, op: list, rec, oracle):
    vid, name = op[1], op[2]
    data = state.blobs[vid]
    before = state.fsyncs
    with Timer() as t:
        entry = state.corpus.ingest_bytes(TENANT, data, name=name)
    listed = {e.pid for e in state.corpus.list(TENANT)}
    evicted = state.listed - listed
    state.listed = listed
    form = _form(state.corpus.profile_path(TENANT, entry.pid))
    rec.sample("primary", f"ingest/{form}/evicted-{len(evicted)}", t)
    state.ingest_fsyncs += state.fsyncs - before
    state.ingests += 1
    state.live.append((entry.pid, vid))
    oldest = {pid for pid, _ in state.live[:-CAP]}
    del state.live[:-CAP]
    if len(state.cycle) == INGESTS_PER_CYCLE:
        state.cycle = []
    state.cycle.append((entry.pid, vid))
    if evicted != oldest:
        return f"ingest evicted {sorted(evicted)}, expected the oldest " \
               f"{sorted(oldest)}"
    return None


def op_readback(state: State, op: list, rec, oracle):
    pid, vid = state.cycle[-1]
    answer = _readback(state.corpus.load(TENANT, pid))
    return oracle.check(f"variant-{vid}", answer)


def op_diff(state: State, op: list, rec, oracle):
    (first, _), (last, vid) = state.cycle[0], state.cycle[-1]
    paths = [state.corpus.profile_path(TENANT, pid) for pid in (first, last)]
    with Timer() as t:
        answer = _diff(paths)
    # the in-process align has no cache: every diff loads both members
    forms = "+".join(_form(path) for path in paths)
    rec.sample("secondary", f"align-diff-detect/{forms}/loaded", t)
    return oracle.check(f"diff-0-{vid}", answer)


def op_diagnose(state: State, op: list, rec, oracle):
    from repro.query import diagnose_corpus

    diagnosis = diagnose_corpus(state.corpus, TENANT)
    if diagnosis.profiles_examined != CAP or diagnosis.profiles_skipped:
        return f"diagnosis examined {diagnosis.profiles_examined} " \
               f"(skipped {diagnosis.profiles_skipped}), expected {CAP}"
    for pid, _group, _nranks, total, hot, share in diagnosis.summaries:
        want = state.summaries[state.vid_of(pid)]
        if [total, hot, share] != want:
            return f"diagnosis of {pid}: {[total, hot, share]} != {want}"
    return None


def op_retention(state: State, op: list, rec, oracle):
    evicted = state.corpus.enforce_retention(TENANT)
    if evicted:
        return f"retention evicted {len(evicted)} from a tenant at its cap"
    return state.check_listing()


def op_reopen(state: State, op: list, rec, oracle):
    pid, vid = state.live[-1]
    state.corpus.close()
    state.corpus = None
    journal = os.path.getsize(os.path.join(state.root, JOURNAL_NAME))
    with Timer() as t:
        corpus = state.open_corpus(state.root)
        entries = corpus.list(TENANT)
        answer = _readback(corpus.load(TENANT, pid))
    state.corpus = corpus
    form = _form(corpus.profile_path(TENANT, pid))
    rec.sample("open", f"open-corpus/{form}/"
               f"{'replay' if journal else 'empty-journal'}", t)
    if len(entries) != CAP:
        return f"reopened corpus lists {len(entries)} profiles, not {CAP}"
    return oracle.check(f"variant-{vid}", answer) or state.check_listing()


OPS = {"ingest": op_ingest, "readback": op_readback, "diff": op_diff,
       "diagnose": op_diagnose, "retention": op_retention,
       "reopen": op_reopen}


def finish(state: State) -> dict:
    if state.corpus is not None:
        state.corpus.close()
    return {"corpus.fsyncs_per_ingest": (state.ingest_fsyncs / state.ingests
                                         if state.ingests else 0.0)}
