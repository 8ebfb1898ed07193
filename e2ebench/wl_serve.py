"""serve-mixed: ``repro-serve`` with one worker, one keep-alive client.

The server runs in its own process (``serve_child.py``) and preloads
the ~8.4k-scope scaled profile as ``.rpdb`` and as ``.rpstore`` plus the
s3d workload.  This process is the single client: one keep-alive
connection, one request at a time (a closed loop).  One unit is: a
write (flatten or unflatten of the ``.rpstore`` session, which bumps its
generation), a ``/table`` request in JSON that therefore misses the
render cache, two Zipf-skewed reads, a second write, a ``/table``
request in the columnar encoding that misses too, and two more reads;
at fixed units the ``.rpstore`` session is recycled (closed and opened
again).  The same view layers run here behind the HTTP, cache and
encoding layers.

Populations: ``open`` (open the ``.rpstore`` session + its first JSON
table), ``primary`` (JSON ``/table`` cache misses), ``secondary``
(columnar ``/table`` cache misses).  The Zipf reads mix cache outcomes
and are counted in ``ops_per_s`` only.  The read mix (its exponent, its
ranking, two reads per write) is an assumption, not a measurement; see
``ZIPF_S`` and ``READS``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import Timer, fingerprint

NAME = "serve-mixed"
POPULATIONS = {"open": 0.5, "primary": 0.75, "secondary": 0.5}
ROLES = {"primary": "table_json", "secondary": "table_columnar"}
CONTROL_KEY = "table-main"
IN_PROCESS = False

COLUMNAR = "application/x-repro-columnar"
TABLE_QUERY = "view=cct&depth=4&max_rows=100000"
READS_PER_HALF = 2
RECYCLE_EVERY = 2
UNIT_SECONDS = 0.40            # one unit's wall time on the reference host
MIN_UNITS = 40                 # p75 needs 40 samples for ten beyond it
#: Zipf exponent of the read mix -- an assumption, not a measurement:
#: no request log of this server exists to fit it to.  1.1 makes the
#: hottest entry about a third of the reads and the coldest about 3%,
#: so every catalog entry is read in every run.
ZIPF_S = 1.1

#: queries of the read mix (shapes from the analyst battery)
QUERY_SPECS = [
    {"pattern": "** / *"},
    {"ops": [{"op": "match", "pattern": "** / *"},
             {"op": "filter", "where": ["cycles.exclusive >= 0.01%"]}],
     "sort": {"metric": "cycles", "flavor": "exclusive"}, "limit": 10},
]
#: the read catalog: (answer key, op, session role, argument), hottest
#: first.  The ranking is an assumption too: the session the writes
#: mutate is read most (its table in both encodings, then its hot path
#: and a query, as an analyst re-reads what just changed), then the
#: preloaded ``.rpdb`` and s3d sessions.
READS = [
    ("table-main", "table-json", "main", None),
    ("table-main", "table-columnar", "main", None),
    ("hotpath-main", "hotpath", "main", None),
    ("query-main-1", "query", "main", 1),
    ("render-rpdb-cct", "render", "rpdb", "cct"),
    ("render-s3d-cct", "render", "s3d", "cct"),
    ("hotpath-rpdb", "hotpath", "rpdb", None),
    ("render-rpdb-callers", "render", "rpdb", "callers"),
    ("query-s3d-0", "query", "s3d", 0),
    ("table-s3d", "table-json", "s3d", None),
]


# --------------------------------------------------------------------- #
# answers, in the same normal form for references and responses
# --------------------------------------------------------------------- #
def _table_answer(payload: dict) -> dict:
    return {k: payload[k]
            for k in ("view", "row_count", "truncated", "columns", "rows")}


def _strip(payload: dict) -> dict:
    return {k: v for k, v in payload.items()
            if k not in ("session", "generation")}


def _render_body(kind: str) -> dict:
    return {"view": kind, "depth": 3, "max_rows": 60}


# --------------------------------------------------------------------- #
# parent side: set-up
# --------------------------------------------------------------------- #
def setup(workdir: Path, seed: int):
    """Build the scaled profile and save it in both forms (timed)."""
    from repro.hpcprof import database
    from repro.hpcprof.experiment import Experiment
    from repro.sim.scale import scale_program

    experiment = Experiment.from_program(scale_program(fanout=7, depth=4),
                                         nranks=4)
    rpdb = workdir / "scaled.rpdb"
    rpstore = workdir / "scaled.rpstore"
    database.save(experiment, str(rpdb))
    database.save(experiment, str(rpstore))
    return {"rpdb": str(rpdb), "rpstore": str(rpstore),
            "workdir": str(workdir)}, experiment


def references(spec: dict, experiment) -> dict:
    """Every read's answer from the in-memory experiments (the s3d
    session is built from its program by the server too)."""
    from repro.core.views import ViewKind
    from repro.query import Query, run_query
    from repro.server.sessions import (
        hot_path_snapshot,
        load_workload,
        render_snapshot,
        table_snapshot,
    )
    from repro.viewer.session import ViewerSession

    scaled = ViewerSession(experiment)
    s3d = ViewerSession(load_workload("s3d"))
    kinds = {"cct": ViewKind.CALLING_CONTEXT, "callers": ViewKind.CALLERS}

    def table(session):
        snap = table_snapshot(session, ViewKind.CALLING_CONTEXT, depth=4,
                              max_rows=100000)
        return fingerprint(_table_answer(snap.to_json_payload("")))

    def render(session, kind):
        payload = render_snapshot(session, kinds[kind],
                                  **{k: v for k, v in _render_body(kind)
                                     .items() if k != "view"})
        return fingerprint({"view": payload["view"],
                            "text": payload["text"]})

    def hotpath(session):
        payload = hot_path_snapshot(session, ViewKind.CALLING_CONTEXT)
        return fingerprint({k: payload[k]
                            for k in ("path", "values", "hotspot")})

    def query(session, i):
        result = run_query(Query.from_spec(QUERY_SPECS[i]),
                           session.experiment)
        return fingerprint(_strip(result.to_payload("")))

    return {"refs": {
        "table-main": table(scaled),
        "hotpath-main": hotpath(scaled),
        "query-main-1": query(scaled, 1),
        "render-rpdb-cct": render(scaled, "cct"),
        "render-s3d-cct": render(s3d, "cct"),
        "hotpath-rpdb": hotpath(scaled),
        "render-rpdb-callers": render(scaled, "callers"),
        "query-s3d-0": query(s3d, 0),
        "table-s3d": table(s3d),
    }}


def _read_mix(total: int) -> list[int]:
    """*total* reads with Zipf counts over READS in catalog order (the
    first entry is the hottest); largest remainders fill the rounding."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(READS))]
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(READS)),
                          key=lambda i: counts[i] - weights[i] * scale)
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return [i for i, c in enumerate(counts) for _ in range(c)]


def units(seed: int, seconds: int) -> list:
    """The same writes, misses and read multiset for every seed; the
    seed only orders the reads."""
    n = max(MIN_UNITS, round(seconds / UNIT_SECONDS))
    reads = _read_mix(n * 2 * READS_PER_HALF)
    random.Random(seed).shuffle(reads)
    out = []
    for u in range(n):
        unit: list = [["write"], ["table-miss", "json"]]
        unit += [["read", reads.pop()] for _ in range(READS_PER_HALF)]
        unit += [["write"], ["table-miss", "columnar"]]
        unit += [["read", reads.pop()] for _ in range(READS_PER_HALF)]
        if u % RECYCLE_EVERY == RECYCLE_EVERY - 1:
            unit.append(["recycle"])
        out.append(unit)
    return out


# --------------------------------------------------------------------- #
# parent side: the client
# --------------------------------------------------------------------- #
class State:
    """The client's connection and what it knows of the sessions."""

    def __init__(self, spec: dict, info: dict, proc, deadline: float):
        from repro.server.wire import decode_columnar

        self.proc, self.deadline = proc, deadline
        self.decode_columnar = decode_columnar
        self.host, self.port = info["host"], info["port"]
        self.rpstore = spec["rpstore"]
        by_label = {s["label"]: s["id"] for s in info["sessions"]}
        self.sids = {
            "rpdb": _find(by_label, spec["rpdb"]),
            "main": _find(by_label, spec["rpstore"]),
            "s3d": _find(by_label, "s3d"),
        }
        self.forms = {sid: _form_of(label)
                      for label, sid in by_label.items()}
        self.generation = 0
        self.flattened = False
        #: (sid, generation) of every table this client has asked for:
        #: the render cache can only hold what was asked for before
        self.tables_seen: set[tuple[str, int]] = set()
        self.unit_cpu = 0.0          # the server's CPU at the last collect
        self.conn = http.client.HTTPConnection(self.host, self.port,
                                               timeout=60)

    def request(self, method: str, path: str, body: dict | None = None,
                accept: str | None = None) -> tuple[int, str, bytes]:
        headers = {}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if accept is not None:
            headers["Accept"] = accept
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port,
                                                   timeout=60)
            raise
        return response.status, response.getheader("Content-Type", ""), raw

    def get_json(self, path: str) -> dict:
        status, _, raw = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(raw)

    def server(self, command: str) -> list[str]:
        """Send one command to the server child; its answer's words."""
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()
        words = _readline(self.proc, self.deadline).split()
        if not words or words[0] != ANSWERS[command]:
            raise RuntimeError(f"server answered {words} to {command}")
        return words

    def timed(self, op) -> tuple[Timer, object]:
        """Run ``op()`` timed; the timer's CPU includes the server's."""
        before = float(self.server("cpu")[1])
        with Timer() as t:
            result = op()
        t.cpu += float(self.server("cpu")[1]) - before
        return t, result

    def table(self, sid: str, columnar: bool,
              timed: bool = True) -> tuple[Timer | None, dict, str]:
        """One ``/table`` request, with *timed* timed (client and server
        CPU), its decoded payload, and its cache outcome as the client
        observed it (a miss when the session generation the answer
        carries is one no earlier table request of this client was
        answered at)."""
        path = f"/v1/sessions/{sid}/table?{TABLE_QUERY}"

        def get():
            return self.request("GET", path,
                                accept=COLUMNAR if columnar else None)

        t, (status, ctype, raw) = self.timed(get) if timed else (None, get())
        if status != 200:
            raise RuntimeError(f"table answered {status}: {raw[:200]!r}")
        if columnar:
            if not ctype.startswith(COLUMNAR):
                raise RuntimeError(f"columnar table came back as {ctype}")
            payload = self.decode_columnar(raw)
        else:
            payload = json.loads(raw)
        seen = (sid, payload.get("generation"))
        outcome = "hit" if seen in self.tables_seen else "miss"
        self.tables_seen.add(seen)
        return t, payload, outcome

    def close(self) -> None:
        self.conn.close()


def _form_of(label: str) -> str:
    """A session's storage form, from the database path it was opened
    from (the server labels a session with that path)."""
    for suffix in (".rpstore", ".rpdb"):
        if label.rstrip("/").endswith(suffix):
            return suffix[1:]
    return "program"


def _find(by_label: dict, label: str) -> str:
    for key, sid in by_label.items():
        if key == label or key.endswith(os.path.basename(label)):
            return sid
    raise RuntimeError(f"server did not preload {label!r}: {by_label}")


def op_write(state: State, op: list, rec, oracle):
    sid = state.sids["main"]
    verb = "unflatten" if state.flattened else "flatten"
    status, _, raw = state.request("POST", f"/v1/sessions/{sid}/{verb}")
    if status != 200:
        return f"{verb} answered {status}"
    state.flattened = not state.flattened
    generation = json.loads(raw).get("generation")
    if generation != state.generation + 1:
        return f"{verb}: generation {generation}, expected " \
               f"{state.generation + 1}"
    state.generation = generation
    return None


def op_table_miss(state: State, op: list, rec, oracle):
    columnar = op[1] == "columnar"
    sid = state.sids["main"]
    t, payload, outcome = state.table(sid, columnar)
    population = "secondary" if columnar else "primary"
    rec.sample(population, f"table-{op[1]}/{state.forms[sid]}/{outcome}", t)
    if payload.get("generation") != state.generation:
        return f"table served generation {payload.get('generation')}, " \
               f"expected {state.generation} (a cached answer)"
    return oracle.check("table-main", _table_answer(payload))


def op_read(state: State, op: list, rec, oracle):
    key, kind, role, arg = READS[op[1]]
    sid = state.sids[role]
    if kind in ("table-json", "table-columnar"):
        _, payload, _ = state.table(sid, kind == "table-columnar",
                                    timed=False)
        return oracle.check(key, _table_answer(payload))
    if kind == "hotpath":
        payload = state.get_json(f"/v1/sessions/{sid}/hotpath?view=cct")
        answer = {k: payload[k] for k in ("path", "values", "hotspot")}
        return oracle.check(key, answer)
    if kind == "render":
        status, _, raw = state.request(
            "POST", f"/v1/sessions/{sid}/render", _render_body(arg))
        if status != 200:
            return f"render answered {status}"
        payload = json.loads(raw)
        return oracle.check(key, {"view": payload["view"],
                                  "text": payload["text"]})
    status, _, raw = state.request(
        "POST", "/v1/query", {"session": sid, "query": QUERY_SPECS[arg]})
    if status != 200:
        return f"query answered {status}"
    return oracle.check(key, _strip(json.loads(raw)))


def op_recycle(state: State, op: list, rec, oracle):
    old = state.sids["main"]

    def open_session():
        status, _, raw = state.request("POST", "/v1/sessions",
                                       {"database": state.rpstore})
        if status != 201:
            raise RuntimeError(f"open answered {status}: {raw[:200]!r}")
        info = json.loads(raw)["session"]
        _, payload, outcome = state.table(info["id"], columnar=False,
                                          timed=False)
        return info, payload, outcome

    t, (info, payload, outcome) = state.timed(open_session)
    sid = info["id"]
    state.forms[sid] = _form_of(info["label"])
    rec.sample("open", f"open-session/{state.forms[sid]}/{outcome}", t)
    status, _, _ = state.request("DELETE", f"/v1/sessions/{old}")
    if status != 200:
        return f"closing {old} answered {status}"
    state.sids["main"] = sid
    state.generation = 0
    state.flattened = False
    return oracle.check("table-main", _table_answer(payload))


def between_units(state: State) -> tuple[float, float]:
    """The server's collection between units, as in-process workloads
    do theirs (no request is in flight, and the time counts in
    ``ops_per_s``); returns the server's calibration probe and the CPU
    seconds it spent since the last collection."""
    _, probe, cpu = state.server("collect")
    used = float(cpu) - state.unit_cpu
    state.unit_cpu = float(cpu)
    return float(probe), used


#: the server child's answer to each command
ANSWERS = {"collect": "collected", "cpu": "cpu"}

OPS = {"write": op_write, "table-miss": op_table_miss, "read": op_read,
       "recycle": op_recycle}


def _readline(proc: subprocess.Popen, deadline: float) -> str:
    """One stdout line from the server, or an error past *deadline*."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("server did not answer in time")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited {proc.poll()}")
            return line.decode("utf-8")


def execute(spec: dict, units: list, traced: bool, corrupt: str | None,
            timeout: float) -> dict:
    deadline = time.monotonic() + timeout
    argv = [sys.executable, str(harness.BENCH_DIR / "serve_child.py"),
            spec["rpdb"], spec["rpstore"], "--workload", "s3d"]
    if traced:
        argv.append("--trace")
    err_path = Path(spec["workdir"]) / "server.err"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err,
                                env=harness.child_env(),
                                cwd=str(harness.ROOT))
    try:
        try:
            info = json.loads(_readline(proc, deadline))
        except RuntimeError as exc:
            raise RuntimeError(f"{exc}: {err_path.read_text()[-4000:]}")
        state = State(spec, info, proc, deadline)
        before = state.get_json("/v1/stats")["cache"]
        rec = harness.Recorder()
        oracle = harness.Oracle(spec["refs"], corrupt)
        harness.freeze_heap()
        loop = harness.run_units(sys.modules[__name__], state, units, rec,
                                 oracle)
        after = state.get_json("/v1/stats")["cache"]
        state.close()
        proc.stdin.close()
        final = json.loads(_readline(proc, deadline))
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return {
        "recorder": rec.to_json(),
        **loop,
        "peak_rss_mib": final["peak_rss_mib"],
        "extras": {"server.cache.hit_ratio": hits / lookups if lookups
                   else 0.0},
        "layers": final.get("layers"),
    }
