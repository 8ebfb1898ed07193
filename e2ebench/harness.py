"""Shared machinery of the end-to-end benchmark.

Everything here is workload-agnostic: locating the checkout's sources,
the per-population sample recorder and its self-checks, answer
fingerprints for the oracles, the collector discipline, provenance, and
the child-process runner.  Nothing here imports ``repro`` at module
level, so ``run.py`` can refuse a checkout without sources before any
import of the program is attempted.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: a ``_pNN`` latency metric needs this many samples beyond its percentile
TAIL_SAMPLES = 10

#: set-up is repeated this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 5

#: the calibration probe's size, and the seconds it takes on a host at
#: reference speed (a 2-vCPU Intel Xeon VM, where it was tuned)
PROBE_ITERATIONS = 30_000
PROBE_NODES = 3_000
REFERENCE_PROBE_S = 0.006

#: workload name -> the module (in this directory) that implements it
WORKLOADS = {
    "analyst-session": "wl_analyst",
    "trace-windows": "wl_trace",
    "serve-mixed": "wl_serve",
    "corpus-diff": "wl_corpus",
}


def sources_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_sources() -> None:
    """Make the checkout's ``src/`` importable (first on the path)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    return n - math.ceil(q * n)


# --------------------------------------------------------------------- #
# recorder: one population per latency metric
# --------------------------------------------------------------------- #
class Recorder:
    """Latency samples per population, plus op accounting.

    A *population* is what one latency metric is computed over; every
    sample carries the tag ``op/storage/cache`` of the operation that
    produced it, built from what that operation observed (the storage
    form it opened, whether its cache or chunk state was cold, whether
    it evicted).  :meth:`problems` reports a population whose samples
    carry more than one tag, so a metric can never silently pool two
    latency clusters.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: per sample, the CPU seconds spent on it (see :func:`at_speed`)
        self.cpu: dict[str, list[float]] = defaultdict(list)
        #: per sample, the host-speed factor of the unit that took it
        self.scale: dict[str, list[float]] = defaultdict(list)
        self.probes: list[float] = []
        self.tags: dict[str, set[str]] = defaultdict(set)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def sample(self, population: str, tag: str, timer: "Timer") -> None:
        self.samples[population].append(timer.s)
        self.cpu[population].append(timer.cpu)
        self.tags[population].add(tag)

    def settle(self, factor: float) -> None:
        """Give every sample taken since the last call this factor."""
        for population, values in self.samples.items():
            scale = self.scale[population]
            scale.extend([factor] * (len(values) - len(scale)))

    def timings(self, population: str, scaled: bool) -> list[float]:
        """The population's samples, as measured or at reference speed."""
        raw = self.samples.get(population, [])
        if not scaled:
            return list(raw)
        return [at_speed(v, c, f) for v, c, f in
                zip(raw, self.cpu[population], self.scale[population])]

    def cpu_share(self, population: str) -> float:
        """The share of the population's time that was CPU work."""
        wall = sum(self.samples.get(population, ()))
        return sum(self.cpu.get(population, ())) / wall if wall else 0.0

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {why}")

    def problems(self, required: dict[str, float]) -> list[str]:
        """Self-check: one tag per population, enough tail samples.

        *required* maps each population to the highest percentile a
        metric reads from it (0.5 for a median-only population).
        """
        out = []
        for population, q in required.items():
            n = len(self.samples.get(population, ()))
            if n == 0:
                out.append(f"population {population!r} has no samples")
                continue
            if len(self.tags[population]) != 1:
                out.append(f"population {population!r} mixes op tags "
                           f"{sorted(self.tags[population])}")
            if q > 0.5 and samples_beyond(n, q) < TAIL_SAMPLES:
                out.append(f"population {population!r}: {n} samples leave "
                           f"fewer than {TAIL_SAMPLES} beyond p{q * 100:g}")
        return out

    def to_json(self) -> dict:
        return {
            "samples": dict(self.samples),
            "cpu": dict(self.cpu),
            "scale": dict(self.scale),
            "probes": self.probes,
            "tags": {k: sorted(v) for k, v in self.tags.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Recorder":
        rec = cls()
        for k, v in data["samples"].items():
            rec.samples[k] = list(v)
        for k, v in data["cpu"].items():
            rec.cpu[k] = list(v)
        for k, v in data["scale"].items():
            rec.scale[k] = list(v)
        rec.probes = list(data["probes"])
        for k, v in data["tags"].items():
            rec.tags[k] = set(v)
        rec.attempted = data["attempted"]
        rec.failed = data["failed"]
        rec.errors = list(data["errors"])
        return rec


class Timer:
    """``with Timer() as t: ...`` then ``t.s`` — elapsed seconds — and
    ``t.cpu`` — the CPU seconds this process spent in that time (an op
    whose work runs in another process adds that process's share)."""

    def __enter__(self) -> "Timer":
        self.t0 = time.perf_counter()
        self.c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = time.process_time() - self.c0
        self.s = time.perf_counter() - self.t0


def at_speed(seconds: float, cpu: float, factor: float) -> float:
    """A timing at reference host speed: its CPU part scaled by the
    host-speed *factor*, the rest (waiting on timers, the disk, another
    process that is not measured) as measured.  CPU above the wall time
    (several threads) counts as the wall time."""
    work = min(cpu, seconds)
    return work * factor + (seconds - work)


# --------------------------------------------------------------------- #
# oracles
# --------------------------------------------------------------------- #
def _canon(obj, out: list, np) -> None:
    """Append a canonical text form of *obj*; floats as ``float.hex``."""
    if isinstance(obj, bool) or obj is None:
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(obj.hex())
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for key in sorted(obj, key=str):
            out.append(json.dumps(str(key)))
            out.append(":")
            _canon(obj[key], out, np)
            out.append(",")
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _canon(item, out, np)
            out.append(",")
        out.append("]")
    elif isinstance(obj, np.ndarray):
        # the array's exact bytes: equal iff every element's bits are
        # equal, the same test as comparing each float.hex
        data = np.ascontiguousarray(obj)
        out.append(f"nd{data.dtype.str}{data.shape}")
        out.append(hashlib.sha256(data.tobytes()).hexdigest())
    elif isinstance(obj, np.generic):
        _canon(obj.item(), out, np)
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(obj) -> str:
    """Exact digest of an answer: equal only when every bit is equal."""
    import numpy as np

    parts: list[str] = []
    _canon(obj, parts, np)
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()[:24]


def query_answer(result) -> dict:
    """The comparable content of a :class:`repro.query.QueryResult`."""
    return {"names": list(result.names), "labels": list(result.labels),
            "depths": result.depths, "values": result.values,
            "truncated": result.truncated}


class Oracle:
    """Reference fingerprints keyed by answer id.

    ``corrupt`` names one key whose reference is deliberately wrong —
    the negative control: a run with it set must report a failed op.
    """

    def __init__(self, refs: dict[str, str], corrupt: str | None = None):
        self.refs = dict(refs)
        if corrupt is not None:
            if corrupt not in self.refs:
                raise KeyError(f"negative control names unknown answer "
                               f"{corrupt!r}")
            self.refs[corrupt] = "0" * 24

    def check(self, key: str, answer) -> str | None:
        """None when *answer* matches its reference, else the reason."""
        want = self.refs.get(key)
        if want is None:
            return f"no reference for {key}"
        got = fingerprint(answer)
        if got != want:
            return f"{key}: fingerprint {got} != reference {want}"
        return None


# --------------------------------------------------------------------- #
# process discipline
# --------------------------------------------------------------------- #
def freeze_heap() -> None:
    """After set-up: move survivors out of the collector's view."""
    gc.collect()
    gc.freeze()


def between_units() -> None:
    """Collect between units so no unit pays for another's garbage."""
    gc.collect()


def calibrate() -> float:
    """Seconds a fixed piece of pure-interpreter work takes right now.

    The reference host is a shared VM whose CPU speed moves by tens of
    percent from one minute to the next, and every timing of a run moves
    with it.  This probe, run where the work runs between units, tracks
    that speed: an arithmetic loop for the interpreter, and an object
    graph built, walked and dropped for the allocator and caches.  On
    the reference host its CPU time moves with its wall time (the host's
    CPU gets slower, it is not taken away), so the CPU part of a timing
    is scaled by ``REFERENCE_PROBE_S / probe`` to read as on a host at
    reference speed, and the part spent waiting (kernel timers,
    ``fsync``) is not: see :func:`at_speed`.  It runs no program code,
    so a change to the program cannot move it; the collector is paused
    while it runs, so the caller's heap cannot either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        nodes = [{"kids": [], "v": i * 0.25} for i in range(PROBE_NODES)]
        for i in range(1, PROBE_NODES):
            nodes[(i - 1) // 7]["kids"].append(nodes[i])
        stack, total = [nodes[0]], 0.0
        while stack:
            node = stack.pop()
            total += node["v"]
            stack.extend(node["kids"])
        del nodes
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_units(module, state, units: list, rec: Recorder,
              oracle: Oracle) -> dict:
    """Execute the fixed op list; returns its wall, CPU and scaled seconds.

    An op returns None when its answer matched the oracle, else the
    reason; an op that raises is failed too and the loop goes on.  The
    collection between units is inside the wall time on purpose: a
    program that makes more garbage pays for it in ``ops_per_s``.  A
    workload whose work runs in another process collects and calibrates
    there, through its module's ``between_units(state)``, which returns
    that process's probe and the CPU seconds it spent on the unit.  Each
    unit's samples and time are scaled (:func:`at_speed`) by the mean of
    the probes before and after it; probe time itself is not part of the
    loop.
    """
    remote = getattr(module, "between_units", None)
    probe = remote(state)[0] if remote is not None else calibrate()
    rec.probes.append(probe)
    wall = cpu = scaled = 0.0
    for unit in units:
        t0 = time.perf_counter()
        c0 = time.process_time()
        for op in unit:
            rec.attempted += 1
            try:
                why = module.OPS[op[0]](state, op, rec, oracle)
            except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
                why = f"raised {type(exc).__name__}: {exc}"
            if why is not None:
                rec.fail(op[0], why)
        between_units()
        used = time.process_time() - c0
        if remote is not None:
            after, remote_cpu = remote(state)
            elapsed = time.perf_counter() - t0 - after
            used += remote_cpu
        else:
            elapsed = time.perf_counter() - t0
            after = calibrate()
        factor = REFERENCE_PROBE_S / ((probe + after) / 2)
        rec.settle(factor)
        rec.probes.append(after)
        wall += elapsed
        cpu += used
        scaled += at_speed(elapsed, used, factor)
        probe = after
    return {"loop_s": wall, "loop_cpu_s": cpu, "scaled_loop_s": scaled}


def peak_rss_mib() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def run_child(argv: list[str], timeout: float) -> dict:
    """Run a benchmark child to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env=child_env(), cwd=str(ROOT), timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError(f"child {argv[0]} printed nothing:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return f"{fstype} at {best or '?'}"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else "unavailable (no git)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workdir: Path) -> dict:
    import platform

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "workdir_fs": _filesystem(workdir.resolve()),
    }
