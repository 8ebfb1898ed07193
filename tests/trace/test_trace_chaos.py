"""Chaos battery for the chunked trace store.

Two attack surfaces, the same verdict required from both:

* **storage corruption** — for every byte offset of the manifest and of
  a chunk file, truncating there or flipping a bit there must yield
  either a store that still answers the pinned window query correctly,
  or a structured :class:`TraceError` / :class:`TraceCorrupt` — never
  an unhandled exception, and **never a phantom window** (a result that
  silently differs from the uncorrupted answer).  A strided subset runs
  unmarked; the exhaustive sweep is marked ``chaos``.
* **writer crashes** — :func:`crashing_at` aborts ``create_trace_store``
  at every declared crash point; because the manifest rename commits
  last, the path must afterwards be either *not a trace store at all*
  or a fully working one.  One subprocess ``kill -9`` representative
  runs unmarked; the full SIGKILL sweep is marked ``chaos``.

Nothing deselects the ``chaos`` marker, so every sweep here runs in
every tier-1 run; ``-m chaos`` selects the marked ones alone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ReproError, TraceError
from repro.testing.faults import (
    CrashPointHit,
    bit_flip,
    crash_points,
    crashing_at,
    truncate,
)
from repro.trace import create_trace_store, is_trace_path, open_trace
from repro.trace.store import CRASH_POINTS, TRACE_MANIFEST


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """One store on disk + the uncorrupted answer to the probe window."""
    from repro.sim.spmd import trace_spmd
    from repro.sim.workloads import fig1

    traces = trace_spmd(fig1.build(), nranks=2, seed=7, trace_slices=3,
                        name="chaos-trace")
    root = str(tmp_path_factory.mktemp("chaos") / "t.rpstore")
    span = traces.t_end - traces.t_begin
    store = create_trace_store(traces, root,
                               chunk_duration=max(span / 4, 1e-6))
    t0 = traces.t_begin + 0.2 * span
    t1 = traces.t_begin + 0.8 * span
    truth = store.window_ticks(t0, t1)
    store.close()
    return root, traces, (t0, t1), truth


def _check_one(root: str, window, truth) -> None:
    """Open + query the mutated store: right answer or structured error."""
    try:
        with open_trace(root) as store:
            got = store.window_ticks(*window)
            assert np.array_equal(got, truth), (
                "corruption produced a silently wrong (phantom) window"
            )
    except TraceError:
        return  # structured refusal (TraceCorrupt is a TraceError)
    except ReproError as exc:  # pragma: no cover - would be a real bug
        raise AssertionError(
            f"corruption leaked a non-trace error: {exc!r}"
        )


def _mutate_file(root, tmp_path, fname, blob, tag):
    dst = str(tmp_path / tag)
    os.makedirs(dst)
    for other in os.listdir(root):
        if other == fname:
            continue
        with open(os.path.join(root, other), "rb") as fh:
            data = fh.read()
        with open(os.path.join(dst, other), "wb") as fh:
            fh.write(data)
    with open(os.path.join(dst, fname), "wb") as fh:
        fh.write(blob)
    return dst


def _target_files(root):
    chunk = sorted(f for f in os.listdir(root) if f.endswith(".events"))[0]
    slab = sorted(f for f in os.listdir(root) if f.endswith(".slab"))[0]
    return [TRACE_MANIFEST, chunk, slab]


def _sweep(seeded, tmp_path, stride) -> None:
    root, _traces, window, truth = seeded
    for fname in _target_files(root):
        with open(os.path.join(root, fname), "rb") as fh:
            original = fh.read()
        for offset in range(0, len(original) + 1, stride):
            dst = _mutate_file(root, tmp_path, fname,
                               truncate(original, offset),
                               f"t-{fname}-{offset}")
            _check_one(dst, window, truth)
        for offset in range(0, len(original), stride):
            dst = _mutate_file(root, tmp_path, fname,
                               bit_flip(original, offset, bit=offset % 8),
                               f"f-{fname}-{offset}")
            _check_one(dst, window, truth)


def test_corruption_subset(seeded, tmp_path):
    """Tier-1 insurance: strided offsets over manifest + chunk + slab."""
    _sweep(seeded, tmp_path, stride=41)


@pytest.mark.chaos
def test_corruption_every_offset(seeded, tmp_path):
    _sweep(seeded, tmp_path, stride=1)


def test_missing_file_is_structured(seeded, tmp_path):
    """Deleting any store file is caught at open (size check) or read
    (CRC) — covered here for the manifest-missing case explicitly."""
    root, _traces, window, truth = seeded
    for fname in _target_files(seeded[0]):
        dst = _mutate_file(root, tmp_path, fname, b"", f"gone-{fname}")
        os.unlink(os.path.join(dst, fname))
        if fname == TRACE_MANIFEST:
            assert not is_trace_path(dst)
        _check_one(dst, window, truth)


# --------------------------------------------------------------------- #
# writer crash battery: manifest-last means no half-written store
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_writer_crash_leaves_no_phantom_store(point, seeded, tmp_path):
    _root, traces, window, truth = seeded
    path = str(tmp_path / "crashed.rpstore")
    with pytest.raises(CrashPointHit):
        with crashing_at(point):
            create_trace_store(traces, path, chunk_duration=2.0)

    if point == "trace.write.committed":
        # the manifest rename already happened: the store is complete
        assert is_trace_path(path)
        with open_trace(path) as store:
            assert np.array_equal(store.window_ticks(*window), truth)
    else:
        # pre-commit crash: the path must not look like a store at all
        assert not is_trace_path(path)
        with pytest.raises(TraceError):
            open_trace(path)
        # and a retry over the debris succeeds cleanly
        store = create_trace_store(traces, path, chunk_duration=2.0,
                                   overwrite=True)
        try:
            assert np.array_equal(store.window_ticks(*window), truth)
        finally:
            store.close()


def test_crash_points_registered():
    assert set(crash_points("trace.")) == set(CRASH_POINTS)


# --------------------------------------------------------------------- #
# subprocess battery (kill -9 for real)
# --------------------------------------------------------------------- #
_CHILD = """
import sys
from repro.sim.spmd import trace_spmd
from repro.sim.workloads import fig1
from repro.trace import create_trace_store

traces = trace_spmd(fig1.build(), nranks=2, seed=7, trace_slices=3)
create_trace_store(traces, sys.argv[1], chunk_duration=2.0).close()
print("COMMITTED")
"""


def _run_child(path, point):
    env = dict(os.environ, PYTHONPATH="src")
    if point is not None:
        env["REPRO_CRASH_POINT"] = point
    return subprocess.run(
        [sys.executable, "-c", _CHILD, path],
        env=env, cwd=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
        capture_output=True, text=True, timeout=120,
    )


def _assert_killed(proc):
    assert proc.returncode == -signal.SIGKILL, (
        f"child should have SIGKILLed itself: rc={proc.returncode} "
        f"stderr={proc.stderr[-500:]}"
    )


def test_subprocess_kill_before_manifest_leaves_no_store(tmp_path):
    path = str(tmp_path / "t.rpstore")
    proc = _run_child(path, "trace.write.manifest-staged")
    _assert_killed(proc)
    assert not is_trace_path(path)
    with pytest.raises(TraceError):
        open_trace(path)


@pytest.mark.chaos
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_subprocess_kill_sweep(point, tmp_path):
    path = str(tmp_path / "t.rpstore")
    proc = _run_child(path, point)
    _assert_killed(proc)
    if point == "trace.write.committed":
        assert is_trace_path(path)
        with open_trace(path) as store:
            assert store.n_events > 0
    else:
        assert not is_trace_path(path)
