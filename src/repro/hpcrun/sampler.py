"""Asynchronous statistical sampling call-path profiler.

The measurement technique of the paper: at a fixed period, interrupt the
target thread, unwind its call stack, and attribute one sample (cost =
period) to the leaf statement in its full calling context.  The CPython
rendition interrupts nothing — a sampling thread reads the target
thread's frame via ``sys._current_frames()``, which is exactly the
"asynchronous" part: samples land wherever the program happens to be,
yielding accurate, low-overhead profiles whose expected values equal the
true cost distribution.

``SamplingProfiler.sample_once`` is exposed for deterministic testing:
the machinery from unwinding through attribution is exercised without a
timing dependence.  It may run while the periodic thread does, so
attribution — profile, trace event with its timestamp, sample count —
happens under one lock: each trace event is one sample's, and trace
times are monotone in recording order.

With ``trace=True`` (single-thread mode only) every sample additionally
becomes one timestamped event in a
:class:`~repro.trace.model.TraceData` — the sampled rendition of
hpcrun's trace files: period-cost events stamped with seconds since
``start()``, quantized to nanosecond ticks.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Callable, Iterable

from repro.errors import ProfilerError
from repro.core.metrics import MetricTable
from repro.hpcrun.profile_data import ProfileData
from repro.hpcrun.unwind import unwind

__all__ = ["SamplingProfiler", "sample_call"]


class SamplingProfiler:
    """Wall-clock asynchronous sampling profiler for one Python thread."""

    def __init__(
        self,
        period: float = 0.001,
        roots: Iterable[str] = (),
        collapse_foreign: bool = True,
        all_threads: bool = False,
        trace: bool = False,
    ) -> None:
        if period <= 0:
            raise ProfilerError(f"sampling period must be positive, got {period}")
        self.period = period
        self.roots = tuple(os.path.abspath(r) for r in roots)
        self.collapse_foreign = collapse_foreign
        #: sample every application thread (one profile per thread, as
        #: hpcrun does), not just the starting thread
        self.all_threads = all_threads
        self.metrics = MetricTable()
        self._samples_mid = self.metrics.add(
            "wall time (s)", unit="seconds", period=period
        ).mid
        self.profile = ProfileData(self.metrics, program="sampled")
        self.trace = None
        self._t0 = time.perf_counter()
        self._period_ticks = 0
        if trace:
            if all_threads:
                raise ProfilerError(
                    "trace mode samples one thread (all_threads=False)"
                )
            from repro.trace.model import TIME_RESOLUTION, TraceData, quantize

            self._period_ticks = max(1, quantize(period, TIME_RESOLUTION))
            self.trace = TraceData(
                self.metrics,
                resolutions={self._samples_mid: TIME_RESOLUTION},
                program="sampled",
                time_metric=self._samples_mid,
            )
        #: per-thread profiles, populated in all-threads mode
        self.thread_profiles: dict[int, ProfileData] = {}
        self._target_tid: int | None = None
        self._sampler_tid: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: one writer at a time: the periodic thread and sample_once()
        self._lock = threading.Lock()
        self.samples_taken = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self, target_tid: int | None = None) -> None:
        """Begin sampling the given thread (default: the calling thread)."""
        if self._thread is not None:
            raise ProfilerError("sampler already running")
        self._target_tid = target_tid if target_tid is not None else threading.get_ident()
        self._t0 = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self.trace is not None:
            with self._lock:
                self.trace.seal()

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        self._sampler_tid = threading.get_ident()
        while not self._stop.wait(self.period):
            self.sample_once()

    def sample_once(self) -> bool:
        """Take one sample; True when any cost was attributed."""
        if self.all_threads:
            return self._sample_all()
        tid = self._target_tid
        if tid is None:
            tid = threading.get_ident()
        frame = sys._current_frames().get(tid)
        if frame is None:
            return False
        attributed = self._attribute(self.profile, frame)
        del frame  # break the reference cycle promptly
        return attributed

    def _sample_all(self) -> bool:
        """One synchronous sweep over every application thread."""
        hit = False
        current = sys._current_frames()
        try:
            for tid, frame in current.items():
                if tid == self._sampler_tid:
                    continue  # never profile the profiler
                with self._lock:
                    profile = self.thread_profiles.get(tid)
                    if profile is None:
                        profile = ProfileData(self.metrics, thread=tid,
                                              program="sampled")
                        self.thread_profiles[tid] = profile
                hit = self._attribute(profile, frame) or hit
        finally:
            del current
        return hit

    def _attribute(self, profile: ProfileData, frame) -> bool:
        frames, leaf_line = unwind(
            frame, roots=self.roots, collapse_foreign=self.collapse_foreign
        )
        if not frames:
            return False
        with self._lock:
            profile.add_sample(
                frames, leaf_line, {self._samples_mid: self.period}
            )
            if self.trace is not None and not self.trace.sealed:
                t = max(0.0, time.perf_counter() - self._t0)
                self.trace.record(
                    frames, leaf_line, t, {self._samples_mid: self._period_ticks}
                )
            self.samples_taken += 1
        return True

    def merged_profile(self) -> ProfileData:
        """All threads' profiles merged into one (the process profile)."""
        if not self.all_threads:
            return self.profile
        merged = ProfileData(self.metrics, program="sampled")
        for profile in self.thread_profiles.values():
            profile.merge_into(merged)
        return merged


def sample_call(
    fn: Callable,
    *args,
    period: float = 0.001,
    roots: Iterable[str] = (),
    **kwargs,
):
    """Sample one call; returns ``(result, profile_data)``."""
    sampler = SamplingProfiler(period=period, roots=roots)
    with sampler:
        result = fn(*args, **kwargs)
    return result, sampler.profile
