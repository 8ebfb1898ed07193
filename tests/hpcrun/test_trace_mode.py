"""Trace mode of the measurement substrate: timestamped call-path
samples out of the exact tracer and the wall-clock sampler, feeding the
same TraceSet/window pipeline the simulator uses."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.errors import ProfilerError
from repro.hpcrun.sampler import SamplingProfiler
from repro.hpcrun.tracer import TracingProfiler
from repro.hpcstruct.pystruct import build_python_structure
from repro.trace import TraceData, TraceSet
from tests.hpcrun import target_workload

HERE = os.path.dirname(os.path.abspath(__file__))


def _traced_run(n=40):
    tracer = TracingProfiler(roots=[HERE], trace=True)
    with tracer:
        target_workload.entry(n)
    return tracer


class TestTracerTraceMode:
    def test_off_by_default(self):
        assert TracingProfiler().trace is None

    def test_trace_is_sealed_after_stop(self):
        tracer = _traced_run()
        assert tracer.trace.sealed
        assert tracer.trace.n_events > 0

    def test_timestamps_are_monotone_from_zero(self):
        trace = _traced_run().trace
        assert trace.t_begin >= 0.0
        assert list(trace.times) == sorted(trace.times)

    def test_event_counts_agree_with_live_profile(self):
        """The integer line-event counts are identical between the live
        profile and the trace's whole-window materialization — the
        exactness half of the contract (timings agree to within float
        summation order, asserted separately)."""
        tracer = _traced_run()
        events = tracer.metrics.by_name("line events").mid
        live = tracer.profile.totals()[events]
        materialized = tracer.trace.profile().totals()[events]
        assert live == materialized

    def test_wall_totals_agree_to_summation_order(self):
        tracer = _traced_run()
        wall = tracer.metrics.by_name("wall time (s)").mid
        live = tracer.profile.totals().get(wall, 0.0)
        materialized = tracer.trace.profile().totals().get(wall, 0.0)
        assert materialized == pytest.approx(live, rel=1e-9)

    def test_windowed_experiment_builds(self):
        tracer = _traced_run()
        structure = build_python_structure(
            [os.path.abspath(target_workload.__file__)],
            load_module="target")
        traces = TraceSet([tracer.trace], structure, name="py-trace")
        mid = (traces.t_begin + traces.t_end) / 2
        early = traces.window_experiment(None, mid)
        whole = traces.window_experiment(None, None)
        assert sum(1 for _ in early.cct.walk()) <= \
            sum(1 for _ in whole.cct.walk())


class TestSamplerTraceMode:
    def test_trace_requires_single_thread(self):
        with pytest.raises(ProfilerError, match="one thread"):
            SamplingProfiler(trace=True, all_threads=True)

    def test_deterministic_samples_land_in_trace(self):
        sampler = SamplingProfiler(roots=[HERE], trace=True)
        sampler.start()
        try:
            for _ in range(5):
                target_workload.entry(10)
                sampler.sample_once()
        finally:
            sampler.stop()
        assert sampler.trace.sealed
        assert sampler.trace.n_events == 5
        samples = sampler.metrics.by_name("wall time (s)").mid
        assert sampler.trace.profile().totals()[samples] == \
            pytest.approx(sampler.profile.totals()[samples], rel=1e-9)


class _CheckingTrace(TraceData):
    """A trace that notices overlapping ``record`` calls and keeps each
    call's sample in call order.  ``record`` yields the GIL half way,
    which widens any unsynchronized window between two writers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.inside = 0
        self.overlaps = 0
        self.calls = []

    def record(self, frames, leaf_line, t, ticks):
        self.inside += 1
        if self.inside > 1:
            self.overlaps += 1
        time.sleep(0)
        self.calls.append((tuple(f.key for f in frames), leaf_line, t,
                           dict(ticks)))
        super().record(frames, leaf_line, t, ticks)
        self.inside -= 1


class TestSamplerConcurrency:
    def test_sample_once_beside_the_periodic_thread(self):
        """Hammer sample_once() from two threads while the 0.5 ms
        periodic thread samples too: records never overlap, times are
        monotone in recording order, every event is one sample's time,
        context and ticks, and every sample is one event."""
        sampler = SamplingProfiler(period=0.0005, roots=[HERE], trace=True)
        trace = _CheckingTrace(
            sampler.metrics,
            resolutions=sampler.trace.resolutions,
            program="sampled",
            time_metric=sampler.trace.time_metric,
        )
        sampler.trace = trace

        def hammer():
            for _ in range(300):
                sampler.sample_once()

        sampler.start()
        threads = [threading.Thread(target=hammer) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                time.sleep(0.0005)  # the sampled stack, inside the roots
        finally:
            for thread in threads:
                thread.join()
            sampler.stop()

        assert trace.overlaps == 0
        times = [t for _, _, t, _ in trace.calls]
        assert times == sorted(times)
        assert trace.n_events == len(trace.calls) == sampler.samples_taken
        assert sampler.samples_taken >= 600
        contexts = trace.contexts
        for i, (keys, line, t, ticks) in enumerate(trace.calls):
            frames, leaf_line = contexts[int(trace.ctx_ids[i])]
            assert (tuple(f.key for f in frames), leaf_line) == (keys, line)
            assert float(trace.times[i]) == t
            assert trace.ticks[i].tolist() == [ticks[0]]
