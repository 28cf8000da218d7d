"""Tests for trace-driven replay (the Dimemas-style what-if tool)."""

import numpy as np
import pytest

from repro.apps import CFDConfig, run_cfd
from repro.errors import TraceError
from repro.instrument import Tracer, lint_trace, profile
from repro.simmpi import (COMMODITY_CLUSTER, FAST_FABRIC, SHARED_MEMORY,
                          SP2, NetworkModel, Simulator, replay)


@pytest.fixture(scope="module")
def recorded():
    """A small recorded CFD run on the SP2 model."""
    config = CFDConfig(grid=(128, 128), steps=2)
    result, tracer, measurements = run_cfd(config, n_ranks=8, network=SP2)
    return result, tracer, measurements


class TestReplayFidelity:
    def test_same_machine_reproduces_elapsed(self, recorded):
        result, tracer, _ = recorded
        replayed = replay(tracer.events, network=SP2)
        assert replayed.elapsed == pytest.approx(result.elapsed, rel=0.02)

    def test_compute_time_preserved_exactly(self, recorded):
        _, tracer, _ = recorded
        sink = Tracer()
        replay(tracer.events, network=FAST_FABRIC, trace_sink=sink.record)
        for rank in range(tracer.n_ranks):
            original = sum(event.duration
                           for event in tracer.events_of(rank)
                           if event.kind == "compute")
            new = sum(event.duration for event in sink.events_of(rank)
                      if event.kind == "compute")
            assert new == pytest.approx(original, rel=1e-12)

    def test_message_census_preserved(self, recorded):
        _, tracer, _ = recorded
        sink = Tracer()
        replay(tracer.events, network=SP2, trace_sink=sink.record)
        def census(events):
            sends = {}
            for event in events:
                if event.kind == "send":
                    key = (event.rank, event.partner, event.nbytes)
                    sends[key] = sends.get(key, 0) + 1
            return sends
        assert census(sink.events) == census(tracer.events)

    def test_replayed_trace_is_lint_clean(self, recorded):
        _, tracer, _ = recorded
        sink = Tracer()
        replay(tracer.events, network=COMMODITY_CLUSTER,
               trace_sink=sink.record)
        assert lint_trace(sink) == ()

    def test_regions_preserved(self, recorded):
        _, tracer, _ = recorded
        sink = Tracer()
        replay(tracer.events, network=SP2, trace_sink=sink.record)
        assert set(sink.regions()) == set(tracer.regions())


class TestWhatIfOnTheMachine:
    def test_faster_network_speeds_the_replay(self, recorded):
        result, tracer, _ = recorded
        fast = replay(tracer.events, network=FAST_FABRIC)
        assert fast.elapsed < result.elapsed

    def test_slower_network_slows_the_replay(self, recorded):
        result, tracer, _ = recorded
        slow = replay(tracer.events, network=COMMODITY_CLUSTER)
        assert slow.elapsed > result.elapsed

    def test_network_ordering_is_monotone(self, recorded):
        _, tracer, _ = recorded
        elapsed = [replay(tracer.events, network=net).elapsed
                   for net in (SHARED_MEMORY, FAST_FABRIC, SP2,
                               COMMODITY_CLUSTER)]
        assert elapsed[0] < elapsed[1] < elapsed[2] < elapsed[3]

    def test_compute_bound_floor(self, recorded):
        """No network can push the replay below the slowest rank's pure
        compute time."""
        _, tracer, _ = recorded
        free = NetworkModel(latency=0.0, bandwidth=1e30, overhead=0.0,
                            eager_threshold=1 << 30)
        replayed = replay(tracer.events, network=free)
        floor = max(sum(event.duration
                        for event in tracer.events_of(rank)
                        if event.kind == "compute")
                    for rank in range(tracer.n_ranks))
        assert replayed.elapsed >= floor - 1e-12

    def test_replay_analysis_pipeline(self, recorded):
        """The replayed trace feeds the methodology like any other."""
        from repro.core import analyze
        from repro.apps import LOOPS
        _, tracer, _ = recorded
        sink = Tracer()
        replay(tracer.events, network=COMMODITY_CLUSTER,
               trace_sink=sink.record)
        measurements = profile(sink, regions=LOOPS)
        analysis = analyze(measurements)
        assert analysis.breakdown.heaviest_region in LOOPS


class TestReplayValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            replay([])

    def test_deterministic(self, recorded):
        _, tracer, _ = recorded
        first = replay(tracer.events, network=SP2)
        second = replay(tracer.events, network=SP2)
        assert first.clocks == second.clocks

    def test_pure_compute_trace(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 1.0)
        tracer.record(1, "r", "computation", 0.0, 2.0)
        result = replay(tracer.events, network=SP2)
        assert result.elapsed == pytest.approx(2.0)
        assert result.messages == 0
