"""Unit tests for the counting-parameter profiles."""

import numpy as np
import pytest

from repro.core import analyze
from repro.errors import TraceError
from repro.instrument import Tracer, count_profile


def make_tracer():
    tracer = Tracer()
    # rank 0 sends twice in r1 (1000 + 500 bytes) and computes.
    tracer.record(0, "r1", "computation", 0.0, 1.0)
    tracer.record(0, "r1", "point-to-point", 1.0, 1.1, kind="send",
                  nbytes=1000, partner=1)
    tracer.record(0, "r1", "point-to-point", 1.1, 1.2, kind="send",
                  nbytes=500, partner=1)
    # rank 1 receives them (receives must not double-count messages).
    tracer.record(1, "r1", "point-to-point", 0.0, 1.2, kind="recv",
                  nbytes=1000, partner=0)
    tracer.record(1, "r1", "point-to-point", 1.2, 1.3, kind="recv",
                  nbytes=500, partner=0)
    # rank 1 sends one collective-internal message in r2.
    tracer.record(1, "r2", "collective", 1.3, 1.4, kind="send",
                  nbytes=2048, partner=0)
    tracer.record(0, "r2", "collective", 1.2, 1.5, kind="recv",
                  nbytes=2048, partner=1)
    return tracer


class TestCountProfile:
    def test_message_counts(self):
        ms = count_profile(make_tracer(), "messages")
        j = ms.activity_index("point-to-point")
        np.testing.assert_allclose(ms.times[0, j, :], [2.0, 0.0])
        k = ms.activity_index("collective")
        np.testing.assert_allclose(ms.times[1, k, :], [0.0, 1.0])

    def test_bytes_counts(self):
        ms = count_profile(make_tracer(), "bytes")
        j = ms.activity_index("point-to-point")
        np.testing.assert_allclose(ms.times[0, j, :], [1500.0, 0.0])

    def test_event_counts_include_everything(self):
        ms = count_profile(make_tracer(), "events")
        assert ms.times.sum() == 7.0
        i = ms.activity_index("computation")
        assert ms.times[0, i, 0] == 1.0

    def test_sum_aggregation(self):
        ms = count_profile(make_tracer(), "messages")
        assert ms.aggregation == "sum"
        j = ms.activity_index("point-to-point")
        assert ms.region_activity_times[0, j] == 2.0

    def test_views_apply_to_counters(self):
        from repro.core import dispersion_matrix
        ms = count_profile(make_tracer(), "messages")
        matrix = dispersion_matrix(ms)
        j = ms.activity_index("point-to-point")
        # All messages from rank 0: standardized (1, 0), maximally
        # concentrated for P = 2 -> euclidean sqrt(0.5).
        assert matrix[0, j] == pytest.approx(np.sqrt(0.5))

    def test_unknown_counter_rejected(self):
        with pytest.raises(TraceError):
            count_profile(make_tracer(), "flops")

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            count_profile(Tracer())

    def test_nothing_to_count_rejected(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 1.0)   # no sends
        with pytest.raises(TraceError):
            count_profile(tracer, "messages")

    def test_region_restriction(self):
        ms = count_profile(make_tracer(), "messages", regions=("r1",))
        assert ms.regions == ("r1",)

    def test_cfd_byte_counters(self, cfd_run):
        """On the CFD run the byte counters expose the halo structure:
        interior ranks send more halo bytes than the edge ranks."""
        _, tracer, _ = cfd_run
        ms = count_profile(tracer, "bytes", regions=("loop 3",))
        j = ms.activity_index("point-to-point")
        bytes_sent = ms.times[0, j, :]
        assert bytes_sent[0] < bytes_sent[1]
        assert bytes_sent[-1] < bytes_sent[-2]
        # Over every region, the methodology sees the same halo skew.
        everything = count_profile(tracer, "bytes")
        matrix = analyze(everything, cluster_count=None).activity_view \
            .dispersion
        assert matrix[everything.region_index("loop 3"),
                      everything.activity_index("point-to-point")] > 0.01
