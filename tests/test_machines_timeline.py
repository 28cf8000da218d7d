"""Tests for the machine presets and the ASCII timeline view."""

import pytest

from repro.errors import SimulationError, TraceError
from repro.instrument import Tracer
from repro.simmpi import (MACHINES, SP2, Simulator, machine,
                          multi_frame_sp2)
from repro.viz import render_timeline


class TestMachines:
    def test_lookup(self):
        assert machine("sp2") is SP2

    def test_all_presets_valid(self):
        for name, model in MACHINES.items():
            assert model.transfer_time(1024, 0, 1) > 0.0, name

    def test_unknown_machine(self):
        with pytest.raises(SimulationError):
            machine("cray-t3d")

    def test_regimes_ordered(self):
        """Latency regimes: shm < fast < sp2 < commodity."""
        latencies = [machine(name).latency
                     for name in ("shm", "fast", "sp2", "commodity")]
        assert latencies == sorted(latencies)

    def test_cfd_shape_survives_every_machine(self):
        """The structural findings hold on every interconnect, while
        the communication share grows as the network slows."""
        from repro.apps import run_cfd
        from repro.core import analyze
        shares = []
        for name in ("shm", "fast", "sp2", "commodity"):
            analysis = analyze(run_cfd(network=MACHINES[name])[2])
            assert analysis.breakdown.heaviest_region == "loop 1", name
            assert analysis.region_view.most_imbalanced() == "loop 6", name
            activity = analysis.breakdown.activity_shares
            shares.append(sum(activity.get(kind, 0.0) for kind in (
                "point-to-point", "collective", "synchronization")))
        assert all(later >= earlier - 1e-9
                   for earlier, later in zip(shares, shares[1:]))

    def test_multi_frame_penalty(self):
        model = multi_frame_sp2(frame_size=4, inter_frame_penalty=3.0)
        intra = model.transfer_time(1000, 0, 3)
        inter = model.transfer_time(1000, 0, 4)
        assert inter == pytest.approx(3.0 * intra)

    def test_multi_frame_validation(self):
        with pytest.raises(SimulationError):
            multi_frame_sp2(frame_size=0)
        with pytest.raises(SimulationError):
            multi_frame_sp2(inter_frame_penalty=0.5)

    def test_multi_frame_shows_up_in_simulation(self):
        """Cross-frame ring exchanges take visibly longer."""
        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield from comm.sendrecv(right, 64 * 1024, left)

        uniform = Simulator(8, network=SP2).run(program)
        framed = Simulator(
            8, network=multi_frame_sp2(frame_size=4)).run(program)
        assert framed.elapsed > uniform.elapsed


class TestTimeline:
    def make_tracer(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 0.6)
        tracer.record(0, "r", "synchronization", 0.6, 1.0, kind="wait")
        tracer.record(1, "r", "computation", 0.0, 1.0)
        return tracer

    def test_basic_render(self):
        text = render_timeline(self.make_tracer(), width=20)
        lines = text.splitlines()
        assert lines[0].startswith("timeline:")
        assert lines[1].startswith("rank 0")
        assert lines[2].startswith("rank 1")
        assert "legend" in lines[-1]

    def test_activities_visible(self):
        text = render_timeline(self.make_tracer(), width=20)
        rank0 = [line for line in text.splitlines()
                 if line.startswith("rank 0")][0]
        assert "#" in rank0 and "|" in rank0
        rank1 = [line for line in text.splitlines()
                 if line.startswith("rank 1")][0]
        assert set(rank1.split()[-1]) == {"#"}

    def test_idle_shown(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 0.1)
        tracer.record(0, "r", "computation", 0.9, 1.0)
        text = render_timeline(tracer, width=20)
        row = text.splitlines()[1]
        assert "." in row

    def test_rank_subset(self):
        text = render_timeline(self.make_tracer(), width=20, ranks=[1])
        assert "rank 0" not in text
        assert "rank 1" in text

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            render_timeline(Tracer())

    def test_rejects_narrow(self):
        with pytest.raises(TraceError):
            render_timeline(self.make_tracer(), width=5)

    def test_cfd_timeline_has_all_activities(self, cfd_run):
        _, tracer, _ = cfd_run
        text = render_timeline(tracer, width=72, ranks=[0, 15])
        body = "".join(line.split(" ", 2)[-1]
                       for line in text.splitlines()[1:-1])
        assert "#" in body and "=" in body
