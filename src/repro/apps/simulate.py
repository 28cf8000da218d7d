"""The traced run every workload shares: simulate, record, profile."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..instrument import Tracer, profile
from ..simmpi import NetworkModel, Simulator


def traced_run(program: Callable, *args, n_ranks: int,
               regions: Sequence[str],
               network: Optional[NetworkModel] = None, fault_plan=None):
    """Run ``program(comm, *args)`` on ``n_ranks`` simulated ranks (over
    ``network``, under an optional :class:`~repro.faults.FaultPlan`),
    trace it and profile it with the workload's ``regions``.  Returns
    ``(result, tracer, measurements)``."""
    tracer = Tracer()
    simulator = Simulator(n_ranks, network=network, trace_sink=tracer.record,
                          fault_plan=fault_plan)
    result = simulator.run(program, *args)
    return result, tracer, profile(tracer, regions=regions)
