"""A message-passing computational fluid dynamics workload.

The paper's application example is a CFD production code on 16
processors of an IBM SP2, with seven instrumented main loops whose
activity mix Table 1 reports.  The original code is unavailable, so this
module implements a CFD-style solver with the same *structure* — seven
loops per time step, each with the paper's activity signature:

======  ======================  =========================================
loop    role                    activities (as in Table 1)
======  ======================  =========================================
loop 1  flux / residual core    computation + collective + synchronization
loop 2  implicit smoother       computation + collective
loop 3  halo exchange           computation + point-to-point (longest p2p)
loop 4  advection               computation + point-to-point
loop 5  pressure correction     all four
loop 6  boundary conditions     computation + point-to-point + synch (tiny)
loop 7  diagnostics             computation + collective (tiny)
======  ======================  =========================================

The domain is a 2-d grid, row-block partitioned; computation time is
proportional to local cells; communication volumes derive from interface
sizes and field counts.  Load imbalance enters through three controlled
channels — a skewed decomposition, a per-loop injector (by default a
block of hot ranks in loop 4 and hot boundary ranks in loop 6) and small
deterministic jitter — and through the barrier/collective waiting the
skew induces, which is exactly the signal the methodology analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from ..simmpi import NetworkModel
from .decomposition import weighted_partition
from .imbalance import BALANCED, Block, Injector, LinearGradient
from .simulate import traced_run

#: The seven loop names, matching the paper's numbering.
LOOPS: Tuple[str, ...] = tuple(f"loop {i}" for i in range(1, 8))


def _default_loop_imbalance() -> Dict[str, Injector]:
    return {
        "loop 1": Block(ranks=(1,), factor_value=1.65),
        "loop 4": Block(ranks=(3, 4, 5, 6, 7, 8), factor_value=1.25),
        "loop 6": Block(ranks=(12, 13, 14, 15), factor_value=3.0),
    }


@dataclass(frozen=True)
class CFDConfig:
    """Parameters of the CFD workload.

    The defaults target the paper's scenario: 16 ranks, loop 1 the
    heaviest region (roughly a quarter of the run), computation the
    dominant activity, loop 3 the point-to-point-heaviest loop, and
    synchronization present in exactly three loops.
    """

    grid: Tuple[int, int] = (256, 256)     # (rows, columns)
    steps: int = 4
    time_per_cell: float = 1.2e-6          # seconds per cell per sweep
    bytes_per_cell: int = 8
    fields: int = 8                        # variables exchanged in halos
    halo_depth: int = 2
    halo_sweeps: int = 4                   # exchanges per loop-3 pass
    reduction_bytes: int = 96 * 1024       # loop-1/2 collective payload
    #: Sweep counts: relative computational weight of each loop.
    sweeps: Dict[str, float] = field(default_factory=lambda: {
        "loop 1": 2.7, "loop 2": 2.0, "loop 3": 1.3, "loop 4": 2.0,
        "loop 5": 1.9, "loop 6": 0.09, "loop 7": 0.07,
    })
    #: Mild skew of the row decomposition across ranks.
    decomposition_skew: Injector = LinearGradient(amplitude=0.04)
    #: Extra per-loop computational imbalance.
    loop_imbalance: Dict[str, Injector] = field(
        default_factory=_default_loop_imbalance)
    #: Deterministic per-(rank, step, loop) noise amplitude.
    jitter: float = 0.02
    seed: int = 2003

    def __post_init__(self) -> None:
        rows, cols = self.grid
        if rows < 1 or cols < 1:
            raise WorkloadError("grid dimensions must be positive")
        if self.steps < 1:
            raise WorkloadError("steps must be positive")
        if self.time_per_cell <= 0.0:
            raise WorkloadError("time_per_cell must be positive")
        if set(self.sweeps) != set(LOOPS):
            raise WorkloadError(f"sweeps must cover exactly {LOOPS}")
        unknown = set(self.loop_imbalance) - set(LOOPS)
        if unknown:
            raise WorkloadError(f"unknown loops in loop_imbalance: {unknown}")


def _jitter(config: CFDConfig, rank: int, step: int, loop: int) -> float:
    if config.jitter <= 0.0:
        return 1.0
    rng = np.random.default_rng((config.seed, rank, step, loop))
    return 1.0 + config.jitter * float(rng.uniform(-1.0, 1.0))


def cfd_program(comm, config: CFDConfig):
    """The rank program: seven loops per time step (a generator)."""
    rows, cols = config.grid
    weights = config.decomposition_skew.factors(comm.size)
    local_rows = weighted_partition(rows, list(weights))[comm.rank]
    cells = local_rows * cols
    halo_bytes = (config.halo_depth * cols * config.bytes_per_cell *
                  config.fields)
    up = comm.rank - 1 if comm.rank > 0 else None
    down = comm.rank + 1 if comm.rank < comm.size - 1 else None

    def work(loop_name: str, step: int) -> float:
        loop_number = LOOPS.index(loop_name)
        injector = config.loop_imbalance.get(loop_name, BALANCED)
        return (cells * config.time_per_cell * config.sweeps[loop_name] *
                injector.factor(comm.rank, comm.size) *
                _jitter(config, comm.rank, step, loop_number))

    def halo_exchange(nbytes: int):
        requests = []
        if up is not None:
            requests.append((yield from comm.irecv(up, 11)))
        if down is not None:
            requests.append((yield from comm.irecv(down, 12)))
        if up is not None:
            yield from comm.send(up, nbytes, 12)
        if down is not None:
            yield from comm.send(down, nbytes, 11)
        yield from comm.waitall(requests)

    for step in range(config.steps):
        # loop 1 — flux/residual core: heavy computation, a large
        # allreduce for the residual norm, then a barrier.
        with comm.region("loop 1"):
            yield from comm.compute(work("loop 1", step))
            yield from comm.allreduce(config.reduction_bytes)
            # A short post-reduction update desynchronizes the ranks
            # again, so the barrier wait exposes the skew.
            yield from comm.compute(work("loop 1", step) * 0.02)
            yield from comm.barrier()

        # loop 2 — implicit smoother: computation plus a reduce+bcast
        # sweep of the smoothing coefficients.
        with comm.region("loop 2"):
            yield from comm.compute(work("loop 2", step))
            yield from comm.reduce(0, config.reduction_bytes // 2)
            yield from comm.bcast(0, config.reduction_bytes // 2)

        # loop 3 — halo exchange: the point-to-point-dominated loop.
        with comm.region("loop 3"):
            for _ in range(config.halo_sweeps):
                yield from comm.compute(work("loop 3", step) /
                                        config.halo_sweeps)
                yield from halo_exchange(halo_bytes)

        # loop 4 — advection: imbalanced computation (a block of hot
        # ranks) plus a moderate upwind halo.
        with comm.region("loop 4"):
            yield from comm.compute(work("loop 4", step))
            yield from halo_exchange(halo_bytes // 2)

        # loop 5 — pressure correction: all four activities (small p2p,
        # a medium collective, a barrier).
        with comm.region("loop 5"):
            yield from comm.compute(work("loop 5", step))
            yield from comm.allreduce(config.reduction_bytes // 8)
            # Cyclic pipeline stage after the reduction: a periodic ring
            # exchange of corrected values; every rank has two partners
            # and arrivals are aligned, so the p2p times stay balanced.
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield from comm.sendrecv(right, halo_bytes, left)
            yield from comm.compute(work("loop 5", step) * 0.01)
            yield from comm.barrier()

        # loop 6 — boundary conditions: tiny but skewed (physical
        # boundaries live on a few ranks), with a barrier.
        with comm.region("loop 6"):
            yield from comm.compute(work("loop 6", step))
            yield from halo_exchange(halo_bytes // 8)
            yield from comm.barrier()

        # loop 7 — diagnostics: tiny computation and a small reduce.
        with comm.region("loop 7"):
            yield from comm.compute(work("loop 7", step))
            yield from comm.allreduce(2048)


def run_cfd(config: Optional[CFDConfig] = None, n_ranks: int = 16,
            network: Optional[NetworkModel] = None):
    """Run the CFD workload and profile it.

    Returns ``(result, tracer, measurements)``: the simulation outcome,
    the full trace and the aggregated ``t_ijp`` measurement set (loops
    ordered 1..7).
    """
    configuration = config if config is not None else CFDConfig()
    return traced_run(cfd_program, configuration, n_ranks=n_ranks,
                      regions=LOOPS, network=network)
