"""A wavefront (pipeline) workload: imbalance from dependencies.

The paper's introduction lists *dependencies* alongside uneven work
distributions as a source of inefficiency.  This workload isolates
that mechanism, in the style of wavefront sweeps (Sweep3D): each rank
can only start a block after receiving its upstream neighbour's result,
so even with perfectly even work the pipeline fill and drain force
ranks to idle — downstream ranks wait during the forward sweep,
upstream ranks during the backward sweep.

The methodology sees that idling as point-to-point time with a strong
linear pattern across ranks (the dissimilarity grows with the pipeline
depth), distinguishing it from work imbalance: the computation times
stay flat while the p2p dispersion is large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import WorkloadError
from ..simmpi import NetworkModel
from .simulate import traced_run

#: Region names of the pipeline workload.
PIPELINE_REGIONS = ("sweep forward", "sweep backward", "norm")


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the wavefront workload."""

    sweeps: int = 3                  # forward+backward sweep pairs
    blocks: int = 4                  # pipeline blocks per rank per sweep
    block_compute: float = 2e-3      # seconds per block
    block_bytes: int = 32 * 1024     # interface transferred downstream
    norm_bytes: int = 1024           # per-sweep residual allreduce

    def __post_init__(self) -> None:
        if self.sweeps < 1 or self.blocks < 1:
            raise WorkloadError("sweeps and blocks must be positive")
        if self.block_compute <= 0.0:
            raise WorkloadError("block_compute must be positive")
        if self.block_bytes < 0 or self.norm_bytes < 0:
            raise WorkloadError("byte counts must be non-negative")


def pipeline_program(comm, config: PipelineConfig):
    """The rank program: alternating forward and backward sweeps."""
    first, last = 0, comm.size - 1

    def sweep(region: str, upstream, downstream):
        with comm.region(region):
            for _ in range(config.blocks):
                if upstream is not None:
                    yield from comm.recv(upstream, tag=1)
                yield from comm.compute(config.block_compute)
                if downstream is not None:
                    yield from comm.send(downstream, config.block_bytes,
                                         tag=1)

    for _ in range(config.sweeps):
        yield from sweep("sweep forward",
                         comm.rank - 1 if comm.rank > first else None,
                         comm.rank + 1 if comm.rank < last else None)
        yield from sweep("sweep backward",
                         comm.rank + 1 if comm.rank < last else None,
                         comm.rank - 1 if comm.rank > first else None)
        with comm.region("norm"):
            yield from comm.allreduce(config.norm_bytes)


def run_pipeline(config: Optional[PipelineConfig] = None, n_ranks: int = 16,
                 network: Optional[NetworkModel] = None):
    """Run the wavefront workload and profile it.

    Returns ``(result, tracer, measurements)``.
    """
    configuration = config if config is not None else PipelineConfig()
    return traced_run(pipeline_program, configuration, n_ranks=n_ranks,
                      regions=PIPELINE_REGIONS, network=network)
