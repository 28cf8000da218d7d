"""A checkpointing workload: the I/O activity as a fifth dimension.

The paper's §2 lists I/O operations among a program's activities but
its example measures only four.  This workload exercises the fifth:
ranks compute, and every ``checkpoint_every`` steps they dump their
state to a shared parallel file system.

The file system model is deliberately simple and app-level: the
aggregate bandwidth is shared, so a full-machine checkpoint costs
``bytes_per_rank * P / aggregate_bandwidth`` per rank; rank 0
additionally serializes the metadata (the classic "rank 0 writes the
header" pattern), making the checkpoint region I/O-imbalanced — which
the methodology localizes under the ``i/o`` activity, exactly as it
does for the paper's four.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import WorkloadError
from ..simmpi import NetworkModel
from .simulate import traced_run

#: Region names of the checkpoint workload.
CHECKPOINT_REGIONS = ("solve", "checkpoint")


@dataclass(frozen=True)
class CheckpointConfig:
    """Parameters of the checkpointing workload."""

    steps: int = 8
    checkpoint_every: int = 2
    compute: float = 3e-3                 # per-step per-rank computation
    bytes_per_rank: int = 4 << 20         # checkpoint volume per rank
    aggregate_bandwidth: float = 400e6    # shared file system, bytes/s
    metadata_time: float = 2e-3           # rank 0's serialized header
    jitter: float = 0.03
    seed: int = 7

    def __post_init__(self) -> None:
        if self.steps < 1 or self.checkpoint_every < 1:
            raise WorkloadError("steps and checkpoint_every must be "
                                "positive")
        if self.compute <= 0.0:
            raise WorkloadError("compute must be positive")
        if self.bytes_per_rank < 0:
            raise WorkloadError("bytes_per_rank must be non-negative")
        if self.aggregate_bandwidth <= 0.0:
            raise WorkloadError("aggregate_bandwidth must be positive")
        if self.metadata_time < 0.0:
            raise WorkloadError("metadata_time must be non-negative")
        if self.jitter < 0.0:
            raise WorkloadError("jitter must be non-negative")


def checkpoint_program(comm, config: CheckpointConfig):
    """The rank program: solve steps with periodic checkpoints."""
    # All ranks write concurrently into the shared aggregate bandwidth.
    write_time = (config.bytes_per_rank * comm.size /
                  config.aggregate_bandwidth)
    for step in range(1, config.steps + 1):
        with comm.region("solve"):
            rng = np.random.default_rng((config.seed, comm.rank, step))
            factor = 1.0 + config.jitter * float(rng.uniform(-1.0, 1.0))
            yield from comm.compute(config.compute * factor)
        if step % config.checkpoint_every == 0:
            with comm.region("checkpoint"):
                # Quiesce, then write; rank 0 serializes the metadata.
                yield from comm.barrier()
                if comm.rank == 0:
                    yield from comm.io(config.metadata_time)
                    yield from comm.bcast(0, 1024)
                else:
                    yield from comm.bcast(0, 1024)
                yield from comm.io(write_time)


def run_checkpoint(config: Optional[CheckpointConfig] = None,
                   n_ranks: int = 16,
                   network: Optional[NetworkModel] = None):
    """Run the checkpointing workload and profile it.

    Returns ``(result, tracer, measurements)``; the measurement set has
    five activities (the paper's four plus ``i/o``).
    """
    configuration = config if config is not None else CheckpointConfig()
    return traced_run(checkpoint_program, configuration, n_ranks=n_ranks,
                      regions=CHECKPOINT_REGIONS, network=network)
