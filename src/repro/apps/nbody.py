"""An N-body-style workload with *dynamic* load imbalance.

Particle codes develop imbalance over time: particles migrate across
the domain decomposition, so even a perfectly balanced start drifts.
This workload models that mechanism:

* each rank owns a particle count; per-step computation is proportional
  to it (direct-sum force evaluation within the local box plus a
  boundary exchange);
* every step, a fraction of each rank's particles drifts toward an
  attractor rank (gravitational clustering), carried by point-to-point
  messages;
* optionally, every ``rebalance_every`` steps the particles are
  repartitioned evenly with an all-to-all — the classic repair.

Combined with :func:`repro.instrument.window_profiles` and
:func:`repro.core.temporal.temporal_analysis`, the workload demonstrates
imbalance *drift* and its repair — behaviour a single post-mortem
profile averages away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import WorkloadError
from ..simmpi import NetworkModel
from .simulate import traced_run

#: Region names of the N-body workload.
NBODY_REGIONS = ("forces", "migrate", "rebalance", "diagnostics")


@dataclass(frozen=True)
class NBodyConfig:
    """Parameters of the N-body workload."""

    particles_per_rank: int = 2000
    steps: int = 8
    time_per_particle: float = 2e-6     # force evaluation per particle
    bytes_per_particle: int = 48        # position+velocity+mass
    drift_fraction: float = 0.10        # particles migrating per step
    attractor_rank: int = 0             # where the cluster forms
    rebalance_every: int = 0            # 0 = never rebalance

    def __post_init__(self) -> None:
        if self.particles_per_rank < 1:
            raise WorkloadError("particles_per_rank must be positive")
        if self.steps < 1:
            raise WorkloadError("steps must be positive")
        if self.time_per_particle <= 0.0:
            raise WorkloadError("time_per_particle must be positive")
        if not 0.0 <= self.drift_fraction < 1.0:
            raise WorkloadError("drift_fraction must lie in [0, 1)")
        if self.attractor_rank < 0:
            raise WorkloadError("attractor_rank must be non-negative")
        if self.rebalance_every < 0:
            raise WorkloadError("rebalance_every must be non-negative")


def _drift_counts(counts: List[int], attractor: int,
                  fraction: float) -> List[List[int]]:
    """Per-rank outgoing particle counts toward the attractor.

    Rank r sends ``fraction`` of its particles one hop along the ring
    toward the attractor (deterministic: floor).
    """
    size = len(counts)
    transfers = [[0] * size for _ in range(size)]
    for rank in range(size):
        if rank == attractor:
            continue
        moving = int(counts[rank] * fraction)
        if moving <= 0:
            continue
        forward = (rank + 1) % size
        backward = (rank - 1) % size
        distance_forward = (attractor - rank) % size
        distance_backward = (rank - attractor) % size
        target = forward if distance_forward <= distance_backward \
            else backward
        transfers[rank][target] = moving
    return transfers


def nbody_program(comm, config: NBodyConfig):
    """The rank program (a generator).

    Particle bookkeeping is mirrored deterministically on every rank
    (the same arithmetic, no data exchange needed for the counts
    themselves), exactly like a real code knows its neighbours' loads
    after each migration step.
    """
    counts = [config.particles_per_rank] * comm.size
    attractor = config.attractor_rank % comm.size

    for step in range(1, config.steps + 1):
        # Force evaluation: O(n_local) within the local box, then a
        # global reduction of the potential energy.
        with comm.region("forces"):
            yield from comm.compute(counts[comm.rank] *
                                    config.time_per_particle)
            yield from comm.allreduce(1024)

        # Migration: send drifting particles one hop toward the
        # attractor; receive whatever the neighbours push this way.
        transfers = _drift_counts(counts, attractor, config.drift_fraction)
        with comm.region("migrate"):
            outgoing = transfers[comm.rank]
            incoming_from = [source for source in range(comm.size)
                             if transfers[source][comm.rank] > 0]
            requests = []
            for source in incoming_from:
                request = yield from comm.irecv(source, tag=3)
                requests.append(request)
            for target, moving in enumerate(outgoing):
                if moving > 0:
                    yield from comm.send(
                        target, moving * config.bytes_per_particle, tag=3)
            yield from comm.waitall(requests)
        # Apply the transfers to the mirrored bookkeeping.
        new_counts = counts[:]
        for source in range(comm.size):
            for target, moving in enumerate(transfers[source]):
                new_counts[source] -= moving
                new_counts[target] += moving
        counts = new_counts

        # Optional repair: repartition evenly with an all-to-all.
        if config.rebalance_every and step % config.rebalance_every == 0:
            total = sum(counts)
            average_bytes = (total // comm.size) * config.bytes_per_particle
            with comm.region("rebalance"):
                yield from comm.alltoall(max(average_bytes // comm.size, 1))
            base, extra = divmod(total, comm.size)
            counts = [base + (1 if rank < extra else 0)
                      for rank in range(comm.size)]

        with comm.region("diagnostics"):
            yield from comm.compute(5e-5)
            yield from comm.reduce(0, 256)


def run_nbody(config: Optional[NBodyConfig] = None, n_ranks: int = 16,
              network: Optional[NetworkModel] = None):
    """Run the N-body workload and profile it.

    Returns ``(result, tracer, measurements)``; regions without events
    (e.g. ``rebalance`` when disabled) yield all-zero rows.
    """
    configuration = config if config is not None else NBodyConfig()
    return traced_run(nbody_program, configuration, n_ranks=n_ranks,
                      regions=NBODY_REGIONS, network=network)
