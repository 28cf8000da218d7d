"""A coupled multi-physics workload: inter-*group* load imbalance.

Coupled codes (fluid–structure interaction, ocean–atmosphere) partition
the machine into solver groups that iterate internally and exchange
interface data every step.  When the groups' per-step costs differ, one
group idles at the coupling point — an imbalance that lives *between*
programs rather than between neighbouring ranks, and that shows up in
the methodology as point-to-point/collective waiting concentrated in
one group within the ``couple`` region.

Structure per step:

* ``fluid solve``     — the fluid group: computation + group allreduce;
* ``structure solve`` — the structure group: computation + group
  allreduce (typically cheaper: fewer cells);
* ``couple``          — the group leaders exchange interface data,
  then broadcast it within their groups;
* a global barrier closes the step.

``imbalance_ratio`` sets how much slower the fluid side is per step; at
1.0 the coupling is free, above it the structure group's ``couple``
time grows linearly — which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import WorkloadError
from ..simmpi import NetworkModel
from .simulate import traced_run

#: Region names of the coupled workload.
COUPLED_REGIONS = ("fluid solve", "structure solve", "couple")


@dataclass(frozen=True)
class CoupledConfig:
    """Parameters of the coupled fluid–structure workload."""

    steps: int = 4
    fluid_fraction: float = 0.5       # share of ranks in the fluid group
    base_compute: float = 4e-3        # structure per-step compute
    imbalance_ratio: float = 1.6      # fluid cost / structure cost
    interface_bytes: int = 64 * 1024
    reduction_bytes: int = 8 * 1024

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise WorkloadError("steps must be positive")
        if not 0.0 < self.fluid_fraction < 1.0:
            raise WorkloadError("fluid_fraction must lie in (0, 1)")
        if self.base_compute <= 0.0:
            raise WorkloadError("base_compute must be positive")
        if self.imbalance_ratio <= 0.0:
            raise WorkloadError("imbalance_ratio must be positive")
        if self.interface_bytes < 0 or self.reduction_bytes < 0:
            raise WorkloadError("byte counts must be non-negative")


def coupled_program(comm, config: CoupledConfig):
    """The rank program: two solver groups coupled once per step."""
    if comm.size < 2:
        raise WorkloadError("the coupled workload needs at least 2 ranks")
    fluid_ranks = max(1, min(comm.size - 1,
                             int(round(comm.size * config.fluid_fraction))))

    def side_of(rank: int) -> str:
        return "fluid" if rank < fluid_ranks else "structure"

    group = comm.split(side_of)
    is_fluid = side_of(comm.rank) == "fluid"
    my_leader = 0 if is_fluid else fluid_ranks          # global ranks
    peer_leader = fluid_ranks if is_fluid else 0
    region = "fluid solve" if is_fluid else "structure solve"
    cost = config.base_compute * (config.imbalance_ratio if is_fluid
                                  else 1.0)

    for _ in range(config.steps):
        with comm.region(region):
            yield from comm.compute(cost)
            yield from group.allreduce(config.reduction_bytes)

        with comm.region("couple"):
            if comm.rank == my_leader:
                # Leaders swap the interface fields.
                yield from comm.sendrecv(peer_leader,
                                         config.interface_bytes,
                                         peer_leader)
            # Everyone receives the updated interface from its leader.
            yield from group.bcast(0, config.interface_bytes)
            yield from comm.barrier()


def run_coupled(config: Optional[CoupledConfig] = None, n_ranks: int = 16,
                network: Optional[NetworkModel] = None):
    """Run the coupled workload and profile it.

    Returns ``(result, tracer, measurements)``.
    """
    configuration = config if config is not None else CoupledConfig()
    return traced_run(coupled_program, configuration, n_ranks=n_ranks,
                      regions=COUPLED_REGIONS, network=network)
