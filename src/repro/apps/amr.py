"""An AMR-style workload: a refinement front travelling across ranks.

Adaptive mesh refinement concentrates work where the solution is
interesting — and the interesting part *moves*.  Each time step, ranks
near the front carry refined cells (``refine_factor`` times the work);
the front advances, so the hotspot visits every rank in turn.

This produces a signature that defeats whole-run analysis: averaged
over the run, every rank did similar work (the processor view sees a
mild, diffuse imbalance), while *each window* is strongly imbalanced
with a different winner.  The windowed profiles
(:func:`repro.instrument.window_profiles`) recover the moving hotspot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import WorkloadError
from ..simmpi import NetworkModel
from .simulate import traced_run

#: Region names of the AMR workload.
AMR_REGIONS = ("solve", "flux", "regrid")


@dataclass(frozen=True)
class AMRConfig:
    """Parameters of the AMR workload."""

    base_cells: int = 1500
    steps: int = 12
    time_per_cell: float = 2e-6
    refine_factor: float = 4.0       # work multiplier at the front
    front_width: int = 1             # ranks on each side still refined
    front_speed: float = 1.0         # ranks advanced per step
    flux_bytes: int = 16 * 1024
    regrid_bytes: int = 512

    def __post_init__(self) -> None:
        if self.base_cells < 1 or self.steps < 1:
            raise WorkloadError("base_cells and steps must be positive")
        if self.time_per_cell <= 0.0:
            raise WorkloadError("time_per_cell must be positive")
        if self.refine_factor < 1.0:
            raise WorkloadError("refine_factor must be >= 1")
        if self.front_width < 0:
            raise WorkloadError("front_width must be non-negative")
        if self.front_speed <= 0.0:
            raise WorkloadError("front_speed must be positive")

    def refinement(self, rank: int, size: int, step: int) -> float:
        """Work multiplier of ``rank`` at ``step``: peak at the front,
        linear falloff over ``front_width`` ranks, 1 elsewhere."""
        front = (step * self.front_speed) % size
        distance = min(abs(rank - front), size - abs(rank - front))
        if distance > self.front_width:
            return 1.0
        falloff = 1.0 - distance / (self.front_width + 1.0)
        return 1.0 + (self.refine_factor - 1.0) * falloff


def amr_program(comm, config: AMRConfig):
    """The rank program: solve (refined), flux exchange, regrid."""
    up = comm.rank - 1 if comm.rank > 0 else None
    down = comm.rank + 1 if comm.rank < comm.size - 1 else None
    for step in range(config.steps):
        with comm.region("solve"):
            multiplier = config.refinement(comm.rank, comm.size, step)
            yield from comm.compute(config.base_cells *
                                    config.time_per_cell * multiplier)
        with comm.region("flux"):
            requests = []
            if up is not None:
                requests.append((yield from comm.irecv(up, 31)))
            if down is not None:
                requests.append((yield from comm.irecv(down, 32)))
            if up is not None:
                yield from comm.send(up, config.flux_bytes, 32)
            if down is not None:
                yield from comm.send(down, config.flux_bytes, 31)
            yield from comm.waitall(requests)
        with comm.region("regrid"):
            yield from comm.allgather(config.regrid_bytes)


def run_amr(config: Optional[AMRConfig] = None, n_ranks: int = 16,
            network: Optional[NetworkModel] = None):
    """Run the AMR workload and profile it.

    Returns ``(result, tracer, measurements)``.
    """
    configuration = config if config is not None else AMRConfig()
    return traced_run(amr_program, configuration, n_ranks=n_ranks,
                      regions=AMR_REGIONS, network=network)
