"""A 2-D stencil (Jacobi) workload on a Cartesian process grid.

Where the CFD app uses a 1-d row decomposition, this workload exercises
the 2-d machinery: ranks form the most-square
:class:`~repro.apps.decomposition.ProcessGrid`, own a tile of the
global grid, and exchange four-neighbour halos every iteration.

Its imbalance mechanism is *geometric*: interior ranks have four
neighbours, edge ranks three, corner ranks two — so communication load
varies with position even when computation is perfectly even.  With a
non-square rank count the tile partition adds computational unevenness
on top.  A convergence test (allreduce of the residual) closes each
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import WorkloadError
from ..simmpi import NetworkModel
from .decomposition import block_partition, square_grid
from .simulate import traced_run

#: Region names of the stencil workload.
STENCIL_REGIONS = ("halo", "sweep", "residual")


@dataclass(frozen=True)
class StencilConfig:
    """Parameters of the 2-d Jacobi workload."""

    grid: Tuple[int, int] = (512, 512)
    iterations: int = 5
    time_per_cell: float = 3e-7
    bytes_per_cell: int = 8
    halo_depth: int = 1
    residual_bytes: int = 256

    def __post_init__(self) -> None:
        rows, cols = self.grid
        if rows < 1 or cols < 1:
            raise WorkloadError("grid dimensions must be positive")
        if self.iterations < 1:
            raise WorkloadError("iterations must be positive")
        if self.time_per_cell <= 0.0:
            raise WorkloadError("time_per_cell must be positive")
        if self.halo_depth < 1:
            raise WorkloadError("halo_depth must be at least 1")


def stencil_program(comm, config: StencilConfig):
    """The rank program: halo exchange, sweep, residual per iteration."""
    process_grid = square_grid(comm.size)
    my_row, my_col = process_grid.coordinates(comm.rank)
    tile_rows = block_partition(config.grid[0], process_grid.rows)[my_row]
    tile_cols = block_partition(config.grid[1], process_grid.cols)[my_col]
    cells = tile_rows * tile_cols
    neighbours = process_grid.neighbours(comm.rank)

    def halo_bytes(neighbour: int) -> int:
        # Vertical neighbours exchange a row strip, horizontal ones a
        # column strip.
        neighbour_row, _ = process_grid.coordinates(neighbour)
        width = tile_cols if neighbour_row != my_row else tile_rows
        return width * config.halo_depth * config.bytes_per_cell

    for _ in range(config.iterations):
        with comm.region("halo"):
            requests = []
            for neighbour in neighbours:
                request = yield from comm.irecv(neighbour, tag=41)
                requests.append(request)
            for neighbour in neighbours:
                yield from comm.send(neighbour, halo_bytes(neighbour),
                                     tag=41)
            yield from comm.waitall(requests)
        with comm.region("sweep"):
            yield from comm.compute(cells * config.time_per_cell)
        with comm.region("residual"):
            yield from comm.allreduce(config.residual_bytes)


def run_stencil(config: Optional[StencilConfig] = None, n_ranks: int = 16,
                network: Optional[NetworkModel] = None):
    """Run the stencil workload and profile it.

    Returns ``(result, tracer, measurements)``.
    """
    configuration = config if config is not None else StencilConfig()
    return traced_run(stencil_program, configuration, n_ranks=n_ranks,
                      regions=STENCIL_REGIONS, network=network)
