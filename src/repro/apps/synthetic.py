"""Synthetic parallel workloads with a fully controlled activity mix.

Where the CFD app models a real solver, the synthetic workload is a
test instrument: every region declares its computational weight, its
communication pattern and its imbalance injector, so experiments can
sweep a single factor (imbalance amplitude, processor count, region
count) while holding everything else fixed.  The scaling and ablation
benchmarks are built on it.
"""

from __future__ import annotations

import zlib

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from ..simmpi import NetworkModel
from .imbalance import BALANCED, Injector
from .simulate import traced_run

#: Communication patterns a synthetic region can use.
PATTERNS = ("none", "neighbour", "allreduce", "alltoall", "barrier",
            "reduce", "bcast", "allgather")


@dataclass(frozen=True)
class RegionSpec:
    """One synthetic code region.

    ``compute`` is the balanced per-rank computation time in seconds;
    ``injector`` skews it.  ``pattern`` and ``nbytes`` define the
    communication that follows; ``sync`` appends a barrier.
    """

    name: str
    compute: float = 1e-3
    injector: Injector = BALANCED
    pattern: str = "none"
    nbytes: int = 0
    sync: bool = False
    repetitions: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("region name must be non-empty")
        if self.compute < 0.0:
            raise WorkloadError("compute must be non-negative")
        if self.pattern not in PATTERNS:
            raise WorkloadError(
                f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if self.nbytes < 0:
            raise WorkloadError("nbytes must be non-negative")
        if self.repetitions < 1:
            raise WorkloadError("repetitions must be at least 1")


@dataclass(frozen=True)
class SyntheticWorkload:
    """A program made of a sequence of synthetic regions."""

    regions: Tuple[RegionSpec, ...]
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.regions:
            raise WorkloadError("need at least one region")
        names = [spec.name for spec in self.regions]
        if len(set(names)) != len(names):
            raise WorkloadError("region names must be unique")
        if self.jitter < 0.0:
            raise WorkloadError("jitter must be non-negative")

    def _compute_time(self, spec: RegionSpec, rank: int, size: int,
                      repetition: int) -> float:
        value = spec.compute * spec.injector.factor(rank, size)
        if self.jitter > 0.0:
            name_hash = zlib.crc32(spec.name.encode("utf-8"))
            rng = np.random.default_rng(
                (self.seed, rank, name_hash, repetition))
            value *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return value

    def program(self, comm):
        """The rank program (a generator) executing every region."""
        for spec in self.regions:
            with comm.region(spec.name):
                for repetition in range(spec.repetitions):
                    yield from comm.compute(
                        self._compute_time(spec, comm.rank, comm.size,
                                           repetition))
                    yield from self._communicate(comm, spec)
                    if spec.sync:
                        yield from comm.barrier()

    def _communicate(self, comm, spec: RegionSpec):
        if spec.pattern == "none":
            return
        if spec.pattern == "neighbour":
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            if comm.size > 1:
                yield from comm.sendrecv(right, spec.nbytes, left)
        elif spec.pattern == "allreduce":
            yield from comm.allreduce(spec.nbytes)
        elif spec.pattern == "alltoall":
            yield from comm.alltoall(spec.nbytes)
        elif spec.pattern == "barrier":
            yield from comm.barrier()
        elif spec.pattern == "reduce":
            yield from comm.reduce(0, spec.nbytes)
        elif spec.pattern == "bcast":
            yield from comm.bcast(0, spec.nbytes)
        elif spec.pattern == "allgather":
            yield from comm.allgather(spec.nbytes)

    def run(self, n_ranks: int, network: Optional[NetworkModel] = None):
        """Simulate on ``n_ranks`` and profile.

        Returns ``(result, tracer, measurements)``.
        """
        return traced_run(self.program, n_ranks=n_ranks, network=network,
                          regions=tuple(spec.name for spec in self.regions))


def imbalance_sweep_workload(injector: Injector,
                             compute: float = 2e-3,
                             nbytes: int = 16 * 1024) -> SyntheticWorkload:
    """A canonical three-region workload for imbalance sweeps: a skewed
    compute+barrier region between two balanced communicating regions."""
    return SyntheticWorkload(regions=(
        RegionSpec(name="setup", compute=compute / 2,
                   pattern="bcast", nbytes=nbytes),
        RegionSpec(name="kernel", compute=compute, injector=injector,
                   pattern="allreduce", nbytes=nbytes, sync=True),
        RegionSpec(name="teardown", compute=compute / 4,
                   pattern="reduce", nbytes=nbytes),
    ))
