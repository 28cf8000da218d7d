"""Imbalance injectors: controlled, deterministic work-distribution skew.

The paper's methodology detects uneven work distributions; the workloads
need a way to *produce* them on demand.  An :class:`Injector` maps
``(rank, size)`` to a multiplicative work factor.  Injectors compose by
multiplication and every one is deterministic (randomized injectors are
seeded), so simulated experiments are exactly repeatable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from ..core.dispersion import euclidean_distance
from ..errors import WorkloadError


@dataclass(frozen=True)
class Injector:
    """Base injector: perfectly balanced (factor 1 everywhere)."""

    def factor(self, rank: int, size: int) -> float:
        """Work multiplier of ``rank`` among ``size`` ranks."""
        self._check(rank, size)
        return 1.0

    @staticmethod
    def _check(rank: int, size: int) -> None:
        if size < 1 or not 0 <= rank < size:
            raise WorkloadError(f"invalid rank {rank} of size {size}")

    def factors(self, size: int) -> np.ndarray:
        """Vector of factors for every rank."""
        return np.array([self.factor(rank, size) for rank in range(size)])

    def __mul__(self, other: "Injector") -> "Injector":
        if not isinstance(other, Injector):
            return NotImplemented
        return _Composed(parts=(self, other))


@dataclass(frozen=True)
class _Composed(Injector):
    parts: Tuple[Injector, ...] = ()

    def factor(self, rank: int, size: int) -> float:
        self._check(rank, size)
        value = 1.0
        for part in self.parts:
            value *= part.factor(rank, size)
        return value


#: The balanced injector.
BALANCED = Injector()


@dataclass(frozen=True)
class Straggler(Injector):
    """One rank does ``factor_value`` times the work of the others."""

    rank: int = 0
    factor_value: float = 1.5

    def __post_init__(self) -> None:
        if self.factor_value <= 0.0:
            raise WorkloadError("factor must be positive")
        if self.rank < 0:
            raise WorkloadError("rank must be non-negative")

    def factor(self, rank: int, size: int) -> float:
        self._check(rank, size)
        return self.factor_value if rank == self.rank else 1.0


@dataclass(frozen=True)
class Block(Injector):
    """A contiguous block of ranks carries extra (or reduced) work."""

    ranks: Tuple[int, ...] = ()
    factor_value: float = 1.25

    def __post_init__(self) -> None:
        if self.factor_value <= 0.0:
            raise WorkloadError("factor must be positive")
        if any(rank < 0 for rank in self.ranks):
            raise WorkloadError("ranks must be non-negative")

    def factor(self, rank: int, size: int) -> float:
        self._check(rank, size)
        return self.factor_value if rank in self.ranks else 1.0


@dataclass(frozen=True)
class LinearGradient(Injector):
    """Work grows linearly across ranks: rank 0 gets ``1 - amplitude``,
    the last rank ``1 + amplitude``."""

    amplitude: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise WorkloadError("amplitude must lie in [0, 1)")

    def factor(self, rank: int, size: int) -> float:
        self._check(rank, size)
        if size == 1:
            return 1.0
        position = 2.0 * rank / (size - 1) - 1.0       # -1 .. +1
        return 1.0 + self.amplitude * position


@dataclass(frozen=True)
class RandomJitter(Injector):
    """Deterministic pseudo-random factors ``1 ± amplitude`` (uniform),
    seeded so every run sees the same skew."""

    amplitude: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise WorkloadError("amplitude must lie in [0, 1)")

    def factor(self, rank: int, size: int) -> float:
        self._check(rank, size)
        rng = np.random.default_rng((self.seed, size, rank))
        return 1.0 + self.amplitude * float(rng.uniform(-1.0, 1.0))


@dataclass(frozen=True)
class Explicit(Injector):
    """Factors given directly, one per rank."""

    values: Tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not self.values:
            raise WorkloadError("values must be non-empty")
        if any(value <= 0.0 for value in self.values):
            raise WorkloadError("factors must be positive")

    def factor(self, rank: int, size: int) -> float:
        self._check(rank, size)
        if size != len(self.values):
            raise WorkloadError(
                f"injector has {len(self.values)} factors but the "
                f"simulation has {size} ranks")
        return self.values[rank]


def imbalance_of(injector: Injector, size: int) -> float:
    """Classic percent-imbalance of an injector's factors:
    ``max/mean - 1``."""
    factors = injector.factors(size)
    return float(factors.max() / factors.mean() - 1.0)


def predicted_dispersion(injector: Injector, size: int) -> float:
    """The Euclidean index a pure-compute region under this injector
    *should* show: the dispersion of the standardized factor vector.

    Because computation time is proportional to the injected factor,
    the standardized per-processor times equal the standardized factors
    — so this closes the loop between the injectors and the analysis
    (the property tests assert measured ~= predicted on jitter-free
    synthetic runs).
    """
    factors = injector.factors(size)
    total = factors.sum()
    if total <= 0.0:
        raise WorkloadError("factors must have a positive sum")
    return euclidean_distance(factors / total)
