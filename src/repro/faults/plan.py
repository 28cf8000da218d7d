"""Typed fault specifications and deterministic fault plans.

A :class:`FaultPlan` is a declarative list of faults to inject into a
simulation.  The engine consults the plan at well-defined points —
scaling compute bursts, delaying message deliveries, crashing ranks —
and the plan answers from *pure functions of its seed*, so a given
(program, network, plan) triple always produces the identical faulty
trace.  That determinism is what lets the blame-localization campaigns
assert exact localization results.

Fault types
-----------
* :class:`Straggler` — a rank computes slower by ``factor`` within a
  time window (persistent when the window is unbounded, transient
  otherwise).
* :class:`LinkDegradation` — the wire time of one (src, dst) link is
  multiplied by ``factor`` (optionally both directions).  Applied by
  composing the network model's ``link_scale`` via
  :meth:`FaultPlan.wrap_network`.
* :class:`MessageJitter` — message deliveries on matching links gain a
  deterministic pseudo-random extra delay of up to ``amplitude`` times
  the message's wire time.
* :class:`MessageDrop` — each delivery attempt on matching links is
  dropped with probability ``probability``; the engine retransmits
  under the plan's :class:`RetryPolicy` (exponential backoff) and a
  message dropped on every attempt raises
  :class:`~repro.errors.FaultError`.
* :class:`RankCrash` — the rank fails at ``at_time`` and recovers by a
  checkpoint restart: it re-reads its checkpoint (attributed to the
  ``i/o`` activity) and replays the work lost since the last checkpoint
  (attributed to ``computation``), exactly how a real
  checkpoint/restart run shows up in a post-mortem breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import FaultError
from ..simmpi.network import NetworkModel

#: Matches any rank in a link pattern.
ANY_RANK = -1


def _check_rank(rank: int, what: str, allow_any: bool = False) -> None:
    if allow_any and rank == ANY_RANK:
        return
    if rank < 0:
        raise FaultError(f"{what} must be a non-negative rank "
                         f"(or ANY_RANK), got {rank}")


@dataclass(frozen=True)
class Straggler:
    """Rank ``rank`` computes ``factor`` times slower in [start, end)."""

    rank: int
    factor: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_rank(self.rank, "straggler rank")
        if not self.factor >= 1.0:
            raise FaultError(
                f"straggler factor must be >= 1, got {self.factor}")
        if self.start < 0.0 or self.end <= self.start:
            raise FaultError("straggler window must satisfy "
                             "0 <= start < end")

    @property
    def transient(self) -> bool:
        """Whether the slowdown is limited to a finite window."""
        return math.isfinite(self.end)


@dataclass(frozen=True)
class LinkDegradation:
    """Wire time on the (src, dst) link is multiplied by ``factor``."""

    src: int
    dst: int
    factor: float
    symmetric: bool = True

    def __post_init__(self) -> None:
        _check_rank(self.src, "link src")
        _check_rank(self.dst, "link dst")
        if not self.factor >= 1.0:
            raise FaultError(
                f"link degradation factor must be >= 1, got {self.factor}")
        if self.src == self.dst:
            raise FaultError("a link joins two distinct ranks")

    def matches(self, src: int, dst: int) -> bool:
        if (src, dst) == (self.src, self.dst):
            return True
        return self.symmetric and (dst, src) == (self.src, self.dst)


def _link_matches(spec_src: int, spec_dst: int, src: int, dst: int,
                  symmetric: bool) -> bool:
    def one_way(a: int, b: int) -> bool:
        return (spec_src in (ANY_RANK, a)) and (spec_dst in (ANY_RANK, b))
    return one_way(src, dst) or (symmetric and one_way(dst, src))


@dataclass(frozen=True)
class MessageJitter:
    """Delivery delay of up to ``amplitude`` x wire time per message."""

    amplitude: float
    src: int = ANY_RANK
    dst: int = ANY_RANK

    def __post_init__(self) -> None:
        if self.amplitude < 0.0:
            raise FaultError("jitter amplitude must be non-negative")
        _check_rank(self.src, "jitter src", allow_any=True)
        _check_rank(self.dst, "jitter dst", allow_any=True)

    def matches(self, src: int, dst: int) -> bool:
        return _link_matches(self.src, self.dst, src, dst, symmetric=False)


@dataclass(frozen=True)
class MessageDrop:
    """Each delivery attempt on the link drops with ``probability``."""

    probability: float
    src: int = ANY_RANK
    dst: int = ANY_RANK
    symmetric: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise FaultError(
                f"drop probability must lie in [0, 1), got "
                f"{self.probability}")
        _check_rank(self.src, "drop src", allow_any=True)
        _check_rank(self.dst, "drop dst", allow_any=True)

    def matches(self, src: int, dst: int) -> bool:
        return _link_matches(self.src, self.dst, src, dst, self.symmetric)


@dataclass(frozen=True)
class RankCrash:
    """Rank ``rank`` crashes at ``at_time`` and restarts from its last
    checkpoint.

    Recovery costs two intervals, attributed like a real restart:

    * ``restart_time`` seconds re-reading the checkpoint (``i/o``);
    * the work lost since the last multiple of ``checkpoint_interval``,
      replayed at ``replay_factor`` x its original cost
      (``computation``).

    The crash fires during the first compute burst that reaches
    ``at_time`` (a rank that never computes again cannot observe it).
    """

    rank: int
    at_time: float
    checkpoint_interval: float
    restart_time: float
    replay_factor: float = 1.0

    def __post_init__(self) -> None:
        _check_rank(self.rank, "crash rank")
        if self.at_time < 0.0:
            raise FaultError("crash time must be non-negative")
        if self.checkpoint_interval <= 0.0:
            raise FaultError("checkpoint_interval must be positive")
        if self.restart_time < 0.0:
            raise FaultError("restart_time must be non-negative")
        if self.replay_factor < 0.0:
            raise FaultError("replay_factor must be non-negative")

    def lost_work(self, fail_time: float) -> float:
        """Work lost since the last checkpoint before ``fail_time``."""
        checkpoints = math.floor(fail_time / self.checkpoint_interval)
        return fail_time - checkpoints * self.checkpoint_interval

    def recovery_intervals(self, fail_time: float) -> Tuple[Tuple[float, str], ...]:
        """(duration, activity) intervals of the restart, in order."""
        return ((self.restart_time, "i/o"),
                (self.lost_work(fail_time) * self.replay_factor,
                 "computation"))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission with exponential backoff.

    The k-th retransmission of a dropped message is sent after
    ``timeout * backoff**k`` seconds; a message dropped on the original
    attempt and on all ``max_retries`` retransmissions is lost for good
    and the simulation aborts with :class:`~repro.errors.FaultError`.
    """

    timeout: float = 1e-3
    max_retries: int = 4
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout <= 0.0:
            raise FaultError("retry timeout must be positive")
        if self.max_retries < 0:
            raise FaultError("max_retries must be non-negative")
        if self.backoff < 1.0:
            raise FaultError("backoff must be >= 1")

    def delay_of_attempt(self, attempt: int) -> float:
        """Backoff delay before retransmission ``attempt`` (0-based)."""
        return self.timeout * self.backoff ** attempt


#: Union of the fault spec types accepted by a plan.
FAULT_TYPES = (Straggler, LinkDegradation, MessageJitter, MessageDrop,
               RankCrash)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of faults to inject.

    The plan is immutable and all its decisions are pure functions of
    the seed and the query (message sequence number, link, time), so
    the engine may consult it any number of times, in any order, and
    two runs of the same plan produce identical traces.
    """

    faults: Tuple = ()
    seed: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        object.__setattr__(self, "faults", faults)
        for spec in faults:
            if not isinstance(spec, FAULT_TYPES):
                raise FaultError(
                    f"unknown fault spec {spec!r}; expected one of "
                    f"{[t.__name__ for t in FAULT_TYPES]}")
        crashed = [spec.rank for spec in faults
                   if isinstance(spec, RankCrash)]
        if len(set(crashed)) != len(crashed):
            raise FaultError("at most one crash per rank")
        stragglers: Dict[int, List[Straggler]] = {}
        for spec in faults:
            if isinstance(spec, Straggler):
                stragglers.setdefault(spec.rank, []).append(spec)
        object.__setattr__(self, "_stragglers", stragglers)
        object.__setattr__(self, "_crashes", {
            spec.rank: spec for spec in faults
            if isinstance(spec, RankCrash)})
        object.__setattr__(self, "_jitters", tuple(
            spec for spec in faults if isinstance(spec, MessageJitter)))
        object.__setattr__(self, "_drops", tuple(
            spec for spec in faults if isinstance(spec, MessageDrop)))
        object.__setattr__(self, "_links", tuple(
            spec for spec in faults if isinstance(spec, LinkDegradation)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def perturbs_messages(self) -> bool:
        """Whether any message delivery can be jittered or dropped."""
        return bool(self._jitters) or bool(self._drops)

    def crash_for(self, rank: int) -> Optional[RankCrash]:
        """The crash scheduled for ``rank``, if any."""
        return self._crashes.get(rank)

    def describe(self) -> str:
        """One line per fault, for reports and logs."""
        if not self.faults:
            return "(no faults)"
        lines = []
        for spec in self.faults:
            if isinstance(spec, Straggler):
                window = ("" if not spec.transient
                          else f" in [{spec.start:g}, {spec.end:g})")
                lines.append(f"straggler: rank {spec.rank} x{spec.factor:g}"
                             f"{window}")
            elif isinstance(spec, LinkDegradation):
                arrow = "<->" if spec.symmetric else "->"
                lines.append(f"degraded link: {spec.src}{arrow}{spec.dst} "
                             f"x{spec.factor:g}")
            elif isinstance(spec, MessageJitter):
                lines.append(f"jitter: {spec.src}->{spec.dst} "
                             f"up to {spec.amplitude:g}x wire time")
            elif isinstance(spec, MessageDrop):
                lines.append(f"drops: {spec.src}->{spec.dst} "
                             f"p={spec.probability:g}")
            elif isinstance(spec, RankCrash):
                lines.append(f"crash: rank {spec.rank} at "
                             f"{spec.at_time:g}s (ckpt every "
                             f"{spec.checkpoint_interval:g}s)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def effective_compute(self, rank: int, begin: float,
                          duration: float) -> float:
        """Wall time a ``duration``-second compute burst takes on
        ``rank`` when it starts at ``begin``.

        Transient stragglers make the slowdown piecewise-constant in
        time; this walks the window boundaries so a burst spanning a
        window edge pays the factor only inside the window.
        """
        specs = self._stragglers.get(rank)
        if not specs:
            return duration
        boundaries = sorted({b for spec in specs
                             for b in (spec.start, spec.end)
                             if math.isfinite(b) and b > begin})
        time = begin
        remaining = duration
        elapsed = 0.0
        for boundary in boundaries + [math.inf]:
            factor = 1.0
            for spec in specs:
                if spec.start <= time < spec.end:
                    factor *= spec.factor
            span = boundary - time
            possible = span / factor
            if possible >= remaining:
                return elapsed + remaining * factor
            elapsed += span
            remaining -= possible
            time = boundary
        return elapsed    # pragma: no cover - inf boundary always returns

    def delivery_penalty(self, seq: int, src: int, dst: int,
                         wire_time: float) -> Tuple[float, int]:
        """Extra delivery delay and retransmission count for message
        ``seq`` from ``src`` to ``dst``.

        Pure in ``(seed, seq, src, dst)``: the engine may ask twice and
        get the same answer.  Raises :class:`FaultError` when the
        message is dropped on every attempt the retry policy allows.
        """
        if not self.perturbs_messages:
            return 0.0, 0
        delay = 0.0
        retries = 0
        rng = np.random.default_rng((self.seed, seq, src & 0x7FFFFFFF,
                                     dst & 0x7FFFFFFF))
        for spec in self._drops:
            if not spec.matches(src, dst):
                continue
            while rng.random() < spec.probability:
                if retries >= self.retry.max_retries:
                    raise FaultError(
                        f"message #{seq} from rank {src} to rank {dst} "
                        f"lost: dropped on the original attempt and all "
                        f"{self.retry.max_retries} retransmissions")
                delay += self.retry.delay_of_attempt(retries)
                retries += 1
        for spec in self._jitters:
            if spec.matches(src, dst) and spec.amplitude > 0.0:
                delay += spec.amplitude * wire_time * rng.random()
        return delay, retries

    def wrap_network(self, network: NetworkModel) -> NetworkModel:
        """Compose the plan's link degradations into a network model.

        Returns ``network`` unchanged when the plan degrades no links
        (zero overhead on the healthy path).
        """
        if not self._links:
            return network
        links = self._links
        base_scale = network.link_scale

        def degraded_scale(src: int, dst: int) -> float:
            scale = base_scale(src, dst)
            for spec in links:
                if spec.matches(src, dst):
                    scale *= spec.factor
            return scale

        return NetworkModel(latency=network.latency,
                            bandwidth=network.bandwidth,
                            overhead=network.overhead,
                            eager_threshold=network.eager_threshold,
                            link_scale=degraded_scale)


#: The empty plan: injecting it is exactly a healthy run.
HEALTHY = FaultPlan()
