"""The rank-facing API of the MPI simulator.

A rank program is a Python generator taking a :class:`Communicator`:

.. code-block:: python

    def program(comm):
        with comm.region("loop 1"):
            yield from comm.compute(0.25)
            total = yield from comm.allreduce(8 * 1024)
            yield from comm.barrier()

Every communication method is itself a generator and must be driven
with ``yield from``.  The communicator tags each primitive operation
with its *context* — the current code region (set with
:meth:`Communicator.region`) and the activity class:

* ``compute``                          → ``computation``
* ``send``/``recv``/``sendrecv``/...   → ``point-to-point``
* ``bcast``/``reduce``/``allreduce``/
  ``gather``/``allgather``/``alltoall``/``scatter`` → ``collective``
* ``barrier``                          → ``synchronization``

Collectives are genuine message-passing algorithms built on the p2p
primitives (binomial trees, recursive doubling, pairwise exchange,
dissemination), so their cost — and their *skew* across ranks — emerges
from the network model rather than from a formula.  Their internal
messages are traced under the collective's activity, exactly how
measurement infrastructures attribute time.

SPMD requirement: all ranks must call collectives in the same order
(the usual MPI rule); internal tags are sequenced per call to keep
concurrent collectives from cross-matching.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Generator, Iterator, List, Optional, Sequence

from ..errors import CommunicatorError
from .types import (ANY_SOURCE, ANY_TAG, Compute, Elapsed, Message, RecvPost,
                    Request, SendPost, Timeout, Wait)

#: First tag reserved for collective-internal messages; user tags must
#: stay below this.
INTERNAL_TAG_BASE = 1 << 20

#: Activity names used in trace contexts.
COMPUTATION = "computation"
IO = "i/o"
POINT_TO_POINT = "point-to-point"
COLLECTIVE = "collective"
SYNCHRONIZATION = "synchronization"


class Communicator:
    """Per-rank handle: identity, context management and operations."""

    def __init__(self, rank: int, size: int) -> None:
        if size < 1 or not 0 <= rank < size:
            raise CommunicatorError(f"invalid rank {rank} of size {size}")
        self._rank = rank
        self._size = size
        # Rank id the engine knows this endpoint by; a group
        # communicator overrides it with the parent's global rank.
        self._global_rank = rank
        self._region_stack: List[str] = []
        self._activity_override: Optional[str] = None
        self._collective_seq = 0

    # ------------------------------------------------------------------
    # Identity and context
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This rank's id, 0-based."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the simulation."""
        return self._size

    def split(self, color_of) -> "Communicator":
        """Partition the ranks by color and return this rank's group.

        ``color_of`` is a pure function of the global rank and must be
        identical on every rank (the SPMD analogue of
        ``MPI_Comm_split``).  Returns a
        :class:`~repro.simmpi.groups.GroupCommunicator`.
        """
        from .groups import split as _split
        return _split(self, color_of)

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Enter an instrumented code region (nestable; innermost wins)."""
        if not name:
            raise CommunicatorError("region name must be non-empty")
        self._region_stack.append(name)
        try:
            yield
        finally:
            self._region_stack.pop()

    def _context(self, activity: str) -> tuple:
        region = self._region_stack[-1] if self._region_stack else ""
        return (region, self._activity_override or activity)

    @contextmanager
    def _as_activity(self, activity: str) -> Iterator[None]:
        previous = self._activity_override
        self._activity_override = activity
        try:
            yield
        finally:
            self._activity_override = previous

    # ------------------------------------------------------------------
    # Computation and clock
    # ------------------------------------------------------------------
    def compute(self, seconds: float) -> Generator:
        """Spend ``seconds`` of local computation."""
        yield Compute(seconds, context=self._context(COMPUTATION))

    def io(self, seconds: float) -> Generator:
        """Spend ``seconds`` performing I/O (a fifth activity class).

        The paper's §2 lists I/O operations among the activities; the
        time cost is supplied by the caller (e.g. from an application-
        level file system model), and the interval is traced under the
        ``i/o`` activity so the whole analysis machinery applies to it.
        """
        yield Compute(seconds, context=self._context(IO))

    def elapsed(self) -> Generator:
        """Current simulated clock of this rank (no time passes)."""
        clock = yield Elapsed()
        return clock

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def _check_user_tag(self, tag: int) -> None:
        if not 0 <= tag < INTERNAL_TAG_BASE:
            raise CommunicatorError(
                f"user tags must lie in [0, {INTERNAL_TAG_BASE}), got {tag}")

    def send(self, dest: int, nbytes: int, tag: int = 0) -> Generator:
        """Blocking standard send (eager or rendezvous per message size)."""
        self._check_user_tag(tag)
        yield SendPost(dest, nbytes, tag, blocking=True,
                       context=self._context(POINT_TO_POINT))

    def recv(self, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Generator:
        """Blocking receive; returns the matching :class:`Message`."""
        message = yield RecvPost(source, tag, blocking=True,
                                 context=self._context(POINT_TO_POINT))
        return message

    def isend(self, dest: int, nbytes: int, tag: int = 0) -> Generator:
        """Nonblocking send; returns a :class:`Request`."""
        self._check_user_tag(tag)
        request = Request(owner=self._global_rank, kind="send")
        result = yield SendPost(dest, nbytes, tag, blocking=False,
                                context=self._context(POINT_TO_POINT),
                                request=request)
        return result

    def irecv(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator:
        """Nonblocking receive; returns a :class:`Request`."""
        request = Request(owner=self._global_rank, kind="recv")
        result = yield RecvPost(source, tag, blocking=False,
                                context=self._context(POINT_TO_POINT),
                                request=request)
        return result

    def wait(self, request: Request) -> Generator:
        """Wait for one request; returns its :class:`Message` for receives."""
        message = yield Wait(request, context=self._context(POINT_TO_POINT))
        return message

    def waitall(self, requests: Sequence[Request]) -> Generator:
        """Wait for every request, in order; returns their messages."""
        messages = []
        for request in requests:
            message = yield Wait(request,
                                 context=self._context(POINT_TO_POINT))
            messages.append(message)
        return messages

    def backoff(self, seconds: float) -> Generator:
        """Spend ``seconds`` in bounded waiting (retry backoff).

        Traced with kind ``wait`` under the point-to-point activity, so
        backoff time stays visible in the breakdown instead of
        disappearing between events.
        """
        if seconds < 0.0:
            raise CommunicatorError("backoff must be non-negative")
        yield Timeout(seconds, context=self._context(POINT_TO_POINT))

    def sendrecv(self, dest: int, nbytes: int, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Generator:
        """Simultaneous send and receive (deadlock-free exchange)."""
        incoming = yield from self.irecv(source, recvtag)
        yield from self.send(dest, nbytes, sendtag)
        message = yield from self.wait(incoming)
        return message

    # ------------------------------------------------------------------
    # Internal helpers for collectives
    # ------------------------------------------------------------------
    def _next_collective_tag(self) -> int:
        # Sequenced per call so back-to-back collectives cannot
        # cross-match; the sequence is identical on all ranks because
        # collectives must be called in the same order (SPMD).
        self._collective_seq += 1
        return INTERNAL_TAG_BASE + (self._collective_seq % 4096) * 64

    def _internal_send(self, dest: int, nbytes: int, tag: int) -> Generator:
        yield SendPost(dest, nbytes, tag, blocking=True,
                       context=self._context(POINT_TO_POINT))

    def _internal_recv(self, source: int, tag: int) -> Generator:
        message = yield RecvPost(source, tag, blocking=True,
                                 context=self._context(POINT_TO_POINT))
        return message

    def _internal_sendrecv(self, dest: int, nbytes: int, source: int,
                           tag: int) -> Generator:
        request = Request(owner=self._global_rank, kind="recv")
        yield RecvPost(source, tag, blocking=False,
                       context=self._context(POINT_TO_POINT),
                       request=request)
        yield SendPost(dest, nbytes, tag, blocking=True,
                       context=self._context(POINT_TO_POINT))
        message = yield Wait(request, context=self._context(POINT_TO_POINT))
        return message

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self) -> Generator:
        """Dissemination barrier (Hensgen–Finkel–Manber), log2(P) rounds."""
        with self._as_activity(SYNCHRONIZATION):
            tag = self._next_collective_tag()
            if self._size == 1:
                return
            rounds = int(math.ceil(math.log2(self._size)))
            for k in range(rounds):
                distance = 1 << k
                dest = (self._rank + distance) % self._size
                source = (self._rank - distance) % self._size
                yield from self._internal_sendrecv(dest, 0, source, tag + k)

    def bcast(self, root: int, nbytes: int) -> Generator:
        """Binomial-tree broadcast of ``nbytes`` from ``root``."""
        self._check_peer(root)
        with self._as_activity(COLLECTIVE):
            tag = self._next_collective_tag()
            if self._size == 1:
                return
            relative = (self._rank - root) % self._size
            mask = 1
            while mask < self._size:
                if relative & mask:
                    source = (relative - mask + root) % self._size
                    yield from self._internal_recv(source, tag)
                    break
                mask <<= 1
            mask >>= 1
            while mask > 0:
                if relative + mask < self._size:
                    dest = (relative + mask + root) % self._size
                    yield from self._internal_send(dest, nbytes, tag)
                mask >>= 1

    def reduce(self, root: int, nbytes: int) -> Generator:
        """Binomial-tree reduction of ``nbytes`` to ``root``."""
        self._check_peer(root)
        with self._as_activity(COLLECTIVE):
            tag = self._next_collective_tag()
            if self._size == 1:
                return
            relative = (self._rank - root) % self._size
            mask = 1
            while mask < self._size:
                if relative & mask == 0:
                    partner = relative | mask
                    if partner < self._size:
                        source = (partner + root) % self._size
                        yield from self._internal_recv(source, tag)
                else:
                    dest = ((relative & ~mask) + root) % self._size
                    yield from self._internal_send(dest, nbytes, tag)
                    break
                mask <<= 1

    def allreduce(self, nbytes: int) -> Generator:
        """Allreduce: recursive doubling for power-of-two sizes,
        reduce + broadcast otherwise."""
        with self._as_activity(COLLECTIVE):
            if self._size == 1:
                return
            if self._size & (self._size - 1) == 0:
                tag = self._next_collective_tag()
                mask = 1
                while mask < self._size:
                    partner = self._rank ^ mask
                    yield from self._internal_sendrecv(partner, nbytes,
                                                       partner, tag)
                    tag += 1
                    mask <<= 1
            else:
                yield from self.reduce(0, nbytes)
                yield from self.bcast(0, nbytes)

    def gather(self, root: int, nbytes: int) -> Generator:
        """Binomial gather of ``nbytes`` per rank to ``root``; message
        sizes grow with the gathered subtree."""
        self._check_peer(root)
        with self._as_activity(COLLECTIVE):
            tag = self._next_collective_tag()
            if self._size == 1:
                return
            relative = (self._rank - root) % self._size
            owned = 1
            mask = 1
            while mask < self._size:
                if relative & mask == 0:
                    partner = relative | mask
                    if partner < self._size:
                        source = (partner + root) % self._size
                        message = yield from self._internal_recv(source, tag)
                        owned += max(1, message.nbytes // max(nbytes, 1))
                else:
                    dest = ((relative & ~mask) + root) % self._size
                    yield from self._internal_send(dest, owned * nbytes, tag)
                    break
                mask <<= 1

    def allgather(self, nbytes: int) -> Generator:
        """Ring allgather: P-1 rounds of neighbour exchange."""
        with self._as_activity(COLLECTIVE):
            tag = self._next_collective_tag()
            right = (self._rank + 1) % self._size
            left = (self._rank - 1) % self._size
            for _ in range(self._size - 1):
                yield from self._internal_sendrecv(right, nbytes, left, tag)

    def alltoall(self, nbytes: int) -> Generator:
        """Pairwise-exchange all-to-all of ``nbytes`` per partner."""
        with self._as_activity(COLLECTIVE):
            tag = self._next_collective_tag()
            for k in range(1, self._size):
                dest = (self._rank + k) % self._size
                source = (self._rank - k) % self._size
                yield from self._internal_sendrecv(dest, nbytes, source,
                                                   tag + k)

    def reduce_scatter(self, nbytes: int) -> Generator:
        """Reduce-scatter of ``nbytes`` per rank: recursive halving for
        power-of-two sizes, reduce + scatter otherwise."""
        with self._as_activity(COLLECTIVE):
            if self._size == 1:
                return
            if self._size & (self._size - 1) == 0:
                tag = self._next_collective_tag()
                mask = self._size >> 1
                volume = nbytes * (self._size // 2)
                while mask > 0:
                    partner = self._rank ^ mask
                    yield from self._internal_sendrecv(partner, volume,
                                                       partner, tag)
                    tag += 1
                    mask >>= 1
                    volume = max(volume // 2, nbytes)
            else:
                yield from self.reduce(0, nbytes * self._size)
                yield from self.scatter(0, nbytes)

    def scan(self, nbytes: int) -> Generator:
        """Inclusive prefix reduction along the rank order (linear
        chain: each rank receives its predecessor's partial result,
        combines, and forwards)."""
        with self._as_activity(COLLECTIVE):
            tag = self._next_collective_tag()
            if self._rank > 0:
                yield from self._internal_recv(self._rank - 1, tag)
            if self._rank < self._size - 1:
                yield from self._internal_send(self._rank + 1, nbytes, tag)

    def scatter(self, root: int, nbytes: int) -> Generator:
        """Linear scatter of ``nbytes`` per rank from ``root``."""
        self._check_peer(root)
        with self._as_activity(COLLECTIVE):
            tag = self._next_collective_tag()
            if self._size == 1:
                return
            if self._rank == root:
                for peer in range(self._size):
                    if peer != root:
                        yield from self._internal_send(peer, nbytes, tag)
            else:
                yield from self._internal_recv(root, tag)

    def _check_peer(self, rank: int) -> None:
        if not 0 <= rank < self._size:
            raise CommunicatorError(
                f"rank {rank} outside 0..{self._size - 1}")
