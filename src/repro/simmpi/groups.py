"""Communicator groups: collectives over subsets of the ranks.

Coupled applications (multi-physics, client/server solvers) partition
the machine into groups that mostly communicate internally.  MPI
expresses this with ``MPI_Comm_split``; here,
:meth:`repro.simmpi.communicator.Communicator.split` returns a
:class:`GroupCommunicator` — a view of the parent communicator
restricted to the ranks sharing the caller's color:

.. code-block:: python

    def program(comm):
        group = comm.split(lambda rank: "fluid" if rank < 8 else "solid")
        yield from group.allreduce(4096)      # within the group only

Group ranks are dense (0..len(group)-1, ordered by global rank); all
point-to-point peers and collective algorithms are translated to global
ranks, so the whole collective library works unchanged over the group.
Because a split partitions the ranks, the groups' message pairs are
disjoint and no extra tag isolation is needed.

Restrictions: ``ANY_SOURCE`` receives are not allowed on a group (the
engine matches globally, so a wildcard could capture another group's
message for a rank in both conversations); pass an explicit group peer.
The region stack is shared with the parent, so instrumentation contexts
nest naturally across communicators.
"""

from __future__ import annotations

from typing import Callable, List

from ..errors import CommunicatorError
from .communicator import Communicator
from .types import ANY_SOURCE


class GroupCommunicator(Communicator):
    """A communicator over a subset of the parent's ranks."""

    def __init__(self, parent: Communicator, members: List[int]) -> None:
        if not members:
            raise CommunicatorError("a group needs at least one member")
        if parent.rank not in members:
            raise CommunicatorError(
                "the calling rank must be a member of its own group")
        if len(set(members)) != len(members):
            raise CommunicatorError("group members must be distinct")
        for member in members:
            if not 0 <= member < parent.size:
                raise CommunicatorError(
                    f"member {member} outside the parent communicator")
        ordered = sorted(members)
        super().__init__(ordered.index(parent.rank), len(ordered))
        # Flatten nested groups: a split of a group translates straight
        # to *global* ranks, so peer translation is always one level.
        if isinstance(parent, GroupCommunicator):
            ordered = [parent.global_rank(member) for member in ordered]
            root = parent._parent
        else:
            root = parent
        self._global_rank = root.rank
        self._parent = root
        self._members = ordered
        # Share the root's region stack so `with comm.region(...)`
        # annotates group traffic too.
        self._region_stack = root._region_stack

    # ------------------------------------------------------------------
    # Rank translation
    # ------------------------------------------------------------------
    @property
    def members(self) -> tuple:
        """Global ranks of the group, in group-rank order."""
        return tuple(self._members)

    def global_rank(self, group_rank: int) -> int:
        """Translate a group rank to the global rank."""
        if not 0 <= group_rank < self._size:
            raise CommunicatorError(
                f"rank {group_rank} outside the group of {self._size}")
        return self._members[group_rank]

    def _translate_source(self, source: int) -> int:
        if source == ANY_SOURCE:
            raise CommunicatorError(
                "ANY_SOURCE is not supported on a group communicator; "
                "name the group peer explicitly")
        return self.global_rank(source)

    # ------------------------------------------------------------------
    # Point-to-point overrides (translate peers, delegate to the parent
    # so eager/rendezvous and tracing behave identically)
    # ------------------------------------------------------------------
    def send(self, dest, nbytes, tag=0):
        yield from super().send(self.global_rank(dest), nbytes, tag)

    def recv(self, source=ANY_SOURCE, tag=-1):
        message = yield from super().recv(self._translate_source(source),
                                          tag)
        return message

    def isend(self, dest, nbytes, tag=0):
        request = yield from super().isend(self.global_rank(dest), nbytes,
                                           tag)
        return request

    def irecv(self, source=ANY_SOURCE, tag=-1):
        request = yield from super().irecv(self._translate_source(source),
                                           tag)
        return request

    def sendrecv(self, dest, nbytes, source, sendtag=0, recvtag=-1):
        message = yield from super().sendrecv(
            self.global_rank(dest), nbytes, self._translate_source(source),
            sendtag, recvtag)
        return message

    def _internal_send(self, dest, nbytes, tag):
        yield from super()._internal_send(self.global_rank(dest), nbytes,
                                          tag)

    def _internal_recv(self, source, tag):
        message = yield from super()._internal_recv(
            self.global_rank(source), tag)
        return message

    def _internal_sendrecv(self, dest, nbytes, source, tag):
        message = yield from super()._internal_sendrecv(
            self.global_rank(dest), nbytes, self.global_rank(source), tag)
        return message

    # The group's collectives are the inherited algorithms: they compute
    # partners in group-rank space from self._rank/self._size and emit
    # them through the _internal_* overrides above, which translate.

    def _check_peer(self, rank: int) -> None:
        # Collective roots are group ranks.
        if not 0 <= rank < self._size:
            raise CommunicatorError(
                f"rank {rank} outside the group of {self._size}")


def split(parent: Communicator,
          color_of: Callable[[int], object]) -> GroupCommunicator:
    """Partition the parent by color (a pure function of the global
    rank, identical on all ranks — the SPMD analogue of
    ``MPI_Comm_split``) and return the caller's group."""
    own_color = color_of(parent.rank)
    members = [rank for rank in range(parent.size)
               if color_of(rank) == own_color]
    return GroupCommunicator(parent, members)
