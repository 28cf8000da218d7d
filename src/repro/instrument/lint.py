"""Trace linting: structural consistency checks before analysis.

Real tracefiles arrive broken in predictable ways — clock skew creates
overlapping intervals, filters orphan one side of a message, a crashed
rank truncates its stream.  Profiles built from such traces are silently
wrong, so :func:`lint_trace` checks the invariants our own simulator
guarantees and reports violations:

* ``overlap``          — two events of one rank overlap in time;
* ``unmatched-send``   — a send whose (src, dst, bytes) has no receive
  counterpart anywhere in the trace;
* ``unmatched-recv``   — the reverse;
* ``negative-time``    — an event starting before time zero;
* ``empty-rank``       — a rank id below the maximum with no events at
  all (a hole in the rank space).

Matching is by census, not by pairing: for every (source, destination,
nbytes) the number of sends must equal the number of receives, where a
receive is a ``recv`` event or a ``wait`` event stamped with a message
(nonblocking receives complete inside their wait).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .columns import EventColumns
from .tracer import Tracer


@dataclass(frozen=True)
class LintIssue:
    """One violated invariant."""

    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}: {self.detail}"


def _check_overlaps(rank: np.ndarray, begin: np.ndarray, end: np.ndarray,
                    issues: List[LintIssue]) -> None:
    """One sort for all ranks: an event overlaps when it begins before
    the latest end (at least t=0) of its rank's earlier events."""
    order = np.lexsort((end, begin, rank))
    previous = None
    for event in zip(*(column[order].tolist()
                       for column in (rank, begin, end))):
        where, start, stop = event
        if previous is None or previous[0] != where:
            reach = 0.0
        elif start < reach - 1e-12:
            issues.append(LintIssue(
                "overlap",
                f"rank {where}: [{previous[1]:.6g}, {previous[2]:.6g}] "
                f"overlaps [{start:.6g}, {stop:.6g}]"))
        reach = max(reach, stop)
        previous = event


def _check_message_census(chunks: Sequence[EventColumns],
                          issues: List[LintIssue]) -> None:
    sends, recvs = Counter(), Counter()
    for chunk in chunks:
        for rank, _, _, _, _, kind, nbytes, partner in chunk.select(
                chunk.partner >= 0).rows():
            if kind == "send":
                sends[rank, partner, nbytes] += 1
            elif kind in ("recv", "wait"):
                # Nonblocking receives complete inside wait events, which
                # the engine stamps with the resolved message.
                recvs[partner, rank, nbytes] += 1
    for found, matched, kind, what, lacking in (
            (sends, recvs, "unmatched-send", "send(s)", "a receive"),
            (recvs, sends, "unmatched-recv", "receive(s)", "a send")):
        for (source, destination, nbytes), count in found.items():
            missing = count - matched[source, destination, nbytes]
            if missing > 0:
                issues.append(LintIssue(
                    kind, f"{missing} {what} {source} -> {destination} "
                          f"({nbytes} B) without {lacking}"))


def lint_trace(tracer: Tracer) -> Tuple[LintIssue, ...]:
    """Check a trace's structural invariants; returns the violations
    (empty tuple = clean)."""
    chunks = list(tracer)
    if not chunks:
        return ()
    rank, begin, end = (np.concatenate([getattr(chunk, column)
                                        for chunk in chunks])
                        for column in ("rank", "begin", "end"))
    early = begin < 0.0
    issues = [LintIssue("negative-time", f"rank {where} event begins at "
                                         f"{when}")
              for where, when in zip(rank[early].tolist(),
                                     begin[early].tolist())]
    seen = set(np.unique(rank).tolist())
    issues += [LintIssue("empty-rank", f"rank {where} has no events")
               for where in range(max(seen) + 1) if where not in seen]
    _check_overlaps(rank, begin, end, issues)
    _check_message_census(chunks, issues)
    return tuple(issues)
