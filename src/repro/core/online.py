"""One-pass mergeable accumulators: the events→tensor kernel.

The paper's whole methodology is a function of the ``t_ijp`` tensor
alone, and ``t_ijp`` is a *sum* of event durations — an exactly
mergeable sufficient statistic that can be accumulated one bounded
chunk at a time, with partial sums from disjoint shards added together.

:class:`OnlineAccumulator` (behind :func:`repro.instrument.profile`)
folds :class:`~repro.instrument.columns.EventColumns` chunks (any other
event sequence is converted once) with one ``np.add.at`` scatter over a
flat ``(cell, rank)`` index.  ``np.add.at`` applies its additions in
index order, so per cell they happen in event order and the sums are
bit-identical however the stream is chunked; merged shards agree within
one float rounding.  Memory is bounded by the layout, never by the
event count.  Its labels and extent are a :class:`TraceLayout`, which a
windowing pass (:func:`repro.instrument.windows.fold_windows`) keeps
alone; each window is then the same scatter over that window's events,
into its performed rows only.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceError
from .measurements import DEFAULT_ACTIVITIES, MeasurementSet

#: Region label recorded for time outside every annotated region
#: (mirrors :data:`repro.instrument.events.OUTSIDE_REGION`; duplicated
#: here so :mod:`repro.core` keeps no import edge into the
#: instrumentation package).
OUTSIDE_REGION = "(outside regions)"

#: Bytes one event takes in the binary trace format (mirrors
#: ``repro.instrument.binary.RECORD.itemsize``, duplicated likewise):
#: a finalized tensor holds at most one cell per byte of its events.
EVENT_BYTES = 37


def _ordered_activities(seen: Sequence[str]) -> Tuple[str, ...]:
    """The profile's activity ordering: the paper's canonical four (in
    the paper's order) first, then extras in first-appearance order."""
    return tuple(
        [name for name in DEFAULT_ACTIVITIES if name in seen] +
        [name for name in seen if name not in DEFAULT_ACTIVITIES])


def _as_columns(events: Iterable):
    """A chunk as columns: decoded chunks pass through, any other
    event sequence is converted once."""
    from ..instrument.columns import EventColumns
    if isinstance(events, EventColumns):
        return events
    return EventColumns.from_events(events)


def _index(ids: Dict[str, int], names: Sequence[str], codes: np.ndarray,
           grow: bool, skip: Optional[str] = None) -> np.ndarray:
    """Per event, the tensor index of the label its code names (-1 for
    ``skip`` and unindexed labels).  With ``grow``, unseen labels are
    indexed first, in order of first appearance."""
    if grow:
        unique, first = np.unique(codes, return_index=True)
        for code in unique[np.argsort(first)].tolist():
            if names[code] != skip:
                ids.setdefault(names[code], len(ids))
    return np.array([-1 if name == skip else ids.get(name, -1)
                     for name in names], dtype=np.intp)[codes]


def _rank_index(ids: Dict[int, int], ranks: np.ndarray) -> np.ndarray:
    """Per event, the running tensor's column of its rank; unseen ranks
    get the next columns.  Uses ``np.unique``'s ``return_index`` kernel,
    as ``_index`` does, and a search: the ``return_inverse`` kernel adds
    about 0.4 MB to a command's peak resident memory."""
    unique = np.unique(ranks, return_index=True)[0]
    columns = [ids.setdefault(rank, len(ids)) for rank in unique.tolist()]
    return np.array(columns, dtype=np.intp)[np.searchsorted(unique, ranks)]


def _union(first: Dict, second: Dict) -> Dict:
    return {name: i for i, name in enumerate(dict.fromkeys([*first,
                                                            *second]))}


class TraceLayout:
    """The labels and extent of a chunk stream: its region and activity
    orders, its highest rank, its earliest begin, its latest end and
    its event count.

    This is all :class:`OnlineAccumulator` knows besides its sums, and
    all a windowing pass needs
    (:func:`repro.instrument.windows.fold_windows`), which therefore
    builds no whole-trace tensor.  ``regions`` and ``activities`` fix
    the orders as the accumulator's parameters do.
    """

    def __init__(self, regions: Optional[Sequence[str]] = None,
                 activities: Optional[Sequence[str]] = None):
        self._fixed_regions = tuple(regions) if regions is not None else None
        self._fixed_activities = (tuple(activities)
                                  if activities is not None else None)
        #: Row and column labels of the running tensor -> their index:
        #: the fixed layout, or labels in order of first appearance.
        self._region_ids = {name: i for i, name
                            in enumerate(self._fixed_regions or ())}
        self._activity_ids = {name: j for j, name
                              in enumerate(self._fixed_activities or ())}
        self._max_rank = -1
        self._min_begin = float("inf")
        self._max_end = float("-inf")
        self._n_events = 0

    def update(self, chunk) -> Tuple[np.ndarray, np.ndarray]:
        """Fold one non-empty chunk of columns in; returns, per event,
        its row and its column in the running tensor (row -1 for an
        event the tensor skips)."""
        self._n_events += len(chunk)
        self._min_begin = min(self._min_begin, float(chunk.begin.min()))
        self._max_end = max(self._max_end, float(chunk.end.max()))
        self._max_rank = max(self._max_rank, int(chunk.rank.max()))
        # Activity discovery draws on *every* event — like
        # ``Tracer.activities()`` — even those the tensor skips.
        columns = _index(self._activity_ids, chunk.names, chunk.activity,
                         grow=self._fixed_activities is None)
        rows = _index(self._region_ids, chunk.names, chunk.region,
                      grow=self._fixed_regions is None, skip=OUTSIDE_REGION)
        unlisted = (rows >= 0) & (columns < 0)
        if unlisted.any():
            activity = chunk.names[chunk.activity[unlisted.argmax()]]
            raise TraceError(
                f"trace contains activity {activity!r} not in "
                f"{self._fixed_activities}")
        return rows, columns

    def merge(self, other: "TraceLayout") -> "TraceLayout":
        """Combine two layouts into a fresh one: extents take min/max,
        and discovered label orders concatenate (self's labels first,
        then other's unseen ones)."""
        if self._fixed_regions != other._fixed_regions:
            raise TraceError("cannot merge accumulators with different "
                             "fixed region layouts")
        if self._fixed_activities != other._fixed_activities:
            raise TraceError("cannot merge accumulators with different "
                             "fixed activity layouts")
        merged = TraceLayout(self._fixed_regions, self._fixed_activities)
        merged._region_ids = _union(self._region_ids, other._region_ids)
        merged._activity_ids = _union(self._activity_ids,
                                      other._activity_ids)
        merged._max_rank = max(self._max_rank, other._max_rank)
        merged._min_begin = min(self._min_begin, other._min_begin)
        merged._max_end = max(self._max_end, other._max_end)
        merged._n_events = self._n_events + other._n_events
        return merged

    @property
    def n_events(self) -> int:
        """Events folded in so far."""
        return self._n_events

    @property
    def n_ranks(self) -> int:
        """Ranks seen so far (0 when empty), like ``Tracer.n_ranks``,
        bounded by the input: a highest rank that would give the tensor
        more cells than the events take bytes in the binary format
        (:data:`EVENT_BYTES` each) raises
        :class:`~repro.errors.TraceError`."""
        seen = self._max_rank + 1
        cells = seen * len(self._region_ids) * len(self._activity_ids)
        if cells > self._n_events * EVENT_BYTES:
            raise TraceError(
                f"rank {self._max_rank} would give the tensor {cells} "
                f"cells, more than the {self._n_events * EVENT_BYTES} "
                f"bytes its {self._n_events} event(s) take")
        return seen

    @property
    def begin(self) -> float:
        """Earliest event begin seen (0 when empty)."""
        return 0.0 if self._n_events == 0 else self._min_begin

    @property
    def elapsed(self) -> float:
        """Latest event end seen — the traced wall clock (0 when
        empty)."""
        return 0.0 if self._n_events == 0 else self._max_end

    def regions(self) -> Tuple[str, ...]:
        """Region order the finalized set will use."""
        if self._fixed_regions is not None:
            return self._fixed_regions
        return tuple(self._region_ids)

    def activities(self) -> Tuple[str, ...]:
        """Activity order the finalized set will use."""
        if self._fixed_activities is not None:
            return self._fixed_activities
        return _ordered_activities(tuple(self._activity_ids))


class OnlineAccumulator:
    """Streaming equivalent of :func:`repro.instrument.profile`.

    Parameters mirror :func:`~repro.instrument.profile`: ``regions``
    fixes the region order (events in unlisted regions are skipped),
    ``activities`` fixes the activity order (an event with an unlisted
    activity raises :class:`~repro.errors.TraceError`), and ``n_ranks``
    widens the processor axis beyond the ranks actually seen.  With
    the defaults, regions appear in order of first appearance and
    activities follow the paper's canonical ordering — exactly the
    labels ``profile`` would produce for the same events.  The labels
    and the extent are its :class:`TraceLayout`'s.

    The accumulator is picklable (a tensor, dicts and scalars), so
    shard workers can build one per shard and ship it back for merging.
    """

    def __init__(self, regions: Optional[Sequence[str]] = None,
                 activities: Optional[Sequence[str]] = None,
                 aggregation: str = "max",
                 n_ranks: Optional[int] = None):
        self._layout = TraceLayout(regions, activities)
        self._aggregation = aggregation
        self._given_ranks = n_ranks
        #: Rank -> column of the running tensor: only ranks with events
        #: have one, so no rank id costs memory before ``n_ranks``.
        self._rank_ids: Dict[int, int] = {}
        self._tensor = np.zeros((len(self._layout._region_ids),
                                 len(self._layout._activity_ids), 0))

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def update(self, events: Iterable,
               weights: Optional[np.ndarray] = None) -> "OnlineAccumulator":
        """Fold one chunk of events into the running sums.

        ``weights`` (one per event) replaces the durations as the
        summed quantity — how counter tensors are built.
        """
        chunk = _as_columns(events)
        if not len(chunk):
            return self
        rows, columns = self._layout.update(chunk)
        counted = rows >= 0
        ranks = _rank_index(self._rank_ids, chunk.rank)
        self._grow()
        _, n_activities, n_ranks = self._tensor.shape
        index = ((rows[counted] * n_activities + columns[counted]) * n_ranks
                 + ranks[counted])
        values = chunk.end - chunk.begin if weights is None else weights
        np.add.at(self._tensor.reshape(-1), index, values[counted])
        return self

    def _grow(self) -> None:
        """Widen the tensor to every label and rank seen so far."""
        shape = (len(self._layout._region_ids),
                 len(self._layout._activity_ids), len(self._rank_ids))
        if shape != self._tensor.shape:
            grown = np.zeros(shape)
            rows, columns, ranks = self._tensor.shape
            grown[:rows, :columns, :ranks] = self._tensor
            self._tensor = grown

    def consume(self, chunks: Iterable[Iterable]) -> "OnlineAccumulator":
        """Fold an iterator of chunks (e.g. :func:`iter_any`'s output)."""
        for chunk in chunks:
            self.update(chunk)
        return self

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "OnlineAccumulator") -> "OnlineAccumulator":
        """Combine two accumulators into a fresh one (neither operand is
        mutated).

        Cell sums add, extents take min/max, and discovered label
        orders concatenate (self's labels first, then other's unseen
        ones) — merging shards in file order therefore reproduces the
        whole file's first-appearance order.  The operation is
        associative, and finalized *values* are insensitive to merge
        order; only the label ordering follows the merge sequence.
        """
        if self._aggregation != other._aggregation:
            raise TraceError(
                f"cannot merge accumulators with aggregations "
                f"{self._aggregation!r} and {other._aggregation!r}")
        layout = self._layout.merge(other._layout)
        ranks = self._given_ranks
        if other._given_ranks is not None:
            ranks = (other._given_ranks if ranks is None
                     else max(ranks, other._given_ranks))
        merged = OnlineAccumulator(aggregation=self._aggregation,
                                   n_ranks=ranks)
        merged._layout = layout
        merged._rank_ids = _union(self._rank_ids, other._rank_ids)
        merged._grow()
        for part in (self, other):
            rows = [layout._region_ids[name]
                    for name in part._layout._region_ids]
            columns = [layout._activity_ids[name]
                       for name in part._layout._activity_ids]
            ranks = [merged._rank_ids[rank] for rank in part._rank_ids]
            merged._tensor[np.ix_(rows, columns, ranks)] += part._tensor
        return merged

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Events folded in so far."""
        return self._layout.n_events

    @property
    def n_ranks(self) -> int:
        """The processor axis of :meth:`tensor`: the ranks seen
        (:attr:`TraceLayout.n_ranks`, which refuses a rank out of
        proportion to the events), widened to ``n_ranks`` when given."""
        return max(self._layout.n_ranks, self._given_ranks or 0)

    @property
    def begin(self) -> float:
        """Earliest event begin seen (0 when empty)."""
        return self._layout.begin

    @property
    def elapsed(self) -> float:
        """Latest event end seen — the traced wall clock (0 when
        empty)."""
        return self._layout.elapsed

    def regions(self) -> Tuple[str, ...]:
        """Region order the finalized set will use."""
        return self._layout.regions()

    def activities(self) -> Tuple[str, ...]:
        """Activity order the finalized set will use."""
        return self._layout.activities()

    @property
    def _sums(self) -> Dict[Tuple[str, str, int], float]:
        """Label-keyed view of the running sums: (region, activity,
        rank) -> value of every non-zero cell."""
        regions = list(self._layout._region_ids)
        activities = list(self._layout._activity_ids)
        ranks = list(self._rank_ids)
        return {(regions[i], activities[j], ranks[p]):
                float(self._tensor[i, j, p])
                for i, j, p in zip(*np.nonzero(self._tensor))}

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def tensor(self) -> np.ndarray:
        """A copy of the running ``t_ijp`` tensor in the finalized label
        order (``regions()`` x ``activities()`` x ranks)."""
        if self.n_events == 0:
            raise TraceError("cannot profile an empty trace")
        region_names = self.regions()
        if not region_names:
            raise TraceError("trace contains no annotated regions")
        activity_names = self.activities()
        n_ranks = self.n_ranks
        seen = self._layout.n_ranks
        if (self._given_ranks or n_ranks) < seen:
            raise TraceError(
                f"n_ranks={self._given_ranks} but the trace mentions "
                f"rank {seen - 1}")
        tensor = np.zeros((len(region_names), len(activity_names), n_ranks))
        rows = [self._layout._region_ids[name] for name in region_names]
        columns = [self._layout._activity_ids[name]
                   for name in activity_names]
        tensor[:, :, list(self._rank_ids)] = self._tensor[
            np.ix_(rows, columns)]
        return tensor

    def finalize(self) -> MeasurementSet:
        """The measurement set of everything folded in so far.

        Matches ``profile(tracer)`` on the same events: same labels,
        same tensor, same ``T = max(elapsed, covered)`` convention.
        The accumulator itself is unchanged and can keep accumulating.
        """
        preliminary = MeasurementSet(self.tensor(), regions=self.regions(),
                                     activities=self.activities(),
                                     aggregation=self._aggregation)
        return preliminary.with_total_time(
            max(self.elapsed, preliminary.covered_time))

    def session(self):
        """An :class:`~repro.core.batch.AnalysisSession` over the
        finalized measurements — the streaming entry into the memoized
        batch engine."""
        from .batch import AnalysisSession
        return AnalysisSession(self.finalize())
