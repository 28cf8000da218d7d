"""Trace-to-profile aggregation: from events to the ``t_ijp`` tensor.

The methodology consumes a :class:`~repro.core.measurements.MeasurementSet`;
this module builds one from a trace by summing event durations per
(region, activity, rank) — a thin wrapper over the one columnar kernel,
:class:`~repro.core.online.OnlineAccumulator`.

Conventions:

* regions appear in order of first appearance in the trace (override
  with ``regions=...`` to fix an order, e.g. the program's loop order);
* activities default to the paper's canonical four, in the paper's
  order, followed by any extra activity the trace contains;
* time recorded outside every annotated region is excluded from the
  tensor but contributes to the program wall clock ``T``;
* ``T`` is the larger of the traced wall clock and the covered time —
  under the ``max`` aggregation the covered time can exceed any single
  rank's elapsed time, because different ranks can be the slowest in
  different regions.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.measurements import MeasurementSet
from ..core.online import OnlineAccumulator


def profile(tracer,
            regions: Optional[Sequence[str]] = None,
            activities: Optional[Sequence[str]] = None,
            aggregation: str = "max",
            n_ranks: Optional[int] = None) -> MeasurementSet:
    """Aggregate a trace into a measurement set.

    Parameters
    ----------
    tracer:
        The recorded trace: a :class:`~repro.instrument.Tracer`, or an
        iterable of :class:`~repro.instrument.columns.EventColumns`
        chunks such as :func:`~repro.instrument.iter_any` yields.
    regions:
        Region order to use; defaults to order of first appearance.
        Regions listed but absent from the trace yield all-zero rows.
    activities:
        Activity order; defaults to the paper's four (in the paper's
        order) plus any extras found in the trace.
    aggregation:
        ``t_ij`` convention, passed through to :class:`MeasurementSet`.
    n_ranks:
        Processor count to use; defaults to the ranks seen in the trace.
        Pass it when the trace is a slice in which some ranks are idle
        (idle ranks still occupy a column of zeros).
    """
    return OnlineAccumulator(regions, activities, aggregation,
                             n_ranks).consume(tracer).finalize()
