"""Dogfooding: the tool's own execution as a repro trace.

The closing of the observability loop: spans recorded by
:mod:`repro.obs.spans` serialize into the repro trace format itself —
workers become ranks, pipeline stages become regions, span activities
become activities — so ``repro analyze`` (and every other trace
consumer: ``temporal``, the daemon, the streaming engine) can diagnose
load imbalance in the tool's *own* sweep fleets, shard workers and
serve job pools with the very methodology it implements.

The mapping:

=====================  ==============================================
span field             trace event field
=====================  ==============================================
``worker`` label       ``rank`` (dense ints, first-appearance order)
``name`` (stage)       ``region``
``activity``           ``activity``
``begin`` / ``end``    ``begin`` / ``end``, shifted so the earliest
                       span starts at t=0
=====================  ==============================================

Every event is ``kind="compute"`` — spans measure wall-clock occupancy
of a stage, which is the ``t_ijp`` the methodology aggregates.

``repro self`` drives this end-to-end: run an analysis under
instrumentation, analyze the self-trace once (:func:`self_document`),
and report the pipeline's own imbalance indices from that document.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from ..errors import ReproError
from ..reports import analyze_document
from .spans import Span

PathLike = Union[str, Path]


def worker_ranks(spans: Sequence[Span]) -> Dict[str, int]:
    """Dense rank numbering of worker labels, first-appearance order.

    Spans are sorted by begin time before numbering (that is the order
    :func:`repro.obs.spans.drain` returns), so the orchestrating
    process — whose first span opens before any worker starts —
    normally lands on rank 0.
    """
    ranks: Dict[str, int] = {}
    for item in sorted(spans, key=lambda member: member.begin):
        if item.worker not in ranks:
            ranks[item.worker] = len(ranks)
    return ranks


def spans_to_tracer(spans: Sequence[Span]):
    """A :class:`~repro.instrument.Tracer` holding the self-trace.

    Raises :class:`~repro.errors.ReproError` when there is nothing to
    convert — an empty profile means instrumentation never ran, which
    the caller should hear about rather than analyze.
    """
    from ..instrument import Tracer
    if not spans:
        raise ReproError("no spans recorded: nothing to trace")
    ranks = worker_ranks(spans)
    origin = min(item.begin for item in spans)
    tracer = Tracer()
    for item in sorted(spans, key=lambda member: member.begin):
        tracer.record(ranks[item.worker], item.name,
                      item.activity or "computation", item.begin - origin,
                      item.end - origin)
    return tracer


def write_selftrace(path: PathLike, spans: Sequence[Span]) -> int:
    """Serialize spans as a repro JSONL trace; returns the event count.

    The file round-trips through :func:`repro.instrument.read_trace`
    and is accepted by every analysis entry point.
    """
    from ..instrument import write_tracer
    return write_tracer(path, spans_to_tracer(spans))


def self_document(spans: Sequence[Span], index: str = "euclidean") -> dict:
    """The ``analyze`` document of the spans' profile (stages as
    regions, workers as ranks): :func:`~repro.reports.render` gives its
    full report, :func:`self_imbalance` its per-stage indices."""
    from ..instrument import profile
    return analyze_document(profile(spans_to_tracer(spans)), index=index)


def self_imbalance(document: dict) -> List[Tuple[str, float]]:
    """Per-stage imbalance indices of the pipeline's own execution.

    Returns ``(stage, index_value)`` pairs (region view of a
    :func:`self_document`), NaN-free: stages a single worker executed
    have no dispersion to report and come back as 0.0 by the same
    convention the analysis applies to one-processor measurements.
    """
    import math

    values = {stage: float(entry["scaled_index"])
              for stage, entry in document["region_view"].items()}
    return [(stage, 0.0 if math.isnan(value) else value)
            for stage, value in values.items()]


__all__ = ["self_document", "self_imbalance", "spans_to_tracer",
           "worker_ranks", "write_selftrace"]
