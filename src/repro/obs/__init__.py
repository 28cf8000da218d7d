"""Self-observability: the analysis pipeline watching itself.

The paper argues that load imbalance is invisible without measurement;
this package applies that argument to the tool's own parallel
machinery.  Five layers, each usable alone:

* :mod:`repro.obs.spans` — nested timed spans with attributes over the
  pipeline's hot paths (sweep fleets, shard workers, streaming chunk
  loops, serve jobs).  Thread-safe collection, pool workers' spans
  returned with their task results, and a shared no-op when disabled,
  so instrumented call sites cost nothing in production.
* :mod:`repro.obs.log` — structured JSON logging (one object per
  line) with thread-scoped request-ID propagation end-to-end through
  the serve stack.
* :mod:`repro.obs.prom` — Prometheus text exposition of the daemon's
  metrics snapshot, served from ``/metrics`` by content negotiation.
* :mod:`repro.obs.selftrace` — the dogfood closer: spans serialize
  into the repro trace format (workers as ranks, stages as regions),
  so ``repro analyze`` diagnoses imbalance in its own worker fleets.
* :mod:`repro.obs.memory` — the process's resident size for the
  daemon's ``/metrics``, and the release of freed heap memory after
  each of its requests (imported by the daemon only).

CLI surface: ``--profile`` / ``--profile-out`` on ``repro analyze``
and ``repro temporal`` (including ``--sweep``), and the ``repro self``
verb.
"""

from .log import (JsonLogger, NullLogger, get_request_id, new_request_id,
                  request_scope, set_request_id)
from .prom import PROM_CONTENT_TYPE, render_prometheus
from .selftrace import (self_document, self_imbalance, spans_to_tracer,
                        worker_ranks, write_selftrace)
from .spans import (Span, StageSummary, absorb, current_worker, disable,
                    drain, enable, is_enabled, render_span_table,
                    set_worker, span, summarize_spans, worker_scope)

__all__ = [
    "JsonLogger", "NullLogger", "PROM_CONTENT_TYPE", "Span",
    "StageSummary", "absorb", "current_worker", "disable", "drain", "enable",
    "get_request_id", "is_enabled", "new_request_id", "render_prometheus",
    "render_span_table", "request_scope", "self_document",
    "self_imbalance", "set_request_id", "set_worker", "span",
    "spans_to_tracer", "summarize_spans", "worker_ranks", "worker_scope",
    "write_selftrace",
]
