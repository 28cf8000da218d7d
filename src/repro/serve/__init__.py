"""The analysis service: a long-lived daemon in front of the library.

The paper's methodology — and every subsystem grown around it — was,
until this package, reachable only through one-shot CLI invocations
that re-parse and re-analyze from scratch.  :mod:`repro.serve` turns
it into a serving system:

* :mod:`~repro.serve.store` — a persistent, content-addressed trace
  store (sha256 of the trace bytes), validated at ingest by the
  salvage-tolerant readers;
* :mod:`~repro.serve.jobs` — a bounded worker pool running
  ``analyze``/``temporal``/``diagnose``/``whatif`` jobs with
  single-flight deduplication over the shared on-disk report cache
  (:mod:`repro.cache`);
* :mod:`~repro.serve.server` — the stdlib-only threaded HTTP daemon
  (``repro serve``) with ``/metrics`` + ``/healthz`` observability
  and graceful, job-draining shutdown;
* :mod:`~repro.serve.metrics` — the counters and p50/p99 latency
  reservoirs behind ``/metrics``;
* :mod:`~repro.serve.stack` — the one loader of the report stack,
  which ``repro serve`` runs after it reports ready;
* :mod:`~repro.serve.client` — the thin urllib client driving
  ``repro submit`` / ``repro fetch``.

Reports served by the daemon are byte-identical to the corresponding
CLI command's output for the same trace and parameters — both sides
call the same renderers.

Every name loads its submodule on first access (PEP 562, see
:mod:`repro._lazy`), so a client (``repro submit``, ``repro fetch``)
imports neither numpy nor the report stack, which the daemon loads.
"""

from .._lazy import exported_names, lazy_namespace

_EXPORTS = {
    "client": ("DEFAULT_RETRIES", "DEFAULT_RETRY_MAX_WAIT", "DEFAULT_URL",
               "RETRY_STATUSES", "ServeClient", "submit_and_fetch",
               "trace_sha256"),
    "jobs": ("DEFAULT_MAX_QUEUE", "JOB_KINDS", "SERVE_CACHE_FORMAT",
             "JobRunner", "QueueFullError", "ServiceDrainingError",
             "build_report", "normalize_params", "report_key"),
    "metrics": ("LatencyWindow", "ServiceMetrics"),
    "stack": ("load_stack", "stack_state"),
    "server": ("DEFAULT_MAX_BODY_BYTES", "DEFAULT_REQUEST_TIMEOUT",
               "DEFAULT_WAIT_SECONDS", "MAX_WAIT_SECONDS", "AnalysisServer"),
    "store": ("StoredTrace", "TraceStore"),
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)

__all__ = exported_names(_EXPORTS)
