"""The report stack of the daemon's jobs, loaded once, by one thread.

Importing numpy and the analysis modules is most of a daemon's start-up,
and ``/healthz``, ``/metrics``, ``GET /traces`` and ``GET /reports/KEY``
need none of it.  So ``repro serve`` writes its ready file as soon as
its socket listens and only then calls :func:`load_stack`, on its main
thread: the daemon's peak memory moves with the thread whose heap an
allocation lands in.  Ingest and every job call it before they touch the stack: a
request that arrives during the load waits for it, and no import lands
in a later request.  An embedded :class:`~repro.serve.AnalysisServer`
loads the stack on its first upload or report.

Only one thread ever imports the stack; any other waits on the lock.
Two threads importing the same modules at once can deadlock, or one
is handed a module the other has only partly initialised.
"""

from __future__ import annotations

import threading

_lock = threading.Lock()
_loaded = False


def load_stack() -> None:
    """Import every module the four job kinds run; idempotent."""
    global _loaded
    if _loaded:
        return
    with _lock:
        if _loaded:
            return
        # The report pipeline imports its stages on demand; these pull
        # in all of them.  None loads numpy.random (clustering seeds
        # from the standard library's random).
        from ..core import (batch, diagnosis, report,  # noqa: F401
                            temporal, whatif)
        from ..instrument import binary, stream  # noqa: F401
        _loaded = True


def stack_state() -> str:
    """``unloaded``, ``loading`` or ``loaded``, as ``/healthz`` reports it."""
    if _loaded:
        return "loaded"
    return "loading" if _lock.locked() else "unloaded"
