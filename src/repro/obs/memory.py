"""Process memory: handing freed heap back, and reading the footprint.

A long-lived daemon frees most of what a job allocates, but glibc keeps
freed blocks in the heap of the thread that freed them (one arena per
worker thread) rather than returning them to the kernel, so the
process's resident size ratchets up with every request.
:func:`release_freed` asks glibc to give those pages back
(``malloc_trim(0)``: every arena, free pages in the middle of a heap
included); the daemon calls it after each computed job and each
upload.  It costs about half a millisecond, and where the C library has
no ``malloc_trim`` (musl, macOS, Windows) it does nothing.

:func:`usage` reads the current and the peak resident size for the
daemon's ``/metrics`` gauges ``resident_bytes`` and
``peak_resident_bytes``.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Callable, Dict, Optional


@functools.lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Callable[[int], int]]:
    """glibc's ``malloc_trim``, or None where the C library lacks it."""
    import ctypes
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_freed() -> bool:
    """Return freed heap memory to the kernel; True when some was."""
    trim = _malloc_trim()
    return trim is not None and trim(0) == 1


def resident_bytes() -> Optional[int]:
    """The process's current resident size (None without
    ``/proc/self/statm``)."""
    try:
        with open("/proc/self/statm", "rb") as statm:
            pages = int(statm.read().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE")


def peak_resident_bytes() -> Optional[int]:
    """The process's peak resident size, ``ru_maxrss`` (None where the
    ``resource`` module is missing)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux counts kilobytes, macOS bytes.
    return peak if sys.platform == "darwin" else peak * 1024


def usage() -> Dict[str, int]:
    """``resident_bytes`` and ``peak_resident_bytes``, each where the
    platform reports it."""
    readings = {"resident_bytes": resident_bytes(),
                "peak_resident_bytes": peak_resident_bytes()}
    return {name: value for name, value in readings.items()
            if value is not None}


__all__ = ["peak_resident_bytes", "release_freed", "resident_bytes",
           "usage"]
