"""Helpers shared by the benchmark suite's modules: paths, the
declaration, child processes with their peak memory, and percentiles."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

#: The checkout the suite benchmarks: ``benchmarks/suite/`` lives two
#: levels below it, and the package is imported from its ``src/``.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Report parameters of every CLI command, daemon request and traced
#: call: 64 time windows for ``temporal``, the default dispersion index.
WINDOWS = 64
INDEX = "euclidean"

#: Longest any single child command may run before it is killed and
#: counted as failed.
COMMAND_TIMEOUT = 60.0


def child_env() -> dict:
    """Environment for every ``repro`` subprocess: the checked-out
    package and nothing else on the module path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


class Tally:
    """Operations attempted and failed, with the first few failures.

    The daemon's two load threads share one, so updates take a lock.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, message: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(message)
        return ok


@dataclass
class Finished:
    """One child process that ran to its end."""

    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def run_command(argv: Sequence[str], scratch: Path,
                timeout: float = COMMAND_TIMEOUT) -> Finished:
    """Run ``argv`` to completion; time it from spawn to reap.

    Output goes to files rather than pipes so a chatty child can never
    block on a full pipe.  Peak RSS comes from ``os.wait4``, which
    covers the child and every descendant it reaped (pool workers).  A
    child still running after ``timeout`` is killed and reported with
    exit code -9.
    """
    out_path = scratch / "stdout"
    err_path = scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                   stdin=subprocess.DEVNULL,
                                   env=child_env(), cwd=str(ROOT))
        watchdog = threading.Timer(timeout, process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
    return Finished(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                    exit_code=process.returncode,
                    stdout=out_path.read_bytes(),
                    stderr=err_path.read_bytes())


def repro_argv(*arguments: str) -> List[str]:
    """``python -m repro ARGUMENTS`` with this interpreter."""
    return [sys.executable, "-m", "repro", *arguments]


def declared() -> dict:
    """``BENCHMARK.json``: the run length and every metric's name, unit,
    direction and bound.  The suite takes them from there alone."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
