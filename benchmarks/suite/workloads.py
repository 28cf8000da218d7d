"""Seeded input generator for the benchmark suite.

Every workload is a set of trace files made from ``--seed`` alone: the
same seed gives byte-identical files, another seed gives other values
with the same spec (event count, ranks, regions), so
timings stay comparable across seeds.  ``repro`` receives only the
files written here.

The files are written in the two documented on-disk layouts directly,
without importing ``repro``, so a change to the package's writers
cannot change the inputs:

* JSONL — a header line ``{"format": "repro-trace", "version": 1,
  "ranks": N, "events": M}`` followed by one object per event with the
  keys ``r g a b e k n p`` (rank, region, activity, begin, end, kind,
  nbytes, partner);
* RPTB — header ``<4sHIQI`` (magic ``RPTB``, version 1, ranks, events,
  string-table length), the NUL-separated UTF-8 name table, then one
  packed ``<IHHddBQi`` record per event.

The synthetic program is bulk-synchronous: in every step each rank
runs every region, spends a drawn amount of time in each working
activity, then waits at the region's closing barrier for the slowest
rank (the ``synchronization`` activity).  Per-(region, rank) load
factors make some ranks persistently slow, and a drift term makes the
imbalance of some regions grow over the run, so the time-resolved
``temporal`` report has trends to find.

Run standalone to inspect a workload's inputs::

    python benchmarks/suite/workloads.py --workload deep-jsonl --seed 0 \
        --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

JSONL_HEADER = {"format": "repro-trace", "version": 1}
RPTB_MAGIC = b"RPTB"
RPTB_VERSION = 1
RPTB_HEADER = struct.Struct("<4sHIQI")
RPTB_RECORD = np.dtype([("rank", "<u4"), ("region", "<u2"),
                        ("activity", "<u2"), ("begin", "<f8"),
                        ("end", "<f8"), ("kind", "u1"),
                        ("nbytes", "<u8"), ("partner", "<i4")])
EVENT_KINDS = ("compute", "send", "recv", "wait")

#: The paper's activities, in the order a rank runs them inside a
#: region; ``synchronization`` (the barrier wait) closes the region.
SYNC_ACTIVITY = "synchronization"
ACTIVITIES = ("computation", "point-to-point", "collective", SYNC_ACTIVITY)


@dataclass(frozen=True)
class Workload:
    """One workload: the size of its traces and of its daemon traffic.
    The seed only fills in values."""

    ranks: int
    regions: int
    steps: int
    binary: bool
    #: Traces uploaded in daemon phase A, each with a cold analyze and
    #: a cold temporal report; trace 0 is also the CLI commands' input.
    cold_traces: int
    #: Traces uploaded by the phase-C writer, each with a cold analyze.
    write_traces: int
    #: Cache-hit fetches in phase B, split over the two clients.
    hits: int

    @property
    def events(self) -> int:
        return self.steps * self.regions * self.ranks * len(ACTIVITIES)

    @property
    def traces(self) -> int:
        return self.cold_traces + self.write_traces

    @property
    def suffix(self) -> str:
        return ".rptb" if self.binary else ".jsonl"


#: The workloads.  Why each exists, and the share of a command that
#: decode and the kernels take on each, is in the README.
WORKLOADS = {
    "deep-jsonl": Workload(ranks=64, regions=8, steps=96, binary=False,
                           cold_traces=1, write_traces=1, hits=400),
    "wide-binary": Workload(ranks=1024, regions=32, steps=2, binary=True,
                            cold_traces=1, write_traces=1, hits=400),
}


def _timeline(spec: Workload, rng: np.random.Generator):
    """Begin/end times of every event, shaped (steps, regions, ranks,
    activities), plus the per-event rank, region and activity ids."""
    n_work = len(ACTIVITIES) - 1
    # Persistent per-(region, rank) slowness, a few hot ranks per
    # region, and a per-region drift that grows the imbalance over time.
    load = rng.lognormal(0.0, 0.15, size=(spec.regions, spec.ranks))
    hot = rng.integers(0, spec.ranks, size=(spec.regions, 2))
    load[np.arange(spec.regions)[:, None], hot] *= 1.6
    drift = rng.uniform(0.0, 0.8, size=spec.regions)
    base = rng.uniform(1e-3, 5e-3, size=(spec.regions, n_work))
    progress = (np.arange(spec.steps) / max(spec.steps - 1, 1))
    scale = (1.0 + drift[None, :, None] * progress[:, None, None]
             * (load[None] - 1.0)) * load[None]           # (S, G, P)
    noise = rng.lognormal(0.0, 0.1,
                          size=(spec.steps, spec.regions, spec.ranks,
                                n_work))
    work = base[None, :, None, :] * scale[..., None] * noise  # (S,G,P,W)
    busy = work.sum(axis=3)                                  # (S, G, P)
    region_length = busy.max(axis=2) * 1.001 + 1e-6          # (S, G)
    sync = region_length[..., None] - busy                   # (S, G, P)
    durations = np.concatenate([work, sync[..., None]], axis=3)
    starts = np.concatenate(
        [[0.0], np.cumsum(region_length.ravel())[:-1]]).reshape(
            spec.steps, spec.regions)
    ends = starts[..., None, None] + np.cumsum(durations, axis=3)
    begins = ends - durations
    grid = np.indices((spec.steps, spec.regions, spec.ranks,
                       len(ACTIVITIES)))
    return begins, ends, grid[2], grid[1], grid[3]


def _kinds(spec: Workload, ranks: np.ndarray, activities: np.ndarray):
    """Event kind, nbytes and partner for each event."""
    p2p = ACTIVITIES.index("point-to-point")
    kind = np.zeros(ranks.shape, dtype=np.uint8)              # compute
    kind[activities == p2p] = np.where(ranks[activities == p2p] % 2 == 0,
                                       1, 2)                   # send/recv
    kind[activities == ACTIVITIES.index("collective")] = 3     # wait
    kind[activities == ACTIVITIES.index(SYNC_ACTIVITY)] = 3
    nbytes = np.where(activities == p2p, 4096 * (1 + ranks % 4), 0)
    partner = np.where(activities == p2p, ranks ^ 1, -1)
    partner = np.where(partner >= spec.ranks, -1, partner)
    return kind, nbytes.astype(np.uint64), partner.astype(np.int32)


def _region_names(spec: Workload) -> List[str]:
    return [f"region-{index:02d}" for index in range(spec.regions)]


def _write_jsonl(path: Path, spec: Workload, columns) -> None:
    begins, ends, ranks, regions, activities, kinds, nbytes, partners = \
        columns
    region_names = _region_names(spec)
    header = dict(JSONL_HEADER, ranks=spec.ranks, events=spec.events)
    lines = [json.dumps(header)]
    for r, g, a, b, e, k, n, p in zip(
            ranks.tolist(), regions.tolist(), activities.tolist(),
            begins.tolist(), ends.tolist(), kinds.tolist(), nbytes.tolist(),
            partners.tolist()):
        lines.append(
            f'{{"r": {r}, "g": "{region_names[g]}", '
            f'"a": "{ACTIVITIES[a]}", "b": {b!r}, "e": {e!r}, '
            f'"k": "{EVENT_KINDS[k]}", "n": {n}, "p": {p}}}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_rptb(path: Path, spec: Workload, columns) -> None:
    begins, ends, ranks, regions, activities, kinds, nbytes, partners = \
        columns
    names = _region_names(spec) + list(ACTIVITIES)
    table = b"\x00".join(name.encode("utf-8") for name in names)
    records = np.empty(begins.size, dtype=RPTB_RECORD)
    records["rank"] = ranks
    records["region"] = regions
    records["activity"] = activities + spec.regions
    records["begin"] = begins
    records["end"] = ends
    records["kind"] = kinds
    records["nbytes"] = nbytes
    records["partner"] = partners
    with open(path, "wb") as stream:
        stream.write(RPTB_HEADER.pack(RPTB_MAGIC, RPTB_VERSION, spec.ranks,
                                      begins.size, len(table)))
        stream.write(table)
        stream.write(records.tobytes())


def write_trace(path: Path, spec: Workload, seed: int, index: int) -> None:
    """Write trace ``index`` of a workload, in file (time) order."""
    rng = np.random.default_rng([seed, index])
    begins, ends, ranks, regions, activities = _timeline(spec, rng)
    flat = [array.ravel() for array in (begins, ends, ranks, regions,
                                        activities)]
    kinds, nbytes, partners = _kinds(spec, flat[2], flat[4])
    columns = (*flat, kinds, nbytes, partners)
    if spec.binary:
        _write_rptb(path, spec, columns)
    else:
        _write_jsonl(path, spec, columns)


def file_record(path: Path, events: int) -> dict:
    """sha256, size and promised event count of one generated input."""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"path": path.name, "sha256": digest,
            "bytes": path.stat().st_size, "events": events}


def generate(workload: str, seed: int, directory: Path) -> List[dict]:
    """Write every trace of ``workload`` under ``directory``; returns one
    :func:`file_record` per trace, trace 0 first."""
    spec = WORKLOADS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for index in range(spec.traces):
        path = directory / f"{workload}-{index}{spec.suffix}"
        write_trace(path, spec, seed, index)
        records.append(file_record(path, spec.events))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="write a benchmark workload's seeded trace files")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory to write the traces into")
    arguments = parser.parse_args(argv)
    for record in generate(arguments.workload, arguments.seed,
                           arguments.out):
        print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
