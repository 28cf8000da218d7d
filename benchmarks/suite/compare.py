"""Compare two sets of benchmark runs against the declared bounds.

A set is a JSON-lines file with one workload record per line, as
``run.py --record SET.jsonl`` appends them.  For every (workload,
end-to-end metric) this prints both sets' medians, their ratio, each
set's spread (the distance between the first and third quartile, as a
share of the median) and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` — a set's spread is wider than the bound, so a
  difference of the bound cannot be told from noise (unless every run
  of B reads better than every run of A, which is ``better``);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the wider
  of the two spreads;
* ``same`` — otherwise.

``setup_s``, the set-up metric, is held to its median alone: ``worse``
or ``better`` when the medians differ by more than the bound, ``same``
otherwise.  Its spread is the machine's load while the program starts,
which no run length steadies, so it is printed but not judged.

Failed operations are compared too: any increase is ``worse``.

Usage::

    python benchmarks/suite/compare.py A.jsonl B.jsonl

Exits 1 when any row is ``worse`` or ``unresolved``, so two sets of
the same code agree exactly when the command exits 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from common import declared

SETUP_METRIC = "setup_s"


def load_set(path: Path) -> Dict[str, List[dict]]:
    """Records of one set, grouped by workload."""
    grouped: Dict[str, List[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            grouped.setdefault(record["workload"], []).append(record)
    return grouped


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return float("inf")
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle) if middle else float("inf")


def verdict(a: List[float], b: List[float], bound: float,
            lower_is_better: bool, medians_only: bool) -> Tuple[str, float]:
    """(verdict, ratio of medians B/A) for one metric."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    ratio = median_b / median_a if median_a else float("inf")
    if lower_is_better:
        all_better = max(b) < min(a)
        worsening = ratio - 1.0
    else:
        all_better = min(b) > max(a)
        worsening = 1.0 - ratio
    # Judged on the medians alone, a metric counts as noise up to its
    # bound.
    noise = bound if medians_only else max(spread(a), spread(b))
    if noise > bound:
        return ("better" if all_better else "unresolved"), ratio
    if worsening > bound:
        return "worse", ratio
    if -worsening > noise:
        return "better", ratio
    return "same", ratio


def compare(set_a: Dict[str, List[dict]], set_b: Dict[str, List[dict]],
            declaration: dict) -> Tuple[List[list], bool]:
    rows = []
    agree = True
    for workload in sorted(set(set_a) & set(set_b)):
        runs_a, runs_b = set_a[workload], set_b[workload]
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name]["value"] for run in runs_a]
            b = [run["end_to_end"][name]["value"] for run in runs_b]
            outcome, ratio = verdict(a, b, metric["bound"],
                                     metric["better"] == "lower",
                                     medians_only=name == SETUP_METRIC)
            agree &= outcome in ("same", "better")
            rows.append([workload, name, metric["unit"],
                         f"{statistics.median(a):.6g}",
                         f"{statistics.median(b):.6g}", f"{ratio:.4f}",
                         f"{spread(a):.1%}", f"{spread(b):.1%}",
                         f"{metric['bound']:.0%}", f"{len(a)}/{len(b)}",
                         outcome])
        failed_a = sum(run["failed"] for run in runs_a)
        failed_b = sum(run["failed"] for run in runs_b)
        outcome = "worse" if failed_b > failed_a else "same"
        agree &= outcome == "same"
        rows.append([workload, "failed_ops", "count", str(failed_a),
                     str(failed_b), "-", "-", "-", "any",
                     f"{len(runs_a)}/{len(runs_b)}", outcome])
    return rows, agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare two sets of benchmark runs")
    parser.add_argument("a", type=Path, help="baseline set (JSON lines)")
    parser.add_argument("b", type=Path, help="candidate set (JSON lines)")
    arguments = parser.parse_args(argv)
    rows, agree = compare(load_set(arguments.a), load_set(arguments.b),
                          declared())
    header = ["workload", "metric", "unit", "median A", "median B",
              "B/A", "spread A", "spread B", "bound", "runs", "verdict"]
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    print("sets agree" if agree else "sets differ")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
