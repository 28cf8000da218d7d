"""The analysis report as a document, and its text.

:func:`report_to_dict` builds the ``repro-report/2`` document of an
:class:`~repro.core.methodology.AnalysisResult`: the numbers of the
paper's Tables 1–4, the processor view and the narrative summary's
facts, exact (unrounded), with zero-based processor indices.  The
daemon (:mod:`repro.serve`) serves it next to the text, so programmatic
clients never have to scrape tables.

The text functions render a document's sections as aligned plain-text
tables matching the paper's Tables 1–4, plus a narrative summary.
Number formatting follows the paper: times with two decimals (more
where the paper keeps three), indices of dispersion with five decimals,
dashes for activities a region does not perform (nan cells).  The
document is strict JSON (:func:`repro.reports.strict_json`).
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional

from .methodology import AnalysisResult
from ..reports import strict_json
from ..viz.tables import format_table


def _format_time(value) -> str:
    """Format a wall clock time like the paper: enough decimals to be
    faithful, no trailing noise."""
    value = float(value)
    if value == 0.0:
        return "-"
    text = f"{value:.3f}"
    if text.endswith("0"):
        text = f"{value:.2f}"
    return text


def _format_index(value) -> str:
    value = float(value)
    if math.isnan(value):
        return "-"
    return f"{value:.5f}"


def _matrix_table(document: Mapping, cells: Mapping, fmt, title: str,
                  overall: Optional[Mapping] = None) -> str:
    activities = document["program"]["activities"]
    rows: List[List[str]] = [
        [region] + ([fmt(overall[region])] if overall else [])
        + [fmt(cells[region][activity]) for activity in activities]
        for region in document["program"]["regions"]]
    return format_table(["region"] + (["overall"] if overall else [])
                        + list(activities), rows, title=title)


def render_breakdown_table(document: Mapping) -> str:
    """Table 1: wall clock time of each region with its activity breakdown."""
    breakdown = document["breakdown"]
    return _matrix_table(document, breakdown["region_activity_times"],
                         _format_time, "Wall clock time (s) per region and "
                         "activity", breakdown["region_times"])


def render_dispersion_table(document: Mapping) -> str:
    """Table 2: indices of dispersion ``ID_ij``."""
    return _matrix_table(document, document["dispersion"], _format_index,
                         "Indices of dispersion ID_ij")


def _view_table(view: Mapping, names, header, title: str) -> str:
    return format_table(header, [
        [name, _format_index(view[name]["index"]),
         _format_index(view[name]["scaled_index"])] for name in names],
        title=title)


def render_activity_view_table(document: Mapping) -> str:
    """Table 3: ``ID_A`` and ``SID_A`` per activity."""
    return _view_table(document["activity_view"],
                       document["program"]["activities"],
                       ["activity", "ID_A", "SID_A"], "Activity view summary")


def render_region_view_table(document: Mapping) -> str:
    """Table 4: ``ID_C`` and ``SID_C`` per region."""
    return _view_table(document["region_view"],
                       document["program"]["regions"],
                       ["region", "ID_C", "SID_C"], "Code region view summary")


def render_processor_view_table(document: Mapping) -> str:
    """Per-region processor-view table: the most imbalanced processor
    of each region with its ``ID_P`` and own wall clock time."""
    view = document["processor_view"]
    rows = [[region, f"processor {view[region]['most_imbalanced'] + 1}",
             _format_index(view[region]["dispersion"]),
             _format_time(view[region]["own_time"])]
            for region in document["program"]["regions"]]
    return format_table(["region", "most imbalanced", "ID_P", "own time (s)"],
                        rows, title="Processor view")


def render_summary(document: Mapping) -> str:
    """Narrative summary mirroring the paper's §4 discussion."""
    program, breakdown = document["program"], document["breakdown"]
    summary = document["summary"]
    lines = [
        "Top-down analysis summary",
        "=" * 25,
        f"program wall clock T = {program['total_time']:.3f} s "
        f"({program['coverage']:.1%} covered by {program['n_regions']} "
        f"regions, P = {program['n_processors']} processors)",
        f"dominant activity: {breakdown['dominant_activity']}",
        f"heaviest region: {breakdown['heaviest_region']} "
        f"({breakdown['heaviest_region_share']:.1%} of T)",
        f"region clusters: " + "; ".join(
            "{" + ", ".join(group) + "}"
            for group in summary["region_clusters"]),
        f"most frequently imbalanced processor: "
        f"processor {summary['most_frequently_imbalanced_processor'] + 1} "
        f"(tops {summary['most_frequently_imbalanced_count']} regions)",
        f"processor imbalanced for the longest time: "
        f"processor {summary['longest_imbalanced_processor'] + 1} "
        f"({summary['longest_imbalanced_time']:.2f} s)",
        f"most imbalanced activity: {summary['most_imbalanced_activity']} "
        f"(scaled: {summary['most_imbalanced_activity_scaled']})",
        f"most imbalanced region: {summary['most_imbalanced_region']} "
        f"(scaled: {summary['most_imbalanced_region_scaled']})",
        f"tuning candidates: "
        + (", ".join(summary["tuning_candidates"]) or "none"),
    ]
    return "\n".join(lines)


def report_to_dict(result: AnalysisResult) -> dict:
    """The full report as a strict-JSON document (``repro-report/2``).

    Holds every number of the five text sections of
    :func:`render_full_report` exactly: the Table 1 time breakdown, the
    Table 2 dispersion matrix (nan where a region does not perform an
    activity), the Table 3/4 view summaries, the processor view and the
    narrative summary's facts.  Processor indices are zero-based here
    (the text prints them one-based, as the paper does).
    """
    measurements, breakdown = result.measurements, result.breakdown
    processor_view, processor_summary = (result.processor_view,
                                         result.processor_view.summary())
    own_times = measurements.processor_region_times()
    regions = list(measurements.regions)
    activities = list(measurements.activities)

    def by_region(matrix):
        return {region: dict(zip(activities, row))
                for region, row in zip(regions, matrix.tolist())}

    def view_indices(view, names):
        return {name: {"index": index, "scaled_index": scaled}
                for name, index, scaled
                in zip(names, view.index, view.scaled_index)}

    winners = [processor_view.most_imbalanced_processor(region)
               for region in regions]
    return strict_json({
        "schema": "repro-report/2",
        "program": {
            "total_time": measurements.total_time,
            "coverage": measurements.coverage,
            "n_regions": measurements.n_regions,
            "n_activities": measurements.n_activities,
            "n_processors": measurements.n_processors,
            "regions": regions,
            "activities": activities,
        },
        "breakdown": {
            "region_times": dict(zip(regions,
                                     measurements.region_times.tolist())),
            "region_activity_times":
                by_region(measurements.region_activity_times),
            "dominant_activity": breakdown.dominant_activity,
            "heaviest_region": breakdown.heaviest_region,
            "heaviest_region_share": breakdown.heaviest_region_share,
        },
        "dispersion": by_region(result.activity_view.dispersion),
        "activity_view": view_indices(result.activity_view, activities),
        "region_view": view_indices(result.region_view, regions),
        "processor_view": {
            region: {"most_imbalanced": winner,
                     "dispersion": processor_view.dispersion[i, winner],
                     "own_time": own_times[i, winner]}
            for i, (region, winner) in enumerate(zip(regions, winners))},
        "summary": {
            "region_clusters": result.region_clusters,
            "most_frequently_imbalanced_processor":
                processor_summary.most_frequent,
            "most_frequently_imbalanced_count":
                processor_summary.most_frequent_count,
            "longest_imbalanced_processor": processor_summary.longest,
            "longest_imbalanced_time": processor_summary.longest_time,
            "most_imbalanced_activity":
                result.activity_view.most_imbalanced(),
            "most_imbalanced_activity_scaled":
                result.activity_view.most_imbalanced(scaled=True),
            "most_imbalanced_region":
                result.region_view.most_imbalanced(),
            "most_imbalanced_region_scaled":
                result.region_view.most_imbalanced(scaled=True),
            "tuning_candidates": result.tuning_candidates,
        },
    })


def render_full_report(result: AnalysisResult) -> str:
    """Everything: the four tables followed by the narrative summary,
    :func:`repro.reports.render` of :func:`report_to_dict`.  An
    :class:`~repro.core.batch.AnalysisSession` in place of the result
    gives its cached text."""
    from .batch import AnalysisSession
    if isinstance(result, AnalysisSession):
        return result.report()
    from ..reports import render
    return render(report_to_dict(result))
