"""Automated diagnosis: from indices to an explanation.

The paper's conclusion sets the bar: *"tools should do what expert
programmers do when tuning their programs, that is, detect the presence
of inefficiencies, localize them and assess their severity."*  This
module turns an :class:`~repro.core.methodology.AnalysisResult` into a
structured diagnosis — a list of findings, each with

* ``kind``     — what was detected (dominant activity, imbalanced
  region, imbalanced processor, negligible-but-erratic activity, ...);
* ``severity`` — ``high`` / ``medium`` / ``low``, combining the scaled
  index with the time share (the paper's two-criteria assessment);
* ``where``    — the localized region / activity / processor;
* ``explanation`` — a sentence a programmer can act on.

The rules deliberately mirror the reasoning the paper walks through in
§4 (e.g. "synchronization is the most imbalanced activity *but*
accounts for 0.1% of the wall clock, hence not a tuning candidate").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .methodology import AnalysisResult

#: Severity levels, ordered.
SEVERITIES = ("low", "medium", "high")


@dataclass(frozen=True)
class Finding:
    """One diagnosed (potential) inefficiency."""

    kind: str
    severity: str
    where: str
    explanation: str


def _severity(scaled_index: float, share: float,
              high_index: float = 0.01, high_share: float = 0.10) -> str:
    if scaled_index >= high_index and share >= high_share:
        return "high"
    if scaled_index >= high_index / 2 or share >= high_share:
        return "medium"
    return "low"


def diagnose(result: AnalysisResult,
             negligible_share: float = 0.01,
             erratic_index: float = 0.10) -> Tuple[Finding, ...]:
    """Produce the ordered findings for one analysis.

    Findings are sorted high severity first, then by kind for
    determinism.
    """
    measurements = result.measurements
    findings: List[Finding] = []

    # 1. The heaviest region / dominant activity (the program's core or
    #    its bottleneck class).
    breakdown = result.breakdown
    findings.append(Finding(
        kind="dominant-activity",
        severity="medium",
        where=breakdown.dominant_activity,
        explanation=(f"{breakdown.dominant_activity} accounts for "
                     f"{breakdown.activity_shares[breakdown.dominant_activity]:.1%} "
                     "of the program wall clock; it bounds any overall "
                     "improvement."),
    ))
    findings.append(Finding(
        kind="heaviest-region",
        severity="medium",
        where=breakdown.heaviest_region,
        explanation=(f"{breakdown.heaviest_region} takes "
                     f"{breakdown.heaviest_region_share:.1%} of the wall "
                     "clock — the program's core; optimizations here have "
                     "the largest leverage."),
    ))

    # 2. Region-level imbalance, assessed by scaled index and share.
    region_shares = breakdown.region_shares
    view = result.region_view
    for i, region in enumerate(view.regions):
        scaled = float(view.scaled_index[i])
        raw = float(view.index[i])
        if np.isnan(scaled) or raw <= 0.0:
            continue
        share = region_shares[region]
        severity = _severity(scaled, share)
        if raw >= erratic_index and share < negligible_share:
            findings.append(Finding(
                kind="erratic-but-negligible-region",
                severity="low",
                where=region,
                explanation=(f"{region} is highly imbalanced "
                             f"(ID_C = {raw:.3f}) but takes only "
                             f"{share:.1%} of the wall clock; not a "
                             "tuning candidate."),
            ))
        elif severity != "low":
            worst_activity = view.localize(region)
            findings.append(Finding(
                kind="imbalanced-region",
                severity=severity,
                where=region,
                explanation=(f"{region} combines imbalance "
                             f"(SID_C = {scaled:.4f}) with a "
                             f"{share:.1%} time share; the worst "
                             f"activity inside is {worst_activity}."),
            ))

    # 3. Activity-level: erratic activities that scaling discounts.
    activity_view = result.activity_view
    activity_shares = breakdown.activity_shares
    for j, activity in enumerate(activity_view.activities):
        raw = float(activity_view.index[j])
        scaled = float(activity_view.scaled_index[j])
        if np.isnan(raw):
            continue
        share = activity_shares[activity]
        if raw >= erratic_index and share < negligible_share:
            findings.append(Finding(
                kind="erratic-but-negligible-activity",
                severity="low",
                where=activity,
                explanation=(f"{activity} is the kind of imbalance that "
                             f"looks alarming (ID_A = {raw:.3f}) but "
                             f"accounts for {share:.2%} of the wall "
                             "clock; its impact is negligible."),
            ))

    # 4. Processor-level localization.
    summary = result.processor_view.summary()
    if summary.most_frequent_count > 1:
        findings.append(Finding(
            kind="imbalanced-processor",
            severity="medium",
            where=f"processor {summary.most_frequent + 1}",
            explanation=(f"processor {summary.most_frequent + 1} is the "
                         f"most imbalanced in "
                         f"{summary.most_frequent_count} regions — check "
                         "its data partition or placement."),
        ))
    findings.append(Finding(
        kind="longest-imbalanced-processor",
        severity="medium",
        where=f"processor {summary.longest + 1}",
        explanation=(f"processor {summary.longest + 1} spends the most "
                     f"time ({summary.longest_time:.3g} s) in regions "
                     "where it is the most imbalanced."),
    ))

    # 5. The headline recommendation.
    candidates = result.tuning_candidates
    if candidates:
        findings.append(Finding(
            kind="tuning-candidate",
            severity="high",
            where=candidates[0],
            explanation=(f"{candidates[0]} has the largest scaled index "
                         "of dispersion among regions with significant "
                         "time share — tune it first."),
        ))

    order = {severity: rank for rank, severity
             in enumerate(reversed(SEVERITIES))}
    findings.sort(key=lambda finding: (order[finding.severity],
                                       finding.kind, finding.where))
    return tuple(findings)


def render_diagnosis(findings: Tuple[Finding, ...]) -> str:
    """Plain-text diagnosis report."""
    if not findings:
        return "no findings: the program looks balanced"
    lines = ["Diagnosis", "=" * 9]
    for finding in findings:
        lines.append(f"[{finding.severity:6s}] {finding.kind} "
                     f"@ {finding.where}")
        lines.append(f"         {finding.explanation}")
    return "\n".join(lines)
