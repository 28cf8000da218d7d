"""What-if modeling: the payoff of balancing each region.

The scaled indices rank regions by *relative* imbalance; a tuner also
wants the *absolute* payoff: "if I perfectly balanced region i, how
much faster would the program get?"  Under the tensor model the answer
is computable: balancing a region replaces each activity's wall clock
``max_p t_ijp`` by the ideal ``mean_p t_ijp`` (the same work spread
evenly), so the region's time drops by

    saving_i = Σ_j ( max_p t_ijp − mean_p t_ijp )

and the predicted program time is ``T − saving_i``.  This is the
region-level generalization of the classic *imbalance time* metric and
an upper bound on what any redistribution of the same work can achieve
(communication left unchanged).

:func:`balance_predictions` evaluates every region (plus the repair of
all of them combined) and returns them ordered by payoff — directly
comparable with the methodology's `SID_C` ranking, which the what-if
bench does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import MeasurementError
from .measurements import MeasurementSet


@dataclass(frozen=True)
class BalancePrediction:
    """Predicted effect of perfectly balancing one region."""

    region: str
    #: Seconds saved: sum over activities of (max - mean).
    saving: float
    #: Program wall clock if only this region were balanced.
    predicted_total: float
    #: Predicted speedup T / predicted_total.
    speedup: float
    #: The saving as a share of the program wall clock.
    share_of_total: float


def _region_saving(measurements: MeasurementSet, i: int) -> float:
    times = measurements.times[i]               # (K, P)
    performed = times.max(axis=1) > 0.0
    if not performed.any():
        return 0.0
    maxima = times[performed].max(axis=1)
    means = times[performed].mean(axis=1)
    return float((maxima - means).sum())


def balance_predictions(measurements: MeasurementSet
                        ) -> Tuple[BalancePrediction, ...]:
    """Per-region balancing payoff, ordered by decreasing saving."""
    total = measurements.total_time
    predictions = []
    for i, region in enumerate(measurements.regions):
        saving = _region_saving(measurements, i)
        predicted = total - saving
        if predicted <= 0.0:
            raise MeasurementError(
                f"inconsistent measurements: balancing {region!r} "
                "would produce a non-positive program time")
        predictions.append(BalancePrediction(
            region=region,
            saving=saving,
            predicted_total=predicted,
            speedup=total / predicted,
            share_of_total=saving / total,
        ))
    predictions.sort(key=lambda prediction: (-prediction.saving,
                                             prediction.region))
    return tuple(predictions)


def balance_everything(measurements: MeasurementSet) -> BalancePrediction:
    """The combined repair: every region perfectly balanced."""
    total = measurements.total_time
    saving = sum(_region_saving(measurements, i)
                 for i in range(measurements.n_regions))
    predicted = total - saving
    if predicted <= 0.0:
        raise MeasurementError(
            "inconsistent measurements: balancing everything would "
            "produce a non-positive program time")
    return BalancePrediction(
        region="(all regions)",
        saving=float(saving),
        predicted_total=predicted,
        speedup=total / predicted,
        share_of_total=saving / total,
    )


def render_predictions(predictions: Tuple[BalancePrediction, ...]) -> str:
    """Text table of the what-if study."""
    from ..viz.tables import format_table
    rows = [[prediction.region,
             f"{prediction.saving:.4g}",
             f"{prediction.share_of_total:.2%}",
             f"{prediction.speedup:.3f}x"]
            for prediction in predictions]
    return format_table(
        ["region", "saving (s)", "share of T", "speedup if balanced"],
        rows, title="What-if: perfectly balancing one region")


def balance_activity_predictions(measurements: MeasurementSet
                                 ) -> Tuple[BalancePrediction, ...]:
    """The activity-axis counterpart of :func:`balance_predictions`:
    the payoff of perfectly balancing one *activity* across every region
    that performs it."""
    total = measurements.total_time
    predictions = []
    for j, activity in enumerate(measurements.activities):
        saving = 0.0
        for i in range(measurements.n_regions):
            times = measurements.times[i, j, :]
            if times.max() > 0.0:
                saving += float(times.max() - times.mean())
        predicted = total - saving
        if predicted <= 0.0:
            raise MeasurementError(
                f"inconsistent measurements: balancing {activity!r} "
                "would produce a non-positive program time")
        predictions.append(BalancePrediction(
            region=activity, saving=saving, predicted_total=predicted,
            speedup=total / predicted, share_of_total=saving / total))
    predictions.sort(key=lambda prediction: (-prediction.saving,
                                             prediction.region))
    return tuple(predictions)


@dataclass(frozen=True)
class ExcessAttribution:
    """Who causes a region's imbalance: per-processor excess seconds."""

    region: str
    #: (P,) seconds each processor spends beyond the region's per-
    #: processor mean (negative = below the mean).
    excess: Tuple[float, ...]

    @property
    def worst_processor(self) -> int:
        """Zero-based index of the largest excess."""
        return max(range(len(self.excess)),
                   key=lambda p: self.excess[p])

    def offenders(self, minimum_share: float = 0.25) -> Tuple[int, ...]:
        """Processors carrying at least ``minimum_share`` of the total
        positive excess, ordered worst first."""
        positive = [(value, p) for p, value in enumerate(self.excess)
                    if value > 0.0]
        total = sum(value for value, _ in positive)
        if total <= 0.0:
            return ()
        positive.sort(reverse=True)
        return tuple(p for value, p in positive
                     if value >= minimum_share * total)


def excess_by_processor(measurements: MeasurementSet,
                        region: str) -> ExcessAttribution:
    """Attribute a region's imbalance to processors.

    Excess of processor p = its total time in the region minus the
    per-processor mean; the positive excesses sum to the work that
    would move if the region were balanced.
    """
    i = measurements.region_index(region)
    totals = measurements.times[i].sum(axis=0)
    if totals.max() <= 0.0:
        raise MeasurementError(f"region {region!r} recorded no time")
    mean = totals.mean()
    return ExcessAttribution(
        region=region,
        excess=tuple(float(value - mean) for value in totals),
    )
