"""The end-to-end top-down methodology (paper §2–§3).

:class:`Methodology` drives the whole analysis a user would run on the
measurements of a parallel program:

1. coarse grain — wall clock breakdown, dominant activity, heaviest
   region, per-activity extremes, clustering of regions;
2. fine grain — the three dissimilarity views (processor, activity,
   code region) with a chosen index of dispersion;
3. ranking — candidates for tuning under a chosen criterion, combining a
   large index of dispersion with a non-negligible share of program time.

The result, :class:`AnalysisResult`, is a plain data object; rendering it
as the paper's tables lives in :mod:`repro.core.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from ..errors import ReproError
from .breakdown import ProgramBreakdown, characterize
from .clustering import cluster_regions
from .measurements import MeasurementSet
from .patterns import PatternGrid, _pattern_grids
from .ranking import RankingResult
from .views import ActivityView, CodeRegionView, ProcessorView


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the methodology derives from one measurement set."""

    measurements: MeasurementSet
    breakdown: ProgramBreakdown
    region_clusters: Tuple[Tuple[str, ...], ...]
    processor_view: ProcessorView
    activity_view: ActivityView
    region_view: CodeRegionView
    activity_ranking: RankingResult
    region_ranking: RankingResult

    @cached_property
    def patterns(self) -> Tuple[PatternGrid, ...]:
        """The band-pattern grid of every performed activity, classified
        on first access (only the pattern figures and the calibration
        read them)."""
        return _pattern_grids(self.measurements)

    @property
    def tuning_candidates(self) -> Tuple[str, ...]:
        """Regions combining imbalance with significant program time."""
        return self.region_view.tuning_candidates()

    def pattern(self, activity: str) -> PatternGrid:
        """The band-pattern grid of one activity."""
        for grid in self.patterns:
            if grid.activity == activity:
                return grid
        raise ReproError(f"no pattern grid for activity {activity!r}")


@dataclass(frozen=True)
class Methodology:
    """Configuration of the top-down analysis.

    Parameters
    ----------
    index:
        Index of dispersion for the activity/region views (default: the
        paper's Euclidean distance).
    weighting:
        ``"time"`` for the paper's time-weighted averages, ``"uniform"``
        for the ablation variant.
    criterion / criterion_parameters:
        Ranking criterion applied to the scaled indices
        (``"maximum"``, ``"percentile"`` or ``"threshold"``).
    cluster_count:
        Number of region clusters for the coarse-grain grouping; ``None``
        disables clustering (e.g. too few regions).
    seed:
        Seed for the clustering restarts.
    """

    index: str = "euclidean"
    weighting: str = "time"
    criterion: str = "maximum"
    criterion_parameters: dict = field(default_factory=dict)
    cluster_count: Optional[int] = 2
    seed: int = 0

    def analyze(self, measurements: MeasurementSet,
                session: Optional["AnalysisSession"] = None
                ) -> AnalysisResult:
        """Run the full methodology on one measurement set.

        Pass an :class:`~repro.core.batch.AnalysisSession` to share its
        cached dispersion matrices and processor view (the session
        creates one analysis per option set and memoizes it); without
        one, a private session backs this single run.
        """
        from .batch import AnalysisSession
        if session is None:
            session = AnalysisSession(measurements)
        breakdown = characterize(measurements)
        if self.cluster_count and measurements.n_regions > self.cluster_count:
            clusters = cluster_regions(measurements, self.cluster_count,
                                       seed=self.seed)
        else:
            clusters = (tuple(measurements.regions),)
        processor_view = session.processor_view()
        activity_view, region_view = session.views(self.index,
                                                   self.weighting)
        activity_ranking, region_ranking = (
            session.ranking(kind, self.criterion, self.index, self.weighting,
                            **self.criterion_parameters)
            for kind in ("activity", "region"))
        return AnalysisResult(
            measurements=measurements,
            breakdown=breakdown,
            region_clusters=clusters,
            processor_view=processor_view,
            activity_view=activity_view,
            region_view=region_view,
            activity_ranking=activity_ranking,
            region_ranking=region_ranking,
        )


def analyze(measurements: MeasurementSet, session=None,
            **options) -> AnalysisResult:
    """One-call entry point: ``analyze(measurements)`` runs the paper's
    methodology with its default choices.

    ``session`` optionally names an
    :class:`~repro.core.batch.AnalysisSession` whose caches should back
    (and memoize) the run.
    """
    return Methodology(**options).analyze(measurements, session=session)
