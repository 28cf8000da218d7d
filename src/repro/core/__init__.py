"""The paper's contribution: the load-imbalance analysis methodology.

Public surface:

* :class:`MeasurementSet` — the ``t_ijp`` tensor with labels and the
  aggregation conventions;
* standardization, indices of dispersion and majorization theory;
* the three dissimilarity views and their ranking criteria;
* coarse-grain characterization, clustering and pattern classification;
* :func:`analyze` / :class:`Methodology` — the end-to-end pipeline;
* :class:`BatchAnalysis` / :class:`AnalysisSession` — the vectorized
  batch engine and its memoization layer (:mod:`repro.core.batch`);
* report rendering (the paper's tables as text).

Every name loads its submodule on first access (PEP 562, see
:mod:`repro._lazy`).
"""

from .._lazy import exported_names, lazy_namespace

# Functions named like their own module, bound before anything can
# import the module and rebind the package attribute to it.
from .efficiency import efficiency
from .standardize import standardize

_EXPORTS = {
    "batch": ("AnalysisSession", "BatchAnalysis"),
    "breakdown": ("ActivityExtremes", "ProgramBreakdown", "characterize"),
    "bootstrap": ("BootstrapInterval", "bootstrap_interval",
                  "region_intervals"),
    "clustering": ("KMeansResult", "choose_k", "cluster_regions", "kmeans",
                   "silhouette_score"),
    "dispersion": ("available_indices", "coefficient_of_variation",
                   "euclidean_distance", "get_index", "gini_coefficient",
                   "imbalance_time", "mean_absolute_deviation",
                   "register_index", "theil_index", "variance"),
    "majorization": ("balanced_vector", "comparable", "concentrated_vector",
                     "equivalent", "lorenz_curve", "lorenz_dominates",
                     "majorizes", "spread_order", "t_transform",
                     "weakly_majorizes"),
    "measurements": ("DEFAULT_ACTIVITIES", "MeasurementSet"),
    "methodology": ("AnalysisResult", "Methodology", "analyze"),
    "online": ("OnlineAccumulator", "TraceLayout"),
    "patterns": ("BANDS", "Band", "PatternGrid", "band_counts", "classify",
                 "pattern_grid"),
    "ranking": ("RankedItem", "RankingResult", "agreement",
                "kendall_distance", "rank", "rank_by_elbow",
                "rank_by_maximum", "rank_by_percentile", "rank_by_share",
                "rank_by_threshold"),
    "comparison": ("ComparisonReport", "RegionDelta", "compare",
                   "render_comparison"),
    "report": ("render_activity_view_table", "render_breakdown_table",
               "render_dispersion_table", "render_full_report",
               "report_to_dict", "render_processor_view_table",
               "render_region_view_table",
               "render_summary"),
    "temporal": ("ActivityTrend", "Phase", "RegionTrend",
                 "TemporalAnalysis", "detect_phases", "temporal_analysis"),
    "diagnosis": ("Finding", "diagnose", "render_diagnosis"),
    "efficiency": ("Efficiency", "ScalingPoint", "efficiency",
                   "render_efficiency_table", "scaling_analysis"),
    "whatif": ("BalancePrediction", "ExcessAttribution",
               "balance_activity_predictions", "balance_everything",
               "balance_predictions", "excess_by_processor",
               "render_predictions"),
    "significance": ("NoiseModel", "noise_quantile", "p_value"),
    "standardize": ("balanced_point", "standardize", "standardize_along",
                    "standardize_over_activities",
                    "standardize_over_processors",
                    "standardize_region_profiles"),
    "views": ("ActivityView", "CodeRegionView", "ProcessorSummary",
              "ProcessorView", "compute_activity_and_region_views",
              "compute_activity_view", "compute_processor_view",
              "compute_region_view", "dispersion_matrix"),
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)

__all__ = exported_names(_EXPORTS)
