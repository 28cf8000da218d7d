"""Plain-text visualization: aligned tables and ASCII pattern figures."""

from .ascii_patterns import BAND_CHARS, render_pattern_grid
from .heatmap import HEATMAP_LEGEND, render_heatmap
from .lorenz import gini_summary, render_lorenz, render_region_lorenz
from .sparkline import (SPARK_GAP, SPARK_LEVELS, render_sparkline,
                        render_temporal_heatmap)
from .tables import format_float_table, format_table
from .timeline import ACTIVITY_CHARS, render_timeline

__all__ = [
    "BAND_CHARS",
    "render_pattern_grid",
    "HEATMAP_LEGEND",
    "render_heatmap",
    "SPARK_GAP",
    "SPARK_LEVELS",
    "render_sparkline",
    "render_temporal_heatmap",
    "gini_summary",
    "render_lorenz",
    "render_region_lorenz",
    "format_float_table",
    "format_table",
    "ACTIVITY_CHARS",
    "render_timeline",
]
