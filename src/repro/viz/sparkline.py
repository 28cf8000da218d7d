"""Unicode sparklines and per-window heatmaps for temporal series.

The time-resolved analysis produces one imbalance value per window per
region; these renderers compress such series into single terminal lines
(sparklines) or a region x window shade grid (temporal heatmap), the
dynamic sibling of :func:`repro.viz.render_heatmap`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from ..errors import MeasurementError

#: Eight-level block characters, lowest to highest.
SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Placeholder for windows without a value (region idle).
SPARK_GAP = "·"


def render_sparkline(values: Sequence[float],
                     lo: Optional[float] = None,
                     hi: Optional[float] = None) -> str:
    """One block character per value, scaled into ``[lo, hi]``.

    Bounds default to the finite extent of the series; nan values render
    as ``·``.  A constant series renders at the lowest level (its shape
    carries no information — pair it with the printed mean).
    """
    series = np.asarray(list(values), dtype=float)
    if series.size == 0:
        raise MeasurementError("cannot render an empty sparkline")
    finite = series[np.isfinite(series)]
    if finite.size == 0:
        return SPARK_GAP * series.size
    low = float(finite.min()) if lo is None else float(lo)
    high = float(finite.max()) if hi is None else float(hi)
    span = high - low
    top = len(SPARK_LEVELS) - 1
    levels = np.zeros(series.size, dtype=np.intp)
    shown = np.isfinite(series)
    if span > 0.0:
        # Rounded half up, then clamped: clamping before the cast to
        # int (which truncates) gives the same level for every value.
        scaled = (series[shown] - low) / span * top + 0.5
        levels[shown] = np.clip(scaled, 0, top).astype(np.intp)
    glyphs = np.array([*SPARK_LEVELS, SPARK_GAP])
    levels[~shown] = top + 1
    return "".join(glyphs[levels].tolist())


def render_temporal_heatmap(series_by_name: Mapping[str, Sequence[float]],
                            title: str = "imbalance over windows") -> str:
    """Shade grid of per-window series: names down, windows across.

    All rows share one global scale (the maximum finite value over every
    series), so rows are directly comparable; nan cells render as ``·``.
    """
    names = list(series_by_name)
    if not names:
        raise MeasurementError("nothing to plot: no series given")
    rows = [np.asarray(list(series_by_name[name]), dtype=float)
            for name in names]
    lengths = {row.size for row in rows}
    if len(lengths) != 1:
        raise MeasurementError("all series must cover the same windows")
    if 0 in lengths:
        raise MeasurementError("cannot plot empty series")
    stacked = np.stack(rows)
    finite = stacked[np.isfinite(stacked)]
    high = float(finite.max()) if finite.size else 0.0
    label_width = max(len(name) for name in names)
    lines = [title, "=" * len(title)]
    for name, row in zip(names, rows):
        cells = render_sparkline(row, lo=0.0, hi=high if high > 0.0
                                 else 1.0)
        lines.append(f"{name.ljust(label_width)} |{cells}|")
    n_windows = rows[0].size
    lines.append(f"{''.ljust(label_width)}  windows 0..{n_windows - 1}, "
                 f"▁=0 █={high:.4g}")
    return "\n".join(lines)
