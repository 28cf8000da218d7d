"""ASCII heatmaps of the measurement tensor.

A shaded grid — regions down, processors across — showing each
processor's share of a region's time relative to the balanced 1/P:

* `` `` (blank)  well below balanced (< 50%)
* ``.``          below balanced
* ``:``          about balanced (within ±10%)
* ``*``          above balanced
* ``#``          well above balanced (> 150%)

The heatmap is the quantitative sibling of the paper's Figures 1–2: the
figures show bands within each row's own range, while the heatmap is
normalized against perfect balance so rows are comparable.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.measurements import MeasurementSet
from ..errors import MeasurementError

#: Shade thresholds, as multiples of the balanced share 1/P.
_SHADES = (
    (0.50, " "),
    (0.90, "."),
    (1.10, ":"),
    (1.50, "*"),
    (np.inf, "#"),
)

HEATMAP_LEGEND = ("legend (share vs balanced 1/P): "
                  "' '<50%  .<90%  :~100%  *<150%  #>150%")


def _shade(ratio: float) -> str:
    for threshold, character in _SHADES:
        if ratio < threshold:
            return character
    return "#"


def share_rows(measurements: MeasurementSet,
               activity: Optional[str] = None) -> Dict[str, List[float]]:
    """Each region's per-processor shares of its time (of ``activity``'s
    time, if given); empty for a region without time in that slice."""
    if activity is not None:
        grid = measurements.times[:, measurements.activity_index(activity), :]
    else:
        grid = measurements.processor_region_times()
    return {region: (row / row.sum()).tolist() if row.sum() > 0.0 else []
            for region, row in zip(measurements.regions, grid)}


def render_heatmap(measurements: MeasurementSet,
                   activity: Optional[str] = None) -> str:
    """Render the per-processor share heatmap of ``activity``'s times,
    or of each region's total per-processor times; regions without time
    in the selected slice are omitted."""
    return render_shares(share_rows(measurements, activity),
                         measurements.n_processors,
                         f"share heatmap — {activity or 'all activities'}")


def render_shares(rows: Mapping[str, Sequence[float]], n_processors: int,
                  title: str = "share heatmap — all activities") -> str:
    """Render :func:`share_rows` of ``n_processors`` processors."""
    balanced = 1.0 / n_processors
    label_width = max(len(region) for region in rows)
    lines = [title, "=" * len(title)]
    lines += [f"{region.ljust(label_width)} |"
              + "".join(_shade(float(share) / balanced) for share in shares)
              + "|" for region, shares in rows.items() if shares]
    if len(lines) == 2:
        raise MeasurementError("nothing to plot: the selected slice is "
                               "entirely zero")
    lines.append(f"{''.ljust(label_width)}  processors 0.."
                 f"{n_processors - 1}")
    lines.append(HEATMAP_LEGEND)
    return "\n".join(lines)
