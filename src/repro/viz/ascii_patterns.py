"""ASCII rendering of the paper's Figures 1 and 2.

The figures show, per loop, one colored cell per processor.  Here colors
become characters:

* ``#`` — the maximum time of the loop;
* ``.`` — the minimum;
* ``+`` — upper 15% interval;
* ``-`` — lower 15% interval;
* `` `` (space, drawn as ``o``) — mid values.

:func:`render_pattern_grid` prints a grid with a legend; loops that do
not perform the activity are omitted, exactly as in the paper.  A
report document holds a grid as :func:`pattern_rows`.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..core.patterns import Band, PatternGrid

#: Character used for each band.
BAND_CHARS: Dict[Band, str] = {
    Band.MAX: "#",
    Band.MIN: ".",
    Band.UPPER: "+",
    Band.LOWER: "-",
    Band.MID: "o",
}

LEGEND = ("legend: # max   + upper 15%   o mid   - lower 15%   . min")


def pattern_rows(grid: PatternGrid) -> Dict[str, str]:
    """Each listed region's band row as a string of :data:`BAND_CHARS`."""
    return {region: "".join(BAND_CHARS[band] for band in bands)
            for region, bands in zip(grid.regions, grid.rows)}


def render_pattern_rows(activity: str, rows: Mapping[str, str]) -> str:
    """Render one activity's :func:`pattern_rows` with labels and legend."""
    width = max((len(region) for region in rows), default=0)
    lines = [activity, "=" * max(len(activity), 1)]
    lines += [f"{region.ljust(width)}  " + "".join(f"[{band}]" for band in row)
              for region, row in rows.items()]
    lines.append(LEGEND)
    return "\n".join(lines)


def render_pattern_grid(grid: PatternGrid) -> str:
    """Render a whole activity's pattern grid with labels and legend."""
    return render_pattern_rows(grid.activity, pattern_rows(grid))
