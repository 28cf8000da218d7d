"""Reproduce every table and figure of the paper's application example.

Run:  python examples/paper_reproduction.py

Reconstructs the PACT 2003 dataset (the original tracefile is lost; the
reconstruction satisfies every published aggregate — see
repro/calibrate/reconstruct.py), then regenerates Tables 1-4, Figures
1-2 and the §4 narrative, printing paper-vs-ours side by side.
"""

import numpy as np

from repro.calibrate import paper_data, reconstruct, verify
from repro.core import (analyze, pattern_grid, render_breakdown_table,
                        render_dispersion_table, report_to_dict)
from repro.viz import format_table, render_pattern_grid


def table3_comparison(view) -> str:
    rows = [[activity,
             f"{paper_data.TABLE_3_ID_A[activity]:.5f}",
             f"{view.index[j]:.5f}",
             f"{paper_data.TABLE_3_SID_A[activity]:.5f}",
             f"{view.scaled_index[j]:.5f}"]
            for j, activity in enumerate(view.activities)]
    return format_table(["activity", "ID_A paper", "ID_A ours",
                         "SID_A paper", "SID_A ours"], rows,
                        title="Table 3 — activity view")


def table4_comparison(view) -> str:
    rows = [[region,
             f"{paper_data.TABLE_4_ID_C[region]:.5f}",
             f"{view.index[i]:.5f}",
             f"{paper_data.TABLE_4_SID_C[region]:.5f}",
             f"{view.scaled_index[i]:.5f}"]
            for i, region in enumerate(view.regions)]
    return format_table(["region", "ID_C paper", "ID_C ours",
                         "SID_C paper", "SID_C ours"], rows,
                        title="Table 4 — code region view")


def main() -> None:
    measurements = reconstruct()
    report = verify(measurements)
    print("Reconstruction constraint check:")
    print(report.describe())
    assert report.passed

    analysis = analyze(measurements)
    document = report_to_dict(analysis)
    print("\n" + render_breakdown_table(document))
    print("\n" + render_dispersion_table(document))
    print("\n" + table3_comparison(analysis.activity_view))
    print("\n" + table4_comparison(analysis.region_view))

    print("\nFigure 1 —", end=" ")
    print(render_pattern_grid(pattern_grid(measurements, "computation")))
    print("\nFigure 2 —", end=" ")
    print(render_pattern_grid(pattern_grid(measurements, "point-to-point")))

    summary = analysis.processor_view.summary()
    print("\n§4 narrative:")
    print(f"  clusters: "
          + "; ".join("{" + ", ".join(g) + "}"
                      for g in analysis.region_clusters)
          + "   (paper: {loop 1, loop 2} vs the rest)")
    print(f"  most frequently imbalanced: processor "
          f"{summary.most_frequent + 1} on {summary.most_frequent_count} "
          f"loops (paper: processor 1 on loops 3 and 7)")
    print(f"  imbalanced for the longest time: processor "
          f"{summary.longest + 1}, {summary.longest_time:.2f} s "
          f"(paper: processor 2, 15.93 s)")
    loop1 = measurements.region_index("loop 1")
    id_p = analysis.processor_view.dispersion[loop1, 1]
    print(f"  processor 2's ID_P on loop 1: {id_p:.5f} (paper: 0.25754)")
    print(f"  most imbalanced activity: "
          f"{analysis.activity_view.most_imbalanced()} "
          "(paper: synchronization, negligible once scaled)")
    print(f"  most imbalanced region: "
          f"{analysis.region_view.most_imbalanced()} (paper: loop 6)")
    print(f"  tuning candidate: {analysis.tuning_candidates[0]} "
          "(paper: loop 1)")


if __name__ == "__main__":
    main()
