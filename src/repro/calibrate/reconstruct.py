"""Reconstruction of the paper's per-processor dataset.

The original tracefile of the PACT 2003 application example (a CFD code
on 16 processors of an IBM SP2) is not available.  Its *aggregates*,
however, are published exhaustively: Table 1 fixes every ``t_ij``,
Table 2 fixes every index of dispersion ``ID_ij``, and the §4 narrative
pins down the processor view (which processor tops which loop, with what
index, for how long) and two pattern counts read off Figure 1.

This module solves for a full ``t_ijp`` tensor satisfying all of it:

* every printed ``t_ij`` is reproduced exactly (``max`` aggregation);
* every printed ``ID_ij`` is reproduced to machine precision;
* processor 1 attains the largest ``ID_P`` exactly on loops 3 and 7;
* processor 2 attains it exactly on loop 1, with ``ID_P = 0.25754`` and
  a loop-1 wall clock of 15.93 s;
* each remaining loop is topped by a distinct other processor, so the
  "most frequently / longest imbalanced" conclusions match the paper;
* on loop 4, computation times of 5 of 16 processors fall in the upper
  15% band; on loop 6, 11 of 16 fall in the lower 15% band (Figure 1);
* k-means on the loops' activity profiles yields {loop 1, loop 2} vs the
  rest (§4).

Because Tables 3 and 4 are deterministic functions of Tables 1 and 2,
the reconstruction reproduces them automatically.

Construction
------------
Each performed ``(loop, activity)`` slice is built as standardized
shares ``1/P + ID_ij * u`` for a designed zero-mean unit direction ``u``
(see :mod:`repro.calibrate.directions`), then scaled so the slowest
processor matches ``t_ij``.  Most directions are *spotlights* that
concentrate the deviation on the loop's designated imbalanced processor;
loops 4 and 6 use banded shapes realizing the Figure 1 counts.  Loop 1
is over-constrained (three exact targets interact through the processor
view), so its collective-communication slice is found by a two-variable
root solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import optimize

from ..core.clustering import cluster_regions
from ..core.measurements import MeasurementSet
from ..core.patterns import Band, band_counts, pattern_grid
from ..core.views import compute_processor_view, dispersion_matrix
from ..errors import CalibrationError
from . import paper_data
from .directions import (direction_from_shape, shares, spotlight,
                         times_from_shares)

#: Zero-based index of the processor each loop's dissimilarity is
#: concentrated on (the paper's "processor 1" is index 0).  Loop 1 ->
#: processor 2, loops 3 and 7 -> processor 1, the rest -> distinct
#: processors, which makes processor 1 the unique most-frequent winner.
DESIGNATED_PROCESSOR: Dict[str, int] = {
    "loop 1": 1,
    "loop 2": 2,
    "loop 3": 0,
    "loop 4": 3,
    "loop 5": 4,
    "loop 6": 5,
    "loop 7": 0,
}

_P = paper_data.PROCESSORS


def _loop4_computation_shape() -> np.ndarray:
    """Banded shape for loop 4's computation: the designated processor at
    the maximum, five processors in the upper 15% band, the rest low."""
    shape = np.empty(_P)
    designated = DESIGNATED_PROCESSOR["loop 4"]
    shape[designated] = 1.30
    upper = [4, 5, 6, 7, 8]
    for offset, processor in enumerate(upper):
        shape[processor] = 1.20 - 0.01 * offset
    low = [p for p in range(_P) if p != designated and p not in upper]
    for offset, processor in enumerate(low):
        shape[processor] = 0.00 + 0.01 * offset
    return shape


def _loop6_computation_shape() -> np.ndarray:
    """Banded shape for loop 6's computation: the designated processor at
    the minimum, eleven processors in the lower 15% band, four high."""
    shape = np.empty(_P)
    designated = DESIGNATED_PROCESSOR["loop 6"]
    shape[designated] = 0.20
    high = [12, 13, 14, 15]
    for offset, processor in enumerate(high):
        shape[processor] = 1.30 - 0.04 * offset   # one max, three upper
    low = [p for p in range(_P) if p != designated and p not in high]
    for offset, processor in enumerate(low):
        shape[processor] = 0.25 + 0.008 * offset  # inside the lower band
    return shape


def _slice_times(region: str, activity: str,
                 direction: np.ndarray) -> np.ndarray:
    """Times of one (region, activity) slice from a direction."""
    i = paper_data.REGIONS.index(region)
    j = paper_data.ACTIVITIES.index(activity)
    dispersion = float(paper_data.TABLE_2[i, j])
    wall_clock = float(paper_data.TABLE_1[i, j])
    return times_from_shares(shares(_P, dispersion, direction), wall_clock)


def _euclidean_of_times(times: np.ndarray) -> float:
    standardized = times / times.sum()
    return float(np.linalg.norm(standardized - standardized.mean()))


def _processor_view_of_region(region_times: np.ndarray) -> np.ndarray:
    """``ID_P`` of every processor for one region given its (K, P) times."""
    performed = region_times.max(axis=1) > 0.0
    profiles = region_times[performed]
    totals = profiles.sum(axis=0, keepdims=True)
    standardized = profiles / totals
    deviations = standardized - standardized.mean(axis=1, keepdims=True)
    return np.sqrt((deviations ** 2).sum(axis=0))


def _loop1_times() -> np.ndarray:
    """Solve loop 1's (K, P) times.

    Loop 1 carries the paper's exact processor-view targets, which
    over-constrain simple spotlight shapes.  Computation and
    synchronization are spotlights on the designated processor
    (processor 2); its collective time is then fixed by the printed
    15.93 s loop wall clock.  The remaining 14 free collective times are
    found with SLSQP under two equality constraints — the printed
    ``ID_coll`` and the printed ``ID_P = 0.25754`` — with a hinge
    objective that keeps every *other* processor's ``ID_P`` safely below
    the designated one (so processor 2 is the unique winner, as the
    paper reports), bounded by the 6.75 s collective wall clock.
    """
    designated = DESIGNATED_PROCESSOR["loop 1"]
    i = paper_data.REGIONS.index("loop 1")
    t_comp, _, t_coll, t_sync = paper_data.TABLE_1[i]
    d_comp, _, d_coll, d_sync = paper_data.TABLE_2[i]

    comp = times_from_shares(
        shares(_P, d_comp, spotlight(_P, designated, +1)), t_comp)
    sync = times_from_shares(
        shares(_P, d_sync, spotlight(_P, designated, +1)), t_sync)
    # Processor 2's loop-1 wall clock is printed: 15.93 s.  Computation
    # and synchronization are fixed above, so its collective time is
    # determined.
    coll_designated = (paper_data.LONGEST_PROCESSOR_TIME -
                       comp[designated] - sync[designated])
    if coll_designated <= 0.0:
        raise CalibrationError("loop 1 constraints are inconsistent")

    pinned = _P - 1   # one processor carries the 6.75 s collective maximum
    free = [p for p in range(_P) if p not in (designated, pinned)]

    def coll_vector(values: np.ndarray) -> np.ndarray:
        coll = np.empty(_P)
        coll[designated] = coll_designated
        coll[pinned] = t_coll
        coll[free] = values
        return coll

    def id_p_of(values: np.ndarray) -> np.ndarray:
        region = np.stack([comp, np.zeros(_P), coll_vector(values), sync])
        return _processor_view_of_region(region)

    def dispersion_residual(values: np.ndarray) -> float:
        return _euclidean_of_times(coll_vector(values)) - d_coll

    def processor_residual(values: np.ndarray) -> float:
        return (id_p_of(values)[designated] -
                paper_data.LONGEST_PROCESSOR_ID_P)

    margin = paper_data.LONGEST_PROCESSOR_ID_P - 0.035
    initial = np.linspace(0.94 * t_coll, 0.6 * t_coll, len(free))

    def objective(values: np.ndarray) -> float:
        others = np.delete(id_p_of(values), designated)
        hinge = np.maximum(0.0, others - margin)
        regularizer = 1e-6 * float(((values - initial) ** 2).sum())
        return float((hinge ** 2).sum()) + regularizer

    solution = optimize.minimize(
        objective, initial, method="SLSQP",
        bounds=[(0.0, t_coll)] * len(free),
        constraints=[
            {"type": "eq", "fun": dispersion_residual},
            {"type": "eq", "fun": processor_residual},
        ],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    if not solution.success:
        raise CalibrationError(
            f"loop-1 SLSQP solve failed: {solution.message}")
    coll = coll_vector(solution.x)
    region = np.stack([comp, np.zeros(_P), coll, sync])
    id_p = _processor_view_of_region(region)
    winner = int(np.argmax(id_p))
    runner_up = float(np.sort(id_p)[-2])
    if winner != designated or runner_up >= id_p[designated] - 1e-3:
        raise CalibrationError(
            f"loop-1 solve left processor {winner + 1} as imbalanced as "
            f"processor {designated + 1} (runner-up {runner_up:.5f})")
    return region


def _simple_region(region: str,
                   signs: Dict[str, int],
                   comp_shape: Optional[np.ndarray] = None) -> np.ndarray:
    """(K, P) times of a region whose slices are spotlights on its
    designated processor (per-activity ``signs``), except an optional
    banded computation shape."""
    designated = DESIGNATED_PROCESSOR[region]
    i = paper_data.REGIONS.index(region)
    rows = []
    for j, activity in enumerate(paper_data.ACTIVITIES):
        if paper_data.TABLE_1[i, j] <= 0.0:
            rows.append(np.zeros(_P))
            continue
        if activity == "computation" and comp_shape is not None:
            direction = direction_from_shape(comp_shape)
        else:
            direction = spotlight(_P, designated, signs[activity])
        rows.append(_slice_times(region, activity, direction))
    return np.stack(rows)


def reconstruct(verify_constraints: bool = True) -> MeasurementSet:
    """Build the reconstructed measurement set of the paper's §4 example.

    The result has ``N = 7`` loops, ``K = 4`` activities, ``P = 16``
    processors, ``max`` aggregation and the fitted program wall clock
    ``T ≈ 69.94 s``.  With ``verify_constraints`` (the default) every
    published constraint is re-checked and a :class:`CalibrationError`
    carries the first violation.
    """
    regions = {
        "loop 1": _loop1_times(),
        "loop 2": _simple_region("loop 2", {"computation": +1,
                                            "collective": -1,
                                            "synchronization": +1}),
        "loop 3": _simple_region("loop 3", {"computation": +1,
                                            "point-to-point": -1}),
        "loop 4": _simple_region("loop 4", {"computation": +1,
                                            "point-to-point": +1},
                                 comp_shape=_loop4_computation_shape()),
        "loop 5": _simple_region("loop 5", {"computation": +1,
                                            "point-to-point": +1,
                                            "collective": -1,
                                            "synchronization": +1}),
        "loop 6": _simple_region("loop 6", {"computation": +1,
                                            "point-to-point": +1,
                                            "synchronization": +1},
                                 comp_shape=_loop6_computation_shape()),
        "loop 7": _simple_region("loop 7", {"computation": +1,
                                            "collective": -1}),
    }
    tensor = np.stack([regions[region] for region in paper_data.REGIONS])
    measurements = MeasurementSet(
        tensor,
        regions=paper_data.REGIONS,
        activities=paper_data.ACTIVITIES,
        total_time=paper_data.TOTAL_TIME,
        aggregation="max",
    )
    if verify_constraints:
        report = verify(measurements)
        if not report.passed:
            raise CalibrationError(
                "reconstruction violates published constraints:\n"
                + report.describe_failures())
    return measurements


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of checking a tensor against every published constraint."""

    checks: Dict[str, Tuple[bool, str]]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def describe_failures(self) -> str:
        return "\n".join(f"  {name}: {detail}"
                         for name, (ok, detail) in self.checks.items()
                         if not ok)

    def describe(self) -> str:
        return "\n".join(
            f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}"
            for name, (ok, detail) in self.checks.items())


def verify(measurements: MeasurementSet) -> CalibrationReport:
    """Check a measurement set against everything the paper publishes."""
    checks: Dict[str, Tuple[bool, str]] = {}

    def record(name: str, ok: bool, detail: str) -> None:
        checks[name] = (bool(ok), detail)

    t_ij = measurements.region_activity_times
    table_error = float(np.abs(t_ij - paper_data.TABLE_1).max())
    record("table 1 (t_ij)", table_error < 1e-9,
           f"max |t_ij - paper| = {table_error:.2e}")

    matrix = dispersion_matrix(measurements)
    mask = ~np.isnan(paper_data.TABLE_2)
    same_support = bool(np.array_equal(mask, ~np.isnan(matrix)))
    record("table 2 support", same_support,
           "performed activities match the dashes")
    id_error = float(np.abs(matrix[mask] - paper_data.TABLE_2[mask]).max()) \
        if same_support else float("inf")
    record("table 2 (ID_ij)", id_error < 1e-6,
           f"max |ID_ij - paper| = {id_error:.2e}")

    view = compute_processor_view(measurements)
    winners = {region: int(np.argmax(view.dispersion[i, :]))
               for i, region in enumerate(measurements.regions)}
    expected_winners = dict(DESIGNATED_PROCESSOR)
    record("processor-view winners", winners == expected_winners,
           f"winners: {winners}")
    summary = view.summary()
    record("most frequently imbalanced",
           summary.most_frequent == paper_data.MOST_FREQUENT_PROCESSOR
           and summary.most_frequent_count == 2,
           f"processor {summary.most_frequent + 1} tops "
           f"{summary.most_frequent_count} loops")
    record("longest imbalanced",
           summary.longest == paper_data.LONGEST_PROCESSOR,
           f"processor {summary.longest + 1}")
    loop1 = measurements.region_index(paper_data.LONGEST_PROCESSOR_LOOP)
    id_p_value = float(view.dispersion[loop1, paper_data.LONGEST_PROCESSOR])
    record("loop 1 ID_P value",
           abs(id_p_value - paper_data.LONGEST_PROCESSOR_ID_P) < 1e-6,
           f"ID_P = {id_p_value:.5f} (paper {paper_data.LONGEST_PROCESSOR_ID_P})")
    own_time = float(measurements.processor_region_times()
                     [loop1, paper_data.LONGEST_PROCESSOR])
    record("loop 1 processor-2 wall clock",
           abs(own_time - paper_data.LONGEST_PROCESSOR_TIME) < 1e-6,
           f"{own_time:.2f} s (paper {paper_data.LONGEST_PROCESSOR_TIME})")

    computation = pattern_grid(measurements, "computation")
    upper_loop4 = computation.count("loop 4", Band.UPPER)
    record("figure 1: loop 4 upper band",
           upper_loop4 == paper_data.FIGURE_1_UPPER_LOOP4,
           f"{upper_loop4} processors (paper {paper_data.FIGURE_1_UPPER_LOOP4})")
    lower_loop6 = computation.count("loop 6", Band.LOWER)
    record("figure 1: loop 6 lower band",
           lower_loop6 == paper_data.FIGURE_1_LOWER_LOOP6,
           f"{lower_loop6} processors (paper {paper_data.FIGURE_1_LOWER_LOOP6})")

    groups = cluster_regions(measurements, 2, seed=0)
    as_sets = {frozenset(group) for group in groups}
    expected = {frozenset(paper_data.CLUSTER_HEAVY),
                frozenset(paper_data.CLUSTER_LIGHT)}
    record("clustering {1,2} vs rest", as_sets == expected,
           f"groups: {groups}")

    share = float(measurements.region_times[0] / measurements.total_time)
    record("loop 1 ~27% of T", abs(share - 0.27) < 0.01,
           f"{share:.1%}")

    return CalibrationReport(checks=checks)


def synthesize_paper_trace(path, measurements: MeasurementSet = None) -> int:
    """Write a trace file whose profile *is* the paper's dataset.

    One event per performed ``(region, activity, processor)`` cell,
    emitted region-major so first-appearance ordering reproduces the
    paper's region order; single-event cells make every floating-point
    sum exact.  A rank-0 outside-region event spanning ``[0, T]`` pins
    the elapsed time to the paper's ``T`` (which exceeds the covered
    time, so ``max(elapsed, covered)`` picks it up unchanged).

    The result is the bridge between the calibrated reconstruction and
    every trace-file consumer: ``repro analyze`` on this file renders
    the golden ``docs/paper_report.txt`` bytes, which makes it the
    reference input for the service daemon's byte-identity smoke tests.
    Returns the number of events written.
    """
    from ..instrument import Tracer, write_tracer
    from ..instrument.events import OUTSIDE_REGION

    m = reconstruct() if measurements is None else measurements
    tracer = Tracer()
    tracer.record(0, OUTSIDE_REGION, "computation", 0.0, m.total_time)
    for i, region in enumerate(m.regions):
        for j, activity in enumerate(m.activities):
            for rank in range(m.n_processors):
                value = float(m.times[i, j, rank])
                if value > 0.0:
                    tracer.record(rank, region, activity, 0.0, value)
    return write_tracer(path, tracer)
