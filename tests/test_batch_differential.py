"""Differential tests: the vectorized batch engine vs the scalar path.

For a spread of tensors — randomized, with not-performed (all-zero)
rows, single-processor, degenerate all-equal — every index the batch
engine produces must agree with the scalar ``dispersion.get_index``
result within 1e-12, for every index in ``available_indices()``.  The
scalar per-cell loop survives as
:func:`repro.core.batch.scalar_dispersion_matrix` exactly so this suite
can keep holding the two implementations against each other.

The module also holds the engine's reason to exist: over every index at
``N = 256`` regions, ``K = 4`` activities and ``P = 1024`` processors
it must run at least :data:`SPEEDUP_FLOOR` times faster than the loop.
"""

import time

import numpy as np
import pytest

from repro.core import (AnalysisSession, BatchAnalysis, MeasurementSet,
                        analyze, available_batch_kernels, available_indices,
                        batch_dispersion_matrix, dispersion_matrix,
                        get_batch_kernel, imbalance_time,
                        register_batch_kernel, register_index,
                        scalar_dispersion_matrix)
from repro.core.batch import imbalance_time_kernel
from repro.errors import DispersionError


def random_tensor(seed: int, n: int, k: int, p: int,
                  zero_rows: float = 0.3) -> np.ndarray:
    """A non-negative tensor with a share of all-zero (dash) cells."""
    rng = np.random.default_rng(seed)
    tensor = rng.uniform(0.0, 10.0, (n, k, p))
    dashes = rng.uniform(size=(n, k)) < zero_rows
    # Keep at least one performed cell so the set is non-degenerate.
    dashes[0, 0] = False
    tensor[dashes] = 0.0
    return tensor


def swept_tensor(n: int, k: int, p: int) -> np.ndarray:
    """The speed-up sweep's tensor: every cell imbalanced, and one
    activity a dash in about 30% of the regions."""
    rng = np.random.default_rng((n, k, p))
    tensor = rng.uniform(0.5, 1.5, (n, k, p))
    tensor[:, 1 % k, :] *= rng.uniform(size=(n, 1)) > 0.3
    return tensor


CASES = [
    MeasurementSet(random_tensor(0, 5, 4, 8)),
    MeasurementSet(random_tensor(1, 3, 2, 16, zero_rows=0.5)),
    MeasurementSet(random_tensor(2, 1, 1, 2, zero_rows=0.0)),
    # Single processor: every performed slice standardizes to [1.0].
    MeasurementSet(random_tensor(3, 4, 3, 1)),
    # Degenerate: all processors exactly equal in every cell.
    MeasurementSet(np.full((3, 2, 6), 2.5)),
    # Sparse extremes: one processor carries everything.
    MeasurementSet(np.pad(np.ones((2, 2, 1)), ((0, 0), (0, 0), (0, 7)))),
    # The smallest point of the speed-up sweep.
    MeasurementSet(swept_tensor(16, 4, 64)),
]

#: Least speed-up of the batch engine over the scalar loop at the
#: acceptance point, best of five timings each.
SPEEDUP_FLOOR = 5.0


def assert_matches_scalar(measurements, index):
    batch = BatchAnalysis(measurements).matrix(index)
    scalar = scalar_dispersion_matrix(measurements, index)
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-12,
                               err_msg=f"index {index!r} diverged")
    # nan placement (dash cells) must be identical, not just close.
    np.testing.assert_array_equal(np.isnan(batch), np.isnan(scalar))


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("index", available_indices())
def test_every_index_matches_scalar(case, index):
    assert_matches_scalar(CASES[case], index)


@pytest.mark.parametrize("index", available_indices())
def test_paper_dataset_matches_scalar(paper_measurements, index):
    assert_matches_scalar(paper_measurements, index)


@pytest.mark.parametrize("index", available_indices())
def test_tiny_fixture_matches_scalar(tiny_measurements, index):
    assert_matches_scalar(tiny_measurements, index)


def test_every_registered_index_has_a_kernel():
    """The built-in registries stay in lockstep; custom scalar indices
    without a kernel fall back to the loop (tested below)."""
    assert set(available_indices()) <= set(available_batch_kernels())


def test_dispersion_matrix_is_batch_backed(tiny_measurements):
    np.testing.assert_array_equal(
        np.nan_to_num(dispersion_matrix(tiny_measurements)),
        np.nan_to_num(batch_dispersion_matrix(tiny_measurements)))


def test_imbalance_time_kernel_matches_scalar():
    ms = CASES[0]
    matrix = BatchAnalysis(ms).imbalance_time_matrix()
    performed = ms.performed
    for i in range(ms.n_regions):
        for j in range(ms.n_activities):
            if performed[i, j]:
                expected = imbalance_time(ms.times[i, j, :])
                assert matrix[i, j] == pytest.approx(expected, abs=1e-12)
            else:
                assert np.isnan(matrix[i, j])
    raw = ms.times[performed]
    np.testing.assert_allclose(imbalance_time_kernel(raw),
                               matrix[performed], rtol=1e-12)


def test_processor_view_matches_scalar_loop():
    """The vectorized processor view equals the per-region masked loop."""
    from repro.core import standardize_over_activities
    for ms in CASES:
        standardized = standardize_over_activities(ms)
        performed = ms.performed
        expected = np.zeros((ms.n_regions, ms.n_processors))
        for i in range(ms.n_regions):
            active = performed[i, :]
            if not np.any(active):
                continue
            profiles = standardized[i, active, :]
            deviations = profiles - profiles.mean(axis=1, keepdims=True)
            expected[i, :] = np.sqrt((deviations ** 2).sum(axis=0))
        actual = BatchAnalysis(ms).processor_dispersion()
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


def test_custom_scalar_index_falls_back_to_loop(tiny_measurements):
    """An index registered without a batch kernel still works through
    BatchAnalysis (served by the scalar loop)."""
    name = "midhinge-test-only"
    from repro.core import dispersion as disp
    register_index(name)(
        lambda values: float(np.asarray(values, dtype=float).max() * 0.5))
    try:
        assert name not in available_batch_kernels()
        assert_matches_scalar(tiny_measurements, name)
    finally:
        del disp._REGISTRY[name]


def test_custom_batch_kernel_registration(tiny_measurements):
    name = "halfmax-test-only"
    from repro.core import dispersion as disp
    from repro.core import batch as batch_module
    register_index(name)(
        lambda values: float(np.asarray(values, dtype=float).max() * 0.5))
    register_batch_kernel(name)(lambda matrix: matrix.max(axis=1) * 0.5)
    try:
        assert_matches_scalar(tiny_measurements, name)
        kernel = get_batch_kernel(name)
        np.testing.assert_allclose(kernel(np.array([[1.0, 3.0]])), [1.5])
    finally:
        del disp._REGISTRY[name]
        del batch_module._BATCH_REGISTRY[name]


def best_of(functions, repeats: int = 5, window: float = 0.25) -> list:
    """Seconds per call of each function, best of ``repeats`` samples.

    A sample calls the function back to back until ``window`` seconds
    have passed, as ``timeit`` sizes its loops, so a 50 ms call is not
    timed alone against a 300 ms one; the functions' samples alternate,
    so a slow spell on a shared host falls on all of them.
    """
    best = [float("inf")] * len(functions)
    for _ in range(repeats):
        for slot, function in enumerate(functions):
            calls, start = 0, time.perf_counter()
            while True:
                function()
                calls += 1
                elapsed = time.perf_counter() - start
                if elapsed >= window:
                    break
            best[slot] = min(best[slot], elapsed / calls)
    return best


def test_batch_engine_beats_the_scalar_loop_fivefold():
    measurements = MeasurementSet(swept_tensor(256, 4, 1024))
    names = available_indices()
    scalar, batch = best_of([
        lambda: [scalar_dispersion_matrix(measurements, name)
                 for name in names],
        lambda: BatchAnalysis(measurements).matrices(names)])
    assert scalar / batch >= SPEEDUP_FLOOR, (
        f"batch {batch * 1e3:.1f} ms vs scalar {scalar * 1e3:.1f} ms: "
        f"{scalar / batch:.1f}x is below the {SPEEDUP_FLOOR:.0f}x floor")


class TestDashCellParity:
    """Scalar and batch paths treat all-zero data sets identically."""

    def test_batch_kernels_reject_dash_rows(self):
        matrix = np.array([[1.0, 2.0], [0.0, 0.0]])
        for name in available_batch_kernels():
            with pytest.raises(DispersionError):
                get_batch_kernel(name)(matrix)

    def test_matrix_paths_skip_dash_cells(self):
        ms = CASES[1]
        performed = ms.performed
        assert not performed.all()          # the case really has dashes
        for name in available_indices():
            batch = BatchAnalysis(ms).matrix(name)
            scalar = scalar_dispersion_matrix(ms, name)
            assert np.isnan(batch[~performed]).all()
            assert np.isnan(scalar[~performed]).all()


class TestSessionMemoization:
    def test_dispersion_matrix_cached(self, tiny_measurements):
        session = AnalysisSession(tiny_measurements)
        assert session.dispersion_matrix() is session.dispersion_matrix()

    def test_views_cached(self, tiny_measurements):
        session = AnalysisSession(tiny_measurements)
        assert session.views() is session.views()
        assert session.views() is not session.views(weighting="uniform")

    def test_analysis_cached_and_matches_direct(self, tiny_measurements):
        session = AnalysisSession(tiny_measurements)
        result = session.analyze()
        assert result is session.analyze()
        direct = analyze(tiny_measurements)
        np.testing.assert_allclose(
            np.nan_to_num(result.activity_view.dispersion),
            np.nan_to_num(direct.activity_view.dispersion))
        assert result.region_ranking.names == direct.region_ranking.names

    def test_ranking_cached(self, tiny_measurements):
        session = AnalysisSession(tiny_measurements)
        first = session.ranking(kind="region")
        assert first is session.ranking(kind="region")
        assert first.names[0] in tiny_measurements.regions
        activities = session.ranking(kind="activity")
        assert activities.names[0] in tiny_measurements.activities

    def test_efficiency_cached_and_matches_direct(self, tiny_measurements):
        from repro.core import efficiency
        session = AnalysisSession(tiny_measurements)
        cached = session.efficiency(useful_activity="X")
        assert cached is session.efficiency(useful_activity="X")
        direct = efficiency(tiny_measurements, useful_activity="X")
        assert cached.load_balance == pytest.approx(direct.load_balance)
        assert cached.parallel_efficiency == pytest.approx(
            direct.parallel_efficiency)

    def test_report_and_diagnosis_cached(self, tiny_measurements):
        session = AnalysisSession(tiny_measurements)
        assert session.report() is session.report()
        assert session.diagnosis() is session.diagnosis()

    def test_render_full_report_accepts_session(self, tiny_measurements):
        from repro.core import render_full_report
        session = AnalysisSession(tiny_measurements)
        assert render_full_report(session) == render_full_report(
            session.analyze())
