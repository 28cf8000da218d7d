"""Property-based tests for the batch engine (companion to
``test_properties_dispersion.py``, which covers the scalar indices).

hypothesis searches for tensors breaking the batch engine's algebra:

* every performed cell's standardized slice lands on the probability
  simplex (sums to one), dash cells stay identically zero;
* index matrices are invariant under permuting processors and under
  rescaling all times (standardization makes every index scale-free);
* the paper's Euclidean index is zero exactly on perfectly balanced
  cells and strictly positive otherwise;
* the batch engine agrees with the scalar loop on whatever hypothesis
  throws at it (the randomized counterpart of the fixed differential
  cases).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import BatchAnalysis, MeasurementSet, available_indices
from tests.oracles import scalar_dispersion_matrix


@st.composite
def tensors(draw, max_n=4, max_k=3, max_p=8):
    """Small non-negative tensors, with dash cells and at least one
    performed cell."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_k))
    p = draw(st.integers(min_value=1, max_value=max_p))
    cells = draw(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1e6,
                           allow_nan=False, allow_infinity=False),
                 min_size=p, max_size=p),
        min_size=n * k, max_size=n * k))
    tensor = np.array(cells, dtype=float).reshape(n, k, p)
    # Guarantee at least one performed cell.
    if not tensor.any():
        tensor[0, 0, 0] = 1.0
    return tensor


@settings(max_examples=150, deadline=None)
@given(tensors())
def test_standardized_cells_land_on_simplex(tensor):
    measurements = MeasurementSet(tensor)
    batch = BatchAnalysis(measurements)
    sums = batch.standardized_over_processors.sum(axis=2)
    performed = batch.performed
    np.testing.assert_allclose(sums[performed], 1.0, rtol=1e-9)
    np.testing.assert_array_equal(sums[~performed], 0.0)
    # The packed cells are exactly the performed slices.
    assert batch.cells.shape == (int(performed.sum()),
                                 measurements.n_processors)
    if batch.cells.size:
        np.testing.assert_allclose(batch.cells.sum(axis=1), 1.0, rtol=1e-9)


@settings(max_examples=100, deadline=None)
@given(tensors(), st.randoms(use_true_random=False))
def test_indices_permutation_invariant(tensor, random):
    """Relabeling processors permutes nothing observable: every index
    matrix is unchanged."""
    permutation = list(range(tensor.shape[2]))
    random.shuffle(permutation)
    original = BatchAnalysis(MeasurementSet(tensor))
    permuted = BatchAnalysis(MeasurementSet(tensor[:, :, permutation]))
    for name in available_indices():
        np.testing.assert_allclose(
            original.matrix(name), permuted.matrix(name),
            rtol=1e-9, atol=1e-12,
            err_msg=f"{name} not permutation-invariant")


@settings(max_examples=100, deadline=None)
@given(tensors(), st.floats(min_value=1e-3, max_value=1e3,
                            allow_nan=False, allow_infinity=False))
def test_indices_scale_invariant(tensor, scale):
    """Multiplying every time by a positive constant changes no index:
    standardization divides the scale right back out."""
    # Denormal times can underflow to exactly zero under the scale,
    # flipping a cell's performed mask — that changes the *input*, not
    # the index, so such draws are out of scope for the invariance.
    assume(np.array_equal(tensor > 0.0, tensor * scale > 0.0))
    original = BatchAnalysis(MeasurementSet(tensor))
    scaled = BatchAnalysis(MeasurementSet(tensor * scale))
    for name in available_indices():
        np.testing.assert_allclose(
            original.matrix(name), scaled.matrix(name),
            rtol=1e-9, atol=1e-12,
            err_msg=f"{name} not scale-invariant")


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=16),
       st.floats(min_value=1e-3, max_value=1e3))
def test_euclidean_zero_on_perfect_balance(p, value):
    """A cell where every processor spends the same time scores 0."""
    tensor = np.full((1, 1, p), value)
    matrix = BatchAnalysis(MeasurementSet(tensor)).matrix("euclidean")
    assert matrix[0, 0] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(tensors(max_p=6))
def test_euclidean_positive_iff_imbalanced(tensor):
    """The converse direction: a strictly positive index pins a cell
    whose processors genuinely differ, and zero pins equality."""
    measurements = MeasurementSet(tensor)
    batch = BatchAnalysis(measurements)
    matrix = batch.matrix("euclidean")
    performed = batch.performed
    for i in range(measurements.n_regions):
        for j in range(measurements.n_activities):
            if not performed[i, j]:
                assert np.isnan(matrix[i, j])
                continue
            slice_ = tensor[i, j, :]
            balanced = np.all(slice_ == slice_[0])
            if balanced:
                assert matrix[i, j] == pytest.approx(0.0, abs=1e-9)
            else:
                assert matrix[i, j] > 0.0


@settings(max_examples=75, deadline=None)
@given(tensors())
def test_batch_matches_scalar_on_random_tensors(tensor):
    """Randomized differential: batch == scalar for every index."""
    measurements = MeasurementSet(tensor)
    batch = BatchAnalysis(measurements)
    for name in available_indices():
        np.testing.assert_allclose(
            batch.matrix(name), scalar_dispersion_matrix(measurements, name),
            rtol=1e-12, atol=1e-12, err_msg=f"{name} diverged")


@settings(max_examples=75, deadline=None)
@given(tensors())
def test_processor_dispersion_bounds(tensor):
    """ID_P values are finite, non-negative, and zero wherever a region
    is perfectly homogeneous across processors."""
    measurements = MeasurementSet(tensor)
    matrix = BatchAnalysis(measurements).processor_dispersion()
    assert matrix.shape == (measurements.n_regions,
                            measurements.n_processors)
    assert np.all(np.isfinite(matrix))
    assert np.all(matrix >= 0.0)
