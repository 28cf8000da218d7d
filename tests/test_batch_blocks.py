"""The batch engine's kernels in blocks of regions equal the
whole-tensor expressions bit for bit.

``BatchAnalysis.matrix``, ``imbalance_time_matrix`` and
``processor_dispersion`` walk the tensor in blocks of whole regions of
at most ``batch.BLOCK_BYTES``; each block packs and divides only its own
rows.  Every reduction is per row or per element, so the blocks must
give exactly (``np.array_equal``) what one packed matrix of every
performed cell and one standardized tensor give
(:func:`tests.oracles.whole_tensor_matrix`,
:func:`tests.oracles.whole_tensor_processor_dispersion`).  Hypothesis
draws dash cells, all-zero (region, processor) profiles, single
processors and region counts that are no multiple of a block, under
budgets small enough that most cases span many blocks; fixed cases
cross blocks at the default budget and at more processors than
numpy's 8192-element buffer.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (AnalysisSession, BatchAnalysis, MeasurementSet,
                        available_indices, get_index, imbalance_time,
                        standardize_along)
from repro.core import batch
from tests.oracles import (whole_tensor_matrix,
                           whole_tensor_processor_dispersion)


@st.composite
def blocked_sets(draw, max_n=11, max_k=4, max_p=9):
    """A non-negative set with dash cells and zero profiles, and a block
    budget of a few regions at most."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_k))
    p = draw(st.integers(min_value=1, max_value=max_p))
    values = draw(st.lists(
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False, allow_infinity=False)),
        min_size=n * k * p, max_size=n * k * p))
    tensor = np.array(values).reshape(n, k, p)
    dashes = draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    tensor[np.array(dashes).reshape(n, k)] = 0.0
    idle = draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p))
    tensor.transpose(0, 2, 1)[np.array(idle).reshape(n, p)] = 0.0
    if not tensor.any():
        tensor[0, 0, 0] = 1.0
    budget = draw(st.integers(min_value=1, max_value=8 * k * p * 3))
    return MeasurementSet(tensor), budget


def assert_blocks_match(measurements):
    engine = BatchAnalysis(measurements)
    for name in available_indices():
        assert np.array_equal(
            engine.matrix(name),
            whole_tensor_matrix(measurements, get_index(name).__wrapped__),
            equal_nan=True), name
    assert np.array_equal(
        engine.imbalance_time_matrix(),
        whole_tensor_matrix(measurements, imbalance_time.__wrapped__,
                            standardized=False), equal_nan=True)
    assert np.array_equal(engine.processor_dispersion(),
                          whole_tensor_processor_dispersion(measurements))


@settings(max_examples=200, deadline=None)
@given(blocked_sets())
def test_blocks_equal_the_whole_tensor(drawn):
    measurements, budget = drawn
    with mock.patch.object(batch, "BLOCK_BYTES", budget):
        assert_blocks_match(measurements)


def test_a_wide_set_crosses_blocks_at_the_default_budget():
    """32 regions of 4 x 1024 cells are 8 blocks of 128 KiB, with a
    dash activity in some regions and an idle processor in one."""
    rng = np.random.default_rng(7)
    tensor = rng.uniform(0.5, 1.5, (32, 4, 1024))
    tensor[:, 2] *= rng.uniform(size=(32, 1)) > 0.3
    tensor[3, :, 17] = 0.0
    measurements = MeasurementSet(tensor)
    assert len(list(batch._region_blocks(tensor))) == 8
    assert_blocks_match(measurements)


def test_sets_wider_than_numpys_buffer_match_too():
    """Past 8192 processors einsum sums a lone data set in pieces, so no
    value may depend on how many rows share a call: each region here is
    larger than the budget and a block of its own, and one region
    performs a single activity, a block of one row."""
    rng = np.random.default_rng(10)
    tensor = rng.uniform(0.5, 1.5, (5, 3, 8200))
    tensor[1, 1:] = 0.0
    tensor[3, 0] = 0.0
    assert_blocks_match(MeasurementSet(tensor))


def test_a_lone_data_set_has_its_value_in_a_batch():
    rows = standardize_along(
        np.random.default_rng(11).uniform(0.5, 1.5, (3, 8200)))
    for name in available_indices():
        function = get_index(name)
        batch = function(rows)
        for row, value in zip(rows, batch):
            assert function(row) == value, name
            assert function(row[None])[0] == value, name


def test_matrices_share_one_walk_and_match_one_at_a_time():
    rng = np.random.default_rng(8)
    measurements = MeasurementSet(rng.uniform(0.0, 2.0, (13, 3, 40)))
    with mock.patch.object(batch, "BLOCK_BYTES", 3 * 40 * 8 * 2):
        together = BatchAnalysis(measurements).matrices()
        for name, matrix in together.items():
            alone = BatchAnalysis(measurements).matrix(name)
            assert np.array_equal(matrix, alone, equal_nan=True), name


def test_an_analysis_caches_no_tensor_sized_array(tiny_measurements):
    """The analyze path reads no standardized tensor and no packed
    cells; asking for them builds them."""
    session = AnalysisSession(tiny_measurements)
    session.analyze()
    engine = session.batch
    assert engine._cells is None
    assert engine._standardized_p is None and engine._standardized_a is None
    assert engine.cells.shape == (int(engine.performed.sum()),
                                  tiny_measurements.n_processors)
    assert engine.standardized_over_activities.shape \
        == tiny_measurements.times.shape


def test_a_region_larger_than_the_budget_is_its_own_block():
    tensor = np.ones((3, 2, 64))            # 1 KiB a region
    for budget, starts in ((1, [0, 1, 2]), (2048, [0, 2])):
        with mock.patch.object(batch, "BLOCK_BYTES", budget):
            assert [block.start for block
                    in batch._region_blocks(tensor)] == starts
