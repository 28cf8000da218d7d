"""k-means seeded from the standard library against the numpy-seeded
oracle.

:func:`repro.core.kmeans` draws its k-means++ seeds from
``random.Random(seed)``; :func:`tests.oracles.numpy_kmeans` is the same
algorithm seeded by ``np.random.default_rng(seed)``, as it was before.
The draws differ, so labels may be permuted, but on the traces the
tool analyzes the groups of code regions must be the same.
"""

import random

import numpy as np
import pytest

from repro.apps import CheckpointConfig, run_checkpoint
from repro.core import clustering
from repro.core.clustering import _kmeans_plus_plus, cluster_regions
from tests.oracles import numpy_kmeans


@pytest.fixture(scope="module")
def checkpoint_measurements():
    return run_checkpoint(CheckpointConfig(steps=6, checkpoint_every=2),
                          n_ranks=8)[2]


@pytest.mark.parametrize("name", ["paper_measurements", "cfd_measurements",
                                  "checkpoint_measurements"])
@pytest.mark.parametrize("scale", ["zscore", "none"])
def test_groups_match_the_numpy_seeded_oracle(name, scale, request,
                                              monkeypatch):
    measurements = request.getfixturevalue(name)
    for k in range(1, min(3, measurements.n_regions) + 1):
        groups = cluster_regions(measurements, k, scale=scale)
        with monkeypatch.context() as patch:
            patch.setattr(clustering, "kmeans", numpy_kmeans)
            expected = cluster_regions(measurements, k, scale=scale)
        assert groups == expected, (name, k)


def test_seeds_come_from_the_standard_library():
    data = np.array([[0.0], [0.1], [5.0], [5.1], [9.0]])
    first = _kmeans_plus_plus(data, 3, random.Random(7))
    second = _kmeans_plus_plus(data, 3, random.Random(7))
    np.testing.assert_array_equal(first, second)
    assert set(first[:, 0]) <= set(data[:, 0])

