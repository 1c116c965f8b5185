import numpy as np
import pytest

from evoknn.dataset import from_rows


@pytest.fixture
def grid_dataset():
    """Small training set on an integer grid: every distance is exact in float64."""
    rows = [
        [0, 0, 0],
        [0, 1, 0],
        [4, 4, 1],
        [5, 4, 0],
        [9, 0, 2],
        [9, 1, 2],
    ]
    labels = ["a", "a", "b", "b", "c", "c"]
    return from_rows(rows, labels)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
