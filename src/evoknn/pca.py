"""Two-component PCA for 2D scatterplot projection.

The top two eigenpairs of the sample covariance matrix (divisor n-1) come
from one ``numpy.linalg.eigh`` call.  The covariance is summed with
``einsum`` rather than the ``centred.T @ centred`` matrix product: einsum
does not go through BLAS, whose threaded product splits the sums by thread
count, so the covariance has the same bits however many threads BLAS uses.
Axes follow a fixed sign convention (first component above 1e-12 in
magnitude is positive) so repeated fits are bit-identical and degenerate
eigenvalue pairs still resolve to a reproducible basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset
from .knn import FeatureMask


@dataclass(frozen=True)
class ProjectionModel:
    """Mean and the two dominant covariance eigenpairs, full feature length.

    When fitted through a mask, the axes are zero on inactive features, so
    ``project_rows`` stays a plain dot product against full-length samples.
    """

    mean: np.ndarray
    axis1: np.ndarray
    axis2: np.ndarray
    eigenvalue1: float
    eigenvalue2: float

    def __post_init__(self):
        for name in ("mean", "axis1", "axis2"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.mean.shape == self.axis1.shape == self.axis2.shape):
            raise ValueError("mean and axes must share one feature length")
        if not self.eigenvalue1 >= self.eigenvalue2 >= 0.0:
            raise ValueError("eigenvalues must satisfy ev1 >= ev2 >= 0")
        if abs(float(self.axis1 @ self.axis2)) > 1e-9:
            raise ValueError("axes must be orthogonal")
        for axis in (self.axis1, self.axis2):
            if abs(float(axis @ axis) - 1.0) > 1e-9:
                raise ValueError("axes must have unit norm")

    @property
    def feature_count(self) -> int:
        return self.mean.size


def _fix_sign(axis: np.ndarray) -> np.ndarray:
    for value in axis:
        if abs(value) > 1e-12:
            return axis if value > 0 else -axis
    return axis


def fit_pca2(d: Dataset, mask: Optional[FeatureMask] = None) -> ProjectionModel:
    """Fit the two dominant principal components of a (possibly masked) dataset.

    The covariance uses divisor n-1 over the active features only; the
    resulting axes are embedded back into full feature length with zeros on
    inactive coordinates.  Finite features whose covariance overflows a
    double, such as +-1e300, are refused with a ValueError that says so.
    """
    if d.n_samples < 2:
        raise ValueError("PCA needs at least 2 samples")
    if mask is None:
        indices = np.arange(d.feature_count)
    else:
        if mask.length != d.feature_count:
            raise ValueError("mask length does not match the dataset")
        indices = mask.active_indices()
    if indices.size < 2:
        raise ValueError("PCA needs at least 2 active features")

    x = d.features[:, indices]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        centred = x - x.mean(axis=0)
        cov = np.einsum("ki,kj->ij", centred, centred) / (d.n_samples - 1)
    if not np.isfinite(cov).all():
        raise ValueError("the covariance of the active features overflows a double: "
                         "the feature values are too large to project")
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(-values, kind="stable")[:2]

    axes = np.zeros((2, d.feature_count))
    axes[:, indices] = vectors[:, order].T
    return ProjectionModel(
        mean=d.features.mean(axis=0),
        axis1=_fix_sign(axes[0]),
        axis2=_fix_sign(axes[1]),
        eigenvalue1=max(float(values[order[0]]), 0.0),
        eigenvalue2=max(float(values[order[1]]), 0.0),
    )


def project_rows(model: ProjectionModel, rows: np.ndarray) -> np.ndarray:
    """Project many samples at once; returns an (n, 2) array."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.feature_count:
        raise ValueError("rows must be (n, feature_count)")
    centred = rows - model.mean
    return np.column_stack([centred @ model.axis1, centred @ model.axis2])
