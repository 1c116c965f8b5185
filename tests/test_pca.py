"""Principal-axis extraction checked against a dense eigensolver, and the
plain-Python Jacobi oracle checked against it in turn."""

import math
import warnings

import numpy as np
import pytest

from evoknn.dataset import from_rows
from evoknn.knn import FeatureMask
from evoknn.pca import ProjectionModel, fit_pca2, project_rows

from oracles import jacobi_eigh


def single_class(rows):
    return from_rows(np.asarray(rows, dtype=float).tolist(),
                     ["a"] * len(rows))


# ----------------------------------------------------------- Jacobi oracle

FIXED_MATRICES = [
    np.diag([4.0, 1.0, 0.25]),
    np.array([[2.0, 1.0], [1.0, 2.0]]),
    np.array([[6.0, 2.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, 1.0]]),
    np.array([
        [4.0, 1.0, 0.5, 0.0, 0.0],
        [1.0, 3.0, 1.0, 0.5, 0.0],
        [0.5, 1.0, 2.0, 1.0, 0.5],
        [0.0, 0.5, 1.0, 1.0, 1.0],
        [0.0, 0.0, 0.5, 1.0, 0.5],
    ]),
    np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),  # rank one
    np.array([[1.0 + 1e-9, 1e-12], [1e-12, 1.0]]),  # near-degenerate pair
]


@pytest.mark.parametrize("matrix", FIXED_MATRICES, ids=range(len(FIXED_MATRICES)))
def test_jacobi_matches_dense_eigensolver(matrix):
    n = matrix.shape[0]
    values, vectors = map(np.array, jacobi_eigh(matrix, residual=1e-12))
    order = np.argsort(values)
    values = values[order]
    vectors = vectors[:, order]
    ref_values, ref_vectors = np.linalg.eigh(matrix)
    assert np.allclose(values, ref_values, atol=1e-6)
    # compare eigenspace projectors: immune to sign flips, and degenerate
    # eigenvalues only pin down the spanned subspace, not individual vectors
    start = 0
    for end in range(1, n + 1):
        if end < n and ref_values[end] - ref_values[end - 1] <= 1e-6:
            continue
        ours = vectors[:, start:end] @ vectors[:, start:end].T
        ref = ref_vectors[:, start:end] @ ref_vectors[:, start:end].T
        assert np.allclose(ours, ref, atol=1e-6)
        start = end


def test_jacobi_random_symmetric_matrices(rng):
    for n in (2, 3, 4, 6, 8):
        for _ in range(5):
            m = rng.normal(size=(n, n))
            sym = (m + m.T) / 2
            values, vectors = map(np.array, jacobi_eigh(sym, residual=1e-12))
            # a genuine eigendecomposition: A v = lambda v, orthonormal V
            assert np.allclose(sym @ vectors, vectors * values, atol=1e-8)
            assert np.allclose(vectors.T @ vectors, np.eye(n), atol=1e-8)
            assert np.allclose(np.sort(values), np.linalg.eigvalsh(sym), atol=1e-8)


def test_jacobi_zero_matrix():
    values, vectors = map(np.array, jacobi_eigh(np.zeros((3, 3)), residual=1e-10))
    assert np.array_equal(values, np.zeros(3))
    assert np.array_equal(vectors, np.eye(3))


# ----------------------------------------------------------- fit_pca2

def test_rank_one_line_is_recovered_exactly():
    t = np.linspace(-3.0, 3.0, 13)
    d = single_class(np.column_stack([t, t]))
    model = fit_pca2(d)
    assert model.eigenvalue2 == pytest.approx(0.0, abs=1e-12)
    assert model.axis1 == pytest.approx(np.array([1.0, 1.0]) / math.sqrt(2), abs=1e-9)
    assert model.eigenvalue1 == pytest.approx(np.var(t, ddof=1) * 2, rel=1e-9)


def test_diagonal_covariance_orders_axes_by_variance(rng):
    x = rng.normal(size=(400, 3)) * np.array([0.5, 3.0, 1.5])
    model = fit_pca2(single_class(x))
    assert abs(model.axis1[1]) > 0.99  # dominant axis is feature 1
    assert abs(model.axis2[2]) > 0.99  # runner-up is feature 2
    assert model.eigenvalue1 > model.eigenvalue2 > 0


def test_projected_variance_equals_eigenvalue_and_components_uncorrelated(rng):
    x = rng.normal(size=(300, 4)) @ rng.normal(size=(4, 4))
    d = single_class(x)
    model = fit_pca2(d)
    coords = project_rows(model, d.features)
    assert np.var(coords[:, 0], ddof=1) == pytest.approx(model.eigenvalue1, rel=1e-8)
    assert np.var(coords[:, 1], ddof=1) == pytest.approx(model.eigenvalue2, rel=1e-8)
    covariance = float(np.cov(coords[:, 0], coords[:, 1], ddof=1)[0, 1])
    assert covariance == pytest.approx(0.0, abs=1e-8)
    # mean projects to the origin
    mean = d.features.mean(axis=0)
    assert project_rows(model, mean[None, :])[0] == pytest.approx((0.0, 0.0), abs=1e-9)


def test_eigenvalues_are_rotation_invariant(rng):
    x = rng.normal(size=(200, 3)) * np.array([2.0, 1.0, 0.3])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = fit_pca2(single_class(x))
    b = fit_pca2(single_class(x @ q.T))
    assert a.eigenvalue1 == pytest.approx(b.eigenvalue1, rel=1e-8)
    assert a.eigenvalue2 == pytest.approx(b.eigenvalue2, rel=1e-8)


def test_fit_against_dense_eigensolver_oracle(rng):
    x = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
    model = fit_pca2(single_class(x))
    centred = x - x.mean(axis=0)
    ref_values, ref_vectors = np.linalg.eigh(centred.T @ centred / (len(x) - 1))
    assert model.eigenvalue1 == pytest.approx(ref_values[-1], rel=1e-6)
    assert model.eigenvalue2 == pytest.approx(ref_values[-2], rel=1e-6)
    assert abs(float(model.axis1 @ ref_vectors[:, -1])) == pytest.approx(1.0, abs=1e-6)
    assert abs(float(model.axis2 @ ref_vectors[:, -2])) == pytest.approx(1.0, abs=1e-6)


def test_masked_fit_ignores_inactive_features(rng):
    x = rng.normal(size=(50, 6))
    mask = FeatureMask.from_string("101010")
    d = single_class(x)
    model = fit_pca2(d, mask)
    assert model.axis1[[1, 3, 5]] == pytest.approx(np.zeros(3), abs=0.0)
    assert model.axis2[[1, 3, 5]] == pytest.approx(np.zeros(3), abs=0.0)
    # projections are blind to inactive-feature changes
    garbled = x.copy()
    garbled[:, [1, 3, 5]] = rng.normal(size=(50, 3)) * 100
    assert np.array_equal(project_rows(model, x), project_rows(model, garbled))
    # and equal to fitting on the submatrix directly
    sub_model = fit_pca2(single_class(x[:, [0, 2, 4]]))
    assert sub_model.eigenvalue1 == pytest.approx(model.eigenvalue1, rel=1e-10)


def test_sign_convention_first_nonzero_component_is_positive(rng):
    for seed in range(8):
        local = np.random.default_rng(seed)
        x = local.normal(size=(40, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
        model = fit_pca2(single_class(x))
        for axis in (model.axis1, model.axis2):
            lead = axis[np.abs(axis) > 1e-12][0]
            assert lead > 0


def test_repeated_fits_are_bit_identical(rng):
    x = rng.normal(size=(80, 5))
    d = single_class(x)
    a = fit_pca2(d)
    b = fit_pca2(d)
    assert np.array_equal(a.axis1, b.axis1)
    assert np.array_equal(a.axis2, b.axis2)
    assert a.eigenvalue1 == b.eigenvalue1 and a.eigenvalue2 == b.eigenvalue2


def test_fit_validation_errors():
    with pytest.raises(ValueError, match="2 samples"):
        fit_pca2(single_class([[1.0, 2.0]]))
    d = single_class([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValueError, match="active features"):
        fit_pca2(d, FeatureMask.from_string("010"))
    with pytest.raises(ValueError, match="mask length"):
        fit_pca2(d, FeatureMask.from_string("11"))


def test_fit_refuses_a_covariance_that_overflows():
    # finite features whose products pass the largest double: the refusal
    # names the overflow, not ProjectionModel's eigenvalue invariant, and no
    # RuntimeWarning is printed on the way
    for rows in ([[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]],
                 [[1.7e308, 1.0], [1.6e308, 2.0], [-1.7e308, 0.0]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="covariance .* overflows"):
                fit_pca2(single_class(rows))


def test_projection_model_invariants():
    with pytest.raises(ValueError, match="mean and axes must share one feature length"):
        ProjectionModel(np.zeros(3), np.array([1.0, 0.0]),
                        np.array([0.0, 1.0]), 2.0, 1.0)
    with pytest.raises(ValueError, match="orthogonal"):
        ProjectionModel(np.zeros(2), np.array([1.0, 0.0]),
                        np.array([0.8, 0.6]), 2.0, 1.0)
    with pytest.raises(ValueError, match="unit norm"):
        ProjectionModel(np.zeros(2), np.array([2.0, 0.0]),
                        np.array([0.0, 1.0]), 2.0, 1.0)
    with pytest.raises(ValueError, match="ev1 >= ev2"):
        ProjectionModel(np.zeros(2), np.array([1.0, 0.0]),
                        np.array([0.0, 1.0]), 1.0, 2.0)


def test_project_validates_shapes():
    model = ProjectionModel(np.zeros(3), np.array([1.0, 0.0, 0.0]),
                            np.array([0.0, 1.0, 0.0]), 2.0, 1.0)
    with pytest.raises(ValueError):
        project_rows(model, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        project_rows(model, np.zeros((4, 2)))
