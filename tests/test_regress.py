"""Downstream regressors: kernel ridge, MLP, and MAE/RMSE metrics."""
import numpy as np
import pytest

from conftest import traced_peak
from softaug import Metrics, evaluate, fit
from softaug.data import TabularDataset
from softaug.errors import ConditioningError, ContractError
from softaug.regress import (SOLVE_BLOCK, KernelRidgeRegressor, MlpRegressor,
                             _cholesky_solve, median_bandwidth, metrics_from_residuals,
                             rbf_kernel, squared_distances)


def _dataset(x, y):
    x = np.asarray(x, dtype=float)
    return TabularDataset(x, np.asarray(y, dtype=float),
                          tuple(f"x{i+1}" for i in range(x.shape[1])))


class _Echo:
    """Stub regressor whose predictions are supplied up front."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def predict(self, x):
        return self.values[: x.shape[0]]


# ------------------------------------------------------------ distance/kernel

def test_squared_distances_matches_naive_loops():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
    naive = np.array([[np.sum((ra - rb) ** 2) for rb in b] for ra in a])
    assert np.allclose(squared_distances(a, b), naive, atol=1e-12)


def test_rbf_kernel_hand_value():
    k = rbf_kernel(np.array([[0.0]]), np.array([[1.0]]), 1.0)
    assert abs(k[0, 0] - np.exp(-0.5)) < 1e-15


def test_median_bandwidth_hand_case():
    # pairwise distances of {0, 1, 3} are {1, 2, 3}; median 2
    rows = np.array([[0.0], [1.0], [3.0]])
    assert median_bandwidth(rows) == 2.0


def test_median_bandwidth_degenerate_cases():
    assert median_bandwidth(np.array([[4.0]])) == 1.0
    assert median_bandwidth(np.full((4, 2), 3.0)) == 1.0


def _full_median(rows):
    """The median over every pair, from all of their square roots."""
    n = rows.shape[0]
    if n < 2:
        return 1.0
    d2 = squared_distances(rows, rows)
    med = float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))
    return med if med > 0.0 else 1.0


def test_median_bandwidth_equals_the_full_median_bit_for_bit():
    rng = np.random.default_rng(41)
    cases = []
    for n in (2, 3, 4, 5, 6, 40, 101):
        dup = rng.normal(size=(n, 2))
        dup[n // 2:] = dup[0]
        cases += [rng.normal(size=(n, 3)),
                  rng.integers(0, 3, size=(n, 2)).astype(float),   # a grid: many ties
                  dup,                                              # duplicate rows
                  np.repeat(rng.normal(size=(1, 2)), n, axis=0)]    # all rows equal
    with_nan = rng.normal(size=(6, 2))
    with_nan[4, 1] = np.nan
    cases.append(with_nan)
    for rows in cases:
        assert median_bandwidth(rows) == _full_median(rows), rows


def _new_array_rbf(a, b, sigma):
    """The kernel with a new array at every step, as first written."""
    return np.exp(-squared_distances(a, b) / (2.0 * sigma * sigma))


def _copy_partition_median(d2):
    """The partition median over a partitioned copy of the upper triangle."""
    n = d2.shape[0]
    if n < 2:
        return 1.0
    upper = d2[~np.tri(n, dtype=bool)]
    half = upper.size // 2
    middle = [half - 1, half] if upper.size % 2 == 0 else [half]
    part = np.partition(upper, [*middle, -1])
    med = float(np.median(np.sqrt(part[middle])))
    return med if med > 0.0 else 1.0


def _kernel_ridge_cases():
    rng = np.random.default_rng(47)
    for n in (1, 2, 47, 48, 49, 550):
        for d in (1, 3, 10):
            x = rng.normal(size=(n, d))
            dup = x.copy()
            dup[n // 2:] = dup[0]                           # duplicate rows
            for rows in (x, dup):
                yield rows, rng.normal(size=n), rng.normal(size=(n + 3, d))


def test_rbf_kernel_equals_the_new_array_expression_bit_for_bit():
    # `a @ a.T` takes syrk and `a @ b.T` gemm, so both are covered
    for x, _, probe in _kernel_ridge_cases():
        for sigma in (0.7, _copy_partition_median(squared_distances(x, x))):
            assert np.array_equal(rbf_kernel(x, x, sigma), _new_array_rbf(x, x, sigma))
            assert np.array_equal(rbf_kernel(probe, x, sigma),
                                  _new_array_rbf(probe, x, sigma))


def test_kernel_ridge_predictions_equal_the_new_array_fit_bit_for_bit():
    for x, y, probe in _kernel_ridge_cases():
        model = KernelRidgeRegressor().fit(x, y)
        d2 = squared_distances(x, x)
        sigma = _copy_partition_median(d2)
        gram = np.exp(-d2 / (2.0 * sigma * sigma))
        gram[np.diag_indices_from(gram)] += 1e-3
        coef = _cholesky_solve(np.linalg.cholesky(gram), y)
        assert model.sigma == sigma, x.shape
        # predicting the training rows passes `a is b` to the kernel
        for rows in (x, probe):
            assert np.array_equal(model.predict(rows),
                                  _new_array_rbf(rows, x, sigma) @ coef), x.shape


def test_kernel_ridge_fit_peak_stays_below_two_and_a_half_gram_matrices():
    # the Gram matrix is formed over the distance matrix's buffer, so a fit
    # holds about two n x n arrays at once (the squared distances' own two,
    # then the Gram matrix and its Cholesky factor); forming the Gram matrix
    # in new arrays would peak at 3.0. np.linalg.cholesky also copies the matrix
    # into a LAPACK workspace that tracemalloc does not see.
    n = 600
    rng = np.random.default_rng(7)
    x, y = rng.uniform(size=(n, 3)), rng.normal(size=n)
    fit = KernelRidgeRegressor().fit
    assert traced_peak(lambda: fit(x, y)) <= 2.5 * n * n * 8


# ------------------------------------------------------------- kernel ridge

def test_cholesky_solve_matches_a_dense_solve():
    rng = np.random.default_rng(43)
    for n in (1, 47, 48, 49, 400, 550):
        x = rng.uniform(size=(n, 2))
        gram = rbf_kernel(x, x, median_bandwidth(x)) + 1e-3 * np.eye(n)
        chol = np.linalg.cholesky(gram)
        y = rng.normal(size=n)
        got = _cholesky_solve(chol, y)
        want = np.linalg.solve(gram, y)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), n
        if n <= SOLVE_BLOCK:
            old = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
            assert got.tobytes() == old.tobytes(), n


def test_small_ridge_interpolates_distinct_points():
    x = np.arange(5, dtype=float).reshape(-1, 1)
    y = np.array([0.2, 0.9, -0.4, 0.5, 1.3])
    model = fit(KernelRidgeRegressor(ridge=1e-12), _dataset(x, y))
    assert np.max(np.abs(model.predict(x) - y)) < 1e-6


def test_two_point_system_matches_direct_solve():
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = KernelRidgeRegressor(ridge=0.1)
    model.fit(x, y)
    assert model.sigma == 1.0
    k01 = np.exp(-0.5)
    system = np.array([[1.1, k01], [k01, 1.1]])
    coef = np.linalg.solve(system, y)
    assert np.allclose(model._coef, coef, atol=1e-12)
    probe = np.array([[0.3]])
    expect = rbf_kernel(probe, x, 1.0) @ coef
    assert np.allclose(model.predict(probe), expect, atol=1e-12)


def test_duplicate_rows_with_zero_ridge_raise_conditioning_error():
    x = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]])
    y = np.array([1.0, 1.0, 0.0])
    model = KernelRidgeRegressor(ridge=0.0)
    with pytest.raises(ConditioningError, match="ridge > 0"):
        model.fit(x, y)


# ---------------------------------------------------------------------- mlp

def test_mlp_fits_constant_labels():
    rng = np.random.default_rng(3)
    ds = _dataset(rng.uniform(size=(20, 2)), np.full(20, 0.7))
    model = MlpRegressor(epochs=1000, learning_rate=1e-2)
    assert evaluate(fit(model, ds), ds).mae < 1e-3


def test_mlp_is_deterministic_under_seed():
    rng = np.random.default_rng(11)
    ds = _dataset(rng.uniform(size=(16, 3)), rng.uniform(size=16))
    a = fit(MlpRegressor(epochs=40, seed=9), ds).predict(ds.features)
    b = fit(MlpRegressor(epochs=40, seed=9), ds).predict(ds.features)
    assert np.array_equal(a, b)


# ------------------------------------------------------------------ metrics

def test_equal_magnitude_residuals_give_equal_metrics():
    m = metrics_from_residuals(np.array([0.1, -0.1]))
    assert abs(m.mae - 0.1) < 1e-15
    assert abs(m.rmse - 0.1) < 1e-15


def test_uneven_residuals_split_mae_and_rmse():
    m = metrics_from_residuals(np.array([0.0, 0.2]))
    assert abs(m.mae - 0.1) < 1e-15
    assert abs(m.rmse - np.sqrt(0.02)) < 1e-15


def test_perfect_predictions_give_zero_metrics():
    ds = _dataset(np.arange(4, dtype=float).reshape(-1, 1),
                  [0.3, 0.1, 0.9, 0.4])
    m = evaluate(_Echo(ds.labels), ds)
    assert m == Metrics(0.0, 0.0)


def test_rmse_never_below_mae():
    rng = np.random.default_rng(21)
    for _ in range(50):
        r = rng.normal(size=rng.integers(1, 30))
        m = metrics_from_residuals(r)
        assert m.rmse >= m.mae - 1e-15


def test_metrics_require_residuals():
    with pytest.raises(ContractError):
        metrics_from_residuals(np.array([]))


# ---------------------------------------------------------------- contracts

@pytest.mark.parametrize("cls", [KernelRidgeRegressor, MlpRegressor])
def test_fit_contracts(cls):
    model = cls()
    with pytest.raises(ContractError):
        model.fit(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ContractError):
        model.fit(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ContractError):
        model.predict(np.zeros((2, 2)))
