"""Downstream regressors and error metrics.

Two families: an RBF kernel-ridge model (closed-form dense solve) and a
small MLP trained with Adam. Both consume datasets in normalized space;
metrics are reported in that space unless the caller inverts them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import TabularDataset
from .errors import ConditioningError, ContractError
from .layers import init_mlp
from .optim import fit_mse
from .rng import SeededRng

Bandwidth = Union[str, float]
# rows per diagonal block of the kernel-ridge triangular solves
SOLVE_BLOCK = 48


@dataclass(frozen=True)
class Metrics:
    mae: float
    rmse: float


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (len(a), len(b))."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    d2 = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def median_bandwidth(rows: np.ndarray) -> float:
    """Median pairwise distance over the rows; 1.0 if that degenerates."""
    return _median_width(squared_distances(rows, rows))


def _median_width(d2: np.ndarray) -> float:
    """`np.median(np.sqrt(...))` of the strict upper triangle of `d2`, or 1.0
    for fewer than two rows, a NaN distance or a median <= 0.

    sqrt is monotone, so only the middle one or two squared distances are
    partitioned into place and rooted; the result equals the full median
    bit for bit.
    """
    n = d2.shape[0]
    if n < 2:
        return 1.0
    upper = d2[~np.tri(n, dtype=bool)]
    half = upper.size // 2
    middle = [half - 1, half] if upper.size % 2 == 0 else [half]
    upper.partition([*middle, -1])                # NaNs sort last, as in np.median
    if np.isnan(upper[-1]):
        return 1.0
    med = float(np.median(np.sqrt(upper[middle])))
    return med if med > 0.0 else 1.0


def check_bandwidth(bandwidth: Bandwidth) -> float | None:
    """The fixed RBF width `bandwidth` names, or None for "median".

    A fixed width is a positive finite number, or text that parses as one,
    whose kernel denominator 2*bandwidth**2 is positive and finite too; any
    other value is a ContractError.
    """
    if bandwidth == "median":
        return None
    try:
        bw = float(bandwidth)
        valid = 0.0 < 2.0 * bw * bw < np.inf and bw > 0
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ContractError(
            f"bandwidth must be 'median' or a positive finite number whose "
            f"2*bandwidth**2 is positive and finite, got {bandwidth!r}")
    return bw


def rbf_kernel(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    return _rbf_in_place(squared_distances(a, b), sigma)


def _rbf_in_place(d2: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-d2 / (2 sigma^2)), written over d2's own buffer."""
    np.divide(d2, -(2.0 * sigma * sigma), out=d2)
    return np.exp(d2, out=d2)


def _cholesky_solve(chol: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c with chol @ chol.T @ c = y, by blocked forward then back substitution.

    Each diagonal block of SOLVE_BLOCK rows is solved with np.linalg.solve,
    so a system of at most one block makes exactly the two dense solves
    `solve(chol, y)` and `solve(chol.T, z)`, and a larger one factorizes
    only small blocks instead of the whole triangle twice.
    """
    starts = range(0, y.shape[0], SOLVE_BLOCK)
    z = np.empty_like(y)
    for s in starts:
        e = s + SOLVE_BLOCK
        z[s:e] = np.linalg.solve(chol[s:e, s:e], y[s:e] - chol[s:e, :s] @ z[:s])
    upper = chol.T
    c = np.empty_like(y)
    for s in reversed(starts):
        e = s + SOLVE_BLOCK
        c[s:e] = np.linalg.solve(upper[s:e, s:e], z[s:e] - upper[s:e, e:] @ c[e:])
    return c


class KernelRidgeRegressor:
    """f(x) = sum_i c_i k(x, x_i) with (K + ridge*I) c = y, at the median RBF width."""

    def __init__(self, ridge: float = 1e-3):
        self.ridge = ridge
        self._x = None
        self._coef = None
        self.sigma = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KernelRidgeRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[0] != y.shape[0]:
            raise ContractError(f"{x.shape[0]} rows vs {y.shape[0]} labels")
        if x.shape[0] == 0:
            raise ContractError("cannot fit on an empty dataset")
        d2 = squared_distances(x, x)
        self.sigma = _median_width(d2)
        gram = _rbf_in_place(d2, self.sigma)
        gram[np.diag_indices_from(gram)] += self.ridge
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise ConditioningError(
                "kernel system is singular (duplicate rows?); "
                "use a ridge > 0") from None
        self._coef = _cholesky_solve(chol, y)
        self._x = x
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._coef is None:
            raise ContractError("predict before fit")
        return rbf_kernel(np.asarray(x, dtype=float), self._x, self.sigma) @ self._coef


class MlpRegressor:
    """Small leaky-relu network with a linear head, full-batch Adam."""

    def __init__(self, hidden: tuple[int, ...] = (32, 16), epochs: int = 500,
                 learning_rate: float = 1e-3, seed: int = 0):
        self.hidden = hidden
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self._net = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MlpRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1, 1)
        if x.shape[0] != y.shape[0]:
            raise ContractError(f"{x.shape[0]} rows vs {y.shape[0]} labels")
        if x.shape[0] == 0:
            raise ContractError("cannot fit on an empty dataset")
        dims = [x.shape[1], *self.hidden, 1]
        net = init_mlp(dims, SeededRng(self.seed), out_activation="linear")
        fit_mse([net], x, y, self.epochs, self.learning_rate)
        self._net = net
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._net is None:
            raise ContractError("predict before fit")
        return self._net.forward_values(np.asarray(x, dtype=float)).ravel()


Regressor = Union[KernelRidgeRegressor, MlpRegressor]


def fit(model: Regressor, ds: TabularDataset) -> Regressor:
    """Fit an unfitted `model` on a whole dataset. Only downstream evaluation
    calls this; the selection and quality fits call the model's `fit`."""
    return model.fit(ds.features, ds.labels)


def evaluate(model: Regressor, ds: TabularDataset) -> Metrics:
    return metrics_from_residuals(model.predict(ds.features) - ds.labels)


def metrics_from_residuals(residuals: np.ndarray) -> Metrics:
    r = np.asarray(residuals, dtype=float).reshape(-1)
    if r.size == 0:
        raise ContractError("metrics need at least one residual")
    return Metrics(mae=float(np.mean(np.abs(r))),
                   rmse=float(np.sqrt(np.mean(r * r))))
