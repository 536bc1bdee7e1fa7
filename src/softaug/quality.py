"""Generated-batch quality: distribution distance plus a regression check.

Two complementary scores, both lower-is-better:

* mmd2: the biased (V-statistic) squared maximum mean discrepancy between
  the joint [x, y] rows of two sets under an RBF kernel, diagonal terms
  included. The bandwidth is "median" (the median pairwise distance over
  the pooled rows of both sets) or a fixed positive width.
* diversity_score: a cross-fitting surrogate. Both sets are cut into K
  seeded folds; models trained on K-1 folds of one set are scored (MAE) on
  one fold of the other, in both directions, and the 2K fold MAEs are
  summed and doubled. A batch that collapsed to one mode cannot predict
  the real fold labels and scores high.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .data import TabularDataset
from .errors import ContractError
from .regress import (Bandwidth, KernelRidgeRegressor, check_bandwidth, median_bandwidth,
                      rbf_kernel)
from .rng import SeededRng, derive_seed

ArrayLike = Union[TabularDataset, np.ndarray]


@dataclass
class BatchQuality:
    batch: int
    mmd2: float
    ds: float
    mmd_rank: int
    ds_rank: int
    combined: float
    selected: bool


def _joint_rows(data: ArrayLike) -> np.ndarray:
    if isinstance(data, TabularDataset):
        return data.joint()
    rows = np.asarray(data, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    if rows.ndim != 2:
        raise ContractError(f"expected 2-D joint rows, got ndim={rows.ndim}")
    return rows


def mmd2(a: ArrayLike, b: ArrayLike, bandwidth: Bandwidth = "median") -> float:
    """Biased squared MMD between the joint rows of a and b.

    mean(K_aa) - 2*mean(K_ab) + mean(K_bb), diagonals included. Tiny
    negative results from rounding are the caller's business; selection
    clamps them at report time.
    """
    ra, rb = _joint_rows(a), _joint_rows(b)
    if ra.shape[0] == 0 or rb.shape[0] == 0:
        raise ContractError("mmd2 needs non-empty sets")
    if ra.shape[1] != rb.shape[1]:
        raise ContractError(f"joint widths differ: {ra.shape[1]} vs {rb.shape[1]}")
    sigma = check_bandwidth(bandwidth)
    if sigma is None:
        sigma = median_bandwidth(np.vstack([ra, rb]))
    n, m = ra.shape[0], rb.shape[0]
    term_aa = float(rbf_kernel(ra, ra, sigma).sum()) / (n * n)
    term_ab = float(rbf_kernel(ra, rb, sigma).sum()) / (n * m)
    term_bb = float(rbf_kernel(rb, rb, sigma).sum()) / (m * m)
    return term_aa - 2.0 * term_ab + term_bb


RegressorFactory = Callable[[np.ndarray, np.ndarray], object]


def fit_kernel_ridge(x: np.ndarray, y: np.ndarray) -> KernelRidgeRegressor:
    """The default factory: kernel ridge at its default ridge (1e-3) and median width."""
    return KernelRidgeRegressor().fit(x, y)


def _content_folds(ds: TabularDataset, folds: int, seed: int) -> list[np.ndarray]:
    """`ds`'s rows cut into `folds` sorted parts, seeded by its bytes.

    A blake2b digest of the joint rows labels a `derive_seed`, whose Philox
    permutation of the rows is cut into parts. Tying the folds to the
    content, not the argument position, makes diversity_score exactly
    symmetric under swapping its two arguments and independent of where a
    batch sits in a candidate list.
    """
    digest = hashlib.blake2b(np.ascontiguousarray(ds.joint()).tobytes(),
                             digest_size=8).hexdigest()
    perm = SeededRng(derive_seed(seed, f"folds:{digest}")).permutation(ds.n_rows)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def _cross_fit(ds: TabularDataset, folds: int, factory: RegressorFactory,
               seed: int) -> tuple[list[np.ndarray], list]:
    """`ds`'s content folds, and model i fit on every fold but fold i."""
    parts = _content_folds(ds, folds, seed)
    models = []
    for i in range(folds):
        keep = np.concatenate(parts[:i] + parts[i + 1:])
        models.append(factory(ds.features[keep], ds.labels[keep]))
    return parts, models


def _fold_maes(models: Sequence, test_ds: TabularDataset,
               test_folds: Sequence[np.ndarray]) -> float:
    """Summed MAE of model i on fold i of `test_ds`."""
    total = 0.0
    for model, fold in zip(models, test_folds):
        pred = np.asarray(model.predict(test_ds.features[fold]), dtype=float)
        total += float(np.mean(np.abs(pred - test_ds.labels[fold])))
    return total


def _check_folds(folds: int, *sets: TabularDataset) -> None:
    if folds < 2:
        raise ContractError(f"need at least 2 folds, got {folds}")
    if any(ds.n_rows < folds for ds in sets):
        raise ContractError(
            f"need >= {folds} rows per set, got {' and '.join(str(ds.n_rows) for ds in sets)}")


def diversity_score(real: TabularDataset, generated: TabularDataset,
                    folds: int = 5, factory: RegressorFactory = fit_kernel_ridge,
                    seed: int = 0, *, real_fit: tuple | None = None) -> float:
    """Cross-fit MAE score; lower means the batch behaves like real data.

    `real_fit`, if given, is the real side `_cross_fit(real, folds, factory,
    seed)` returns, its folds and its models; otherwise it is built here.
    """
    _check_folds(folds, real, generated)
    if real_fit is None:
        real_fit = _cross_fit(real, folds, factory, seed)
    real_folds, real_models = real_fit
    gen_folds, gen_models = _cross_fit(generated, folds, factory, seed)
    return 2.0 * (_fold_maes(gen_models, real, real_folds)
                  + _fold_maes(real_models, generated, gen_folds))


def _ranks(values: Sequence[float]) -> list[int]:
    """1..k ranks, low value = rank 1; ties broken by position."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0] * len(values)
    for pos, i in enumerate(order):
        ranks[i] = pos + 1
    return ranks


def select_best_batch(real: TabularDataset, batches: Sequence[TabularDataset],
                      bandwidth: Bandwidth = "median", folds: int = 5,
                      factory: RegressorFactory = fit_kernel_ridge,
                      seed: int = 0) -> tuple[int, list[BatchQuality]]:
    """Pick the batch minimizing normalized mmd2 + normalized diversity score.

    Both metrics are min-max normalized to [0, 1] across the candidate
    batches and summed; the lowest combined score wins, with ties broken by
    raw mmd2 and then by batch index. A single candidate is returned
    trivially with a combined score of 0.
    """
    if not batches:
        raise ContractError("select_best_batch needs at least one batch")
    mmds = [max(mmd2(real, b, bandwidth), 0.0) for b in batches]
    _check_folds(folds, real)
    real_fit = _cross_fit(real, folds, factory, seed)     # shared by every batch
    dss = [diversity_score(real, b, folds, factory, seed, real_fit=real_fit)
           for b in batches]

    def norm(vals):
        lo, hi = min(vals), max(vals)
        if hi <= lo:
            return [0.0] * len(vals)
        return [(v - lo) / (hi - lo) for v in vals]

    combined = [a + b for a, b in zip(norm(mmds), norm(dss))]
    best = min(range(len(batches)), key=lambda i: (combined[i], mmds[i], i))
    mmd_ranks, ds_ranks = _ranks(mmds), _ranks(dss)
    report = [BatchQuality(i, mmds[i], dss[i], mmd_ranks[i], ds_ranks[i],
                           combined[i], i == best)
              for i in range(len(batches))]
    return best, report
