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

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .data import TabularDataset
from .errors import ContractError
from .regress import Bandwidth, KernelRidgeRegressor, _resolve_bandwidth, rbf_kernel
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
    sigma = _resolve_bandwidth(bandwidth, np.vstack([ra, rb]))
    n, m = ra.shape[0], rb.shape[0]
    term_aa = float(rbf_kernel(ra, ra, sigma).sum()) / (n * n)
    term_ab = float(rbf_kernel(ra, rb, sigma).sum()) / (n * m)
    term_bb = float(rbf_kernel(rb, rb, sigma).sum()) / (m * m)
    return term_aa - 2.0 * term_ab + term_bb


RegressorFactory = Callable[[np.ndarray, np.ndarray], object]


def fit_kernel_ridge(x: np.ndarray, y: np.ndarray) -> KernelRidgeRegressor:
    """The default factory: kernel ridge at its default ridge (1e-3) and median width."""
    return KernelRidgeRegressor().fit(x, y)


def _fold_indices(n: int, folds: int, rng: SeededRng) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def _fold_models(train_ds: TabularDataset, train_folds: Sequence[np.ndarray],
                 factory: RegressorFactory) -> list:
    """Model i is fit on every fold of `train_ds` but fold i."""
    models = []
    for i in range(len(train_folds)):
        keep = np.concatenate([f for j, f in enumerate(train_folds) if j != i])
        models.append(factory(train_ds.features[keep], train_ds.labels[keep]))
    return models


def _fold_maes(models: Sequence, test_ds: TabularDataset,
               test_folds: Sequence[np.ndarray]) -> list[float]:
    """MAE of model i on fold i of `test_ds`."""
    maes = []
    for model, fold in zip(models, test_folds):
        pred = np.asarray(model.predict(test_ds.features[fold]), dtype=float)
        maes.append(float(np.mean(np.abs(pred - test_ds.labels[fold]))))
    return maes


def _content_fold_seed(seed: int, ds: TabularDataset) -> int:
    """Fold seed tied to the dataset's bytes, not its argument position.

    This makes diversity_score exactly symmetric under swapping its two
    arguments and independent of where a batch sits in a candidate list.
    """
    import hashlib
    digest = hashlib.blake2b(np.ascontiguousarray(ds.joint()).tobytes(),
                             digest_size=8).hexdigest()
    return derive_seed(seed, f"folds:{digest}")


def _content_folds(ds: TabularDataset, folds: int, seed: int) -> list[np.ndarray]:
    return _fold_indices(ds.n_rows, folds, SeededRng(_content_fold_seed(seed, ds)))


def _check_folds(folds: int, *sets: TabularDataset) -> None:
    if folds < 2:
        raise ContractError(f"need at least 2 folds, got {folds}")
    if any(ds.n_rows < folds for ds in sets):
        raise ContractError(
            f"need >= {folds} rows per set, got {' and '.join(str(ds.n_rows) for ds in sets)}")


def _real_fold_models(real: TabularDataset, folds: int, factory: RegressorFactory,
                      seed: int) -> list:
    """The real -> generated models of `diversity_score`. They depend on the
    real set alone, so a ranking fits them once for all its batches."""
    _check_folds(folds, real)
    return _fold_models(real, _content_folds(real, folds, seed), factory)


def diversity_score(real: TabularDataset, generated: TabularDataset,
                    folds: int = 5, factory: RegressorFactory = fit_kernel_ridge,
                    seed: int = 0, *, real_models: Sequence | None = None) -> float:
    """Cross-fit MAE score; lower means the batch behaves like real data.

    `real_models`, if given, are the models `_real_fold_models(real, folds,
    factory, seed)` returns; otherwise they are fit here.
    """
    _check_folds(folds, real, generated)
    if real_models is None:
        real_models = _real_fold_models(real, folds, factory, seed)
    gen_folds = _content_folds(generated, folds, seed)
    gen_models = _fold_models(generated, gen_folds, factory)
    gen_to_real = _fold_maes(gen_models, real, _content_folds(real, folds, seed))
    real_to_gen = _fold_maes(real_models, generated, gen_folds)
    return 2.0 * (sum(gen_to_real) + sum(real_to_gen))


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
    real_models = _real_fold_models(real, folds, factory, seed)
    dss = [diversity_score(real, b, folds, factory, seed, real_models=real_models)
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
