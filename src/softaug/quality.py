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
from .regress import (Bandwidth, RegressorSpec, _resolve_bandwidth, make_regressor,
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
    sigma = _resolve_bandwidth(bandwidth, np.vstack([ra, rb]))
    n, m = ra.shape[0], rb.shape[0]
    term_aa = float(rbf_kernel(ra, ra, sigma).sum()) / (n * n)
    term_ab = float(rbf_kernel(ra, rb, sigma).sum()) / (n * m)
    term_bb = float(rbf_kernel(rb, rb, sigma).sum()) / (m * m)
    return term_aa - 2.0 * term_ab + term_bb


RegressorFactory = Callable[[np.ndarray, np.ndarray], object]


def default_regressor_factory() -> RegressorFactory:
    spec = RegressorSpec(kind="kernel-ridge")

    def factory(x: np.ndarray, y: np.ndarray):
        return make_regressor(spec).fit(x, y)

    return factory


def _fold_indices(n: int, folds: int, rng: SeededRng) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def _direction_maes(train_ds: TabularDataset, test_ds: TabularDataset,
                    train_folds: Sequence[np.ndarray],
                    test_folds: Sequence[np.ndarray],
                    factory: RegressorFactory) -> list[float]:
    maes = []
    for i in range(len(train_folds)):
        keep = np.concatenate([f for j, f in enumerate(train_folds) if j != i])
        model = factory(train_ds.features[keep], train_ds.labels[keep])
        pred = np.asarray(model.predict(test_ds.features[test_folds[i]]), dtype=float)
        maes.append(float(np.mean(np.abs(pred - test_ds.labels[test_folds[i]]))))
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


def diversity_score(real: TabularDataset, generated: TabularDataset,
                    folds: int = 5, factory: RegressorFactory | None = None,
                    seed: int = 0) -> float:
    """Cross-fit MAE score; lower means the batch behaves like real data."""
    if folds < 2:
        raise ContractError(f"need at least 2 folds, got {folds}")
    if real.n_rows < folds or generated.n_rows < folds:
        raise ContractError(
            f"need >= {folds} rows per set, got {real.n_rows} and {generated.n_rows}")
    factory = factory or default_regressor_factory()
    real_folds = _fold_indices(real.n_rows, folds,
                               SeededRng(_content_fold_seed(seed, real)))
    gen_folds = _fold_indices(generated.n_rows, folds,
                              SeededRng(_content_fold_seed(seed, generated)))
    gen_to_real = _direction_maes(generated, real, gen_folds, real_folds, factory)
    real_to_gen = _direction_maes(real, generated, real_folds, gen_folds, factory)
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
                      factory: RegressorFactory | None = None,
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
    dss = [diversity_score(real, b, folds, factory, seed) for b in batches]

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
