"""Training-set selection: clustering warm start plus greedy acquisition.

The initial labeled set comes from k-means (one representative per
cluster); afterwards points are acquired one at a time by the score

    score(n) = d_x(n) * d_y(n) / R(n)

where d_x is the distance to the nearest labeled point, d_y the smallest
gap between the current model's prediction f(x_n) and any labeled label,
and R the total distance from n to every pool point (labeled or not).
Large d_x, d_y favour diversity; small R favours representative points.
The model f is refitted after every acquisition.

The pool is fixed for a run, so the pool x pool distance matrix is built
once and every step reads from it: the silhouette of every candidate k,
R (constant for the run) and d_x, which only shrinks as points are
labeled and so is updated from the newest labeled point alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TabularDataset
from .errors import BudgetError, ContractError, DataError, DegeneracyError
from .regress import KernelRidgeRegressor
from .rng import SeededRng, derive_seed

LLOYD_TOL = 1e-6
LLOYD_MAX_ITER = 100
# float64 values in one (rows, m, d) difference block of `_pool_dists` (256 KB)
POOL_BLOCK = 1 << 15


@dataclass
class ClusterResult:
    centroids: np.ndarray          # (k, d)
    assignments: np.ndarray        # (m,) int
    inertia: float


@dataclass
class AcquisitionRecord:
    step: int
    index: int
    d_x: float
    d_y: float
    r: float
    score: float


# ------------------------------------------------------------------ k-means

def kmeans(points: np.ndarray, k: int, seed: int) -> ClusterResult:
    """Seeded k-means++ start, Lloyd iterations to a 1e-6 shift or 100 rounds.

    A k above the number of distinct rows is a DegeneracyError, raised by
    the k-means++ start once every row lies on a chosen centroid.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    rng = SeededRng(seed)
    centroids = _kmeans_pp(points, k, rng)
    for _ in range(LLOYD_MAX_ITER):
        d2 = _sq_dists(points, centroids)
        assign = np.argmin(d2, axis=1)          # ties go to the lowest centroid
        new_centroids = centroids.copy()
        for c in range(k):
            members = points[assign == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
        # an emptied cluster grabs the point farthest from its centroid
        for c in range(k):
            if not np.any(assign == c):
                worst = int(np.argmax(np.min(_sq_dists(points, new_centroids), axis=1)))
                new_centroids[c] = points[worst]
                assign[worst] = c
        shift = float(np.max(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if shift < LLOYD_TOL:
            break
    d2 = _sq_dists(points, centroids)
    assign = np.argmin(d2, axis=1)
    inertia = float(np.sum(d2[np.arange(m), assign]))
    return ClusterResult(centroids, assign, inertia)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    np.multiply(diff, diff, out=diff)
    return np.sum(diff, axis=2)


def _pool_dists(points: np.ndarray) -> np.ndarray:
    """Euclidean (m, m) distances, equal to `np.sqrt(_sq_dists(p, p))`.

    Built in blocks of as many rows as keep a block's (rows, m, d)
    difference within POOL_BLOCK values (one row at least), so the (m, m)
    result is the only array that grows with m squared.
    """
    m, d = points.shape
    rows = max(1, POOL_BLOCK // max(m * d, 1))
    dists = np.empty((m, m))
    for start in range(0, m, rows):
        np.sqrt(_sq_dists(points[start:start + rows], points), out=dists[start:start + rows])
    return dists


def _kmeans_pp(points: np.ndarray, k: int, rng: SeededRng) -> np.ndarray:
    m = points.shape[0]
    if m == 0:
        raise DegeneracyError(f"k={k} exceeds 0 distinct points")
    centroids = [points[int(rng.integers(0, m, 1)[0])]]
    for _ in range(1, k):
        d2 = np.min(_sq_dists(points, np.array(centroids)), axis=1)
        if d2.sum() <= 0.0:
            # every point lies on a centroid, and each pick had d2 > 0
            raise DegeneracyError(f"k={k} exceeds {len(centroids)} distinct points")
        centroids.append(points[rng.choice_index(d2)])
    return np.array(centroids)


# --------------------------------------------------------------- silhouette

def silhouette_mean(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette with the usual conventions (singletons score 0)."""
    points = np.asarray(points, dtype=float)
    return _silhouette(_pool_dists(points), np.asarray(assignments, dtype=int))


def _silhouette(dists: np.ndarray, assign: np.ndarray) -> float:
    """Mean silhouette from the (m, m) distances, one pass per cluster."""
    _, own, sizes = np.unique(assign, return_inverse=True, return_counts=True)
    if len(sizes) < 2:
        raise ContractError("silhouette needs at least two clusters")
    rows = np.arange(len(assign))
    # (m, clusters): summed distance from every point to each cluster
    sums = np.stack([dists[:, own == c].sum(axis=1) for c in range(len(sizes))], axis=1)
    n_own = sizes[own]
    a = sums[rows, own] / np.maximum(n_own - 1, 1)
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    scored = (n_own > 1) & (top > 0.0)       # singletons and a = b = 0 score 0
    scores = np.zeros(len(assign))
    scores[scored] = (b[scored] - a[scored]) / top[scored]
    return float(scores.mean())


def choose_k(points: np.ndarray, k_lo: int, k_hi: int, seed: int) -> int:
    """Argmax of the mean silhouette over [k_lo, k_hi]; ties pick smaller k."""
    points = np.asarray(points, dtype=float)
    return _choose_k(points, _pool_dists(points), k_lo, k_hi, seed)


def _choose_k(points: np.ndarray, dists: np.ndarray, k_lo: int, k_hi: int, seed: int) -> int:
    if k_lo < 2 or k_hi < k_lo:
        raise ContractError(f"need 2 <= k_lo <= k_hi, got [{k_lo}, {k_hi}]")
    best_k, best_s = None, -np.inf
    for k in range(k_lo, k_hi + 1):
        result = kmeans(points, k, derive_seed(seed, f"kmeans:{k}"))
        s = _silhouette(dists, result.assignments)
        if s > best_s:
            best_k, best_s = k, s
    return int(best_k)


# ---------------------------------------------------------------- selection

def init_select(points: np.ndarray, clusters: ClusterResult) -> list[int]:
    """Nearest pool point to each centroid; distance ties pick the lowest index."""
    nearest = np.argmin(_sq_dists(points, clusters.centroids), axis=0)
    return sorted(set(nearest.tolist()))


def igs_score(model, pool: np.ndarray, labeled: list[int], labels) -> np.ndarray:
    """Scores for every pool point; labeled entries get 0 (never re-picked).

    `labels` are the labels of the `labeled` pool indices, in their order,
    and `model` is the fitted f behind d_y.
    """
    pool = np.asarray(pool, dtype=float)
    if not len(labeled):
        raise ContractError("scoring needs at least one labeled point")
    if model is None:
        raise ContractError("scoring needs a fitted model for d_y")
    dists = _pool_dists(pool)
    r = dists.sum(axis=1)                              # over the whole pool
    d_x = dists[:, labeled].min(axis=1)
    return _igs_scores(model.predict(pool), labeled, labels, r, d_x)[0]


def _igs_scores(preds, labeled: list[int], labels, r: np.ndarray,
                d_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scores from the model's pool predictions, and the d_y they used."""
    labeled_y = np.asarray(labels, dtype=float)
    preds = np.asarray(preds, dtype=float)
    d_y = np.abs(preds[:, None] - labeled_y[None, :]).min(axis=1)

    scores = np.zeros(r.shape[0])
    mask = r > 0.0
    scores[mask] = d_x[mask] * d_y[mask] / r[mask]
    scores[labeled] = 0.0
    return scores, d_y


def run_active_selection(
    pool: TabularDataset,
    total: int,
    seed: int,
    ridge: float = 1e-3,
    initial: int = 0,
) -> tuple[list[int], list[AcquisitionRecord]]:
    """Pick `total` pool rows: clustering start, then greedy scores.

    The clustering start picks `initial` rows, or a count chosen by
    silhouette when `initial` is 0. A picked row's label is read from
    `pool.labels`. Returns the picked pool indices in acquisition order and
    the per-acquisition log. The model f behind d_y is kernel ridge with
    `ridge`.
    """
    if initial == 1 or initial < 0:
        raise BudgetError(f"initial labeled count must be 0 or >= 2, got {initial}")
    if initial and total < initial:
        raise BudgetError(f"total budget {total} below initial count {initial}")
    points = pool.features
    m = points.shape[0]
    if total > m:
        raise BudgetError(f"budget {total} exceeds pool size {m}")
    _check_scale(points, pool.columns)
    dists = _pool_dists(points)
    if not initial:
        if m // 2 < 2:
            raise BudgetError(f"pool of {m} is too small to choose an initial count")
        distinct = np.unique(points, axis=0).shape[0]
        if distinct < 2:
            raise DegeneracyError(
                f"pool has {distinct} distinct row(s); choosing an initial count needs 2")
        k_hi = min(10, m // 2, distinct)
        initial = _choose_k(points, dists, 2, k_hi, derive_seed(seed, "choose-k"))

    clusters = kmeans(points, min(initial, total), derive_seed(seed, "kmeans"))
    labeled = init_select(points, clusters)
    labels = pool.labels[labeled].tolist()                # parallel to `labeled`
    taken = np.zeros(m, dtype=bool)
    taken[labeled] = True

    r = dists.sum(axis=1)
    d_x = dists[:, labeled].min(axis=1)
    records: list[AcquisitionRecord] = []
    while len(labeled) < total:
        model = KernelRidgeRegressor(ridge).fit(points[labeled], np.array(labels))
        scores, d_y = _igs_scores(model.predict(points), labeled, labels, r, d_x)
        best = int(np.argmax(np.where(taken, -np.inf, scores)))   # ties: lowest unlabeled index
        labeled.append(best)
        labels.append(float(pool.labels[best]))
        taken[best] = True
        records.append(AcquisitionRecord(len(labeled), best, float(d_x[best]),
                                         float(d_y[best]), float(r[best]), float(scores[best])))
        d_x = np.minimum(d_x, dists[:, best])
    return labeled, records


def _check_scale(points: np.ndarray, columns) -> None:
    """A DataError naming the feature columns whose scale overflows selection.

    Selection runs on raw units. A point's summed squared distances to the
    m pool points stay below m * sum(span_j**2), and the kernel model's
    |a|**2 + |b|**2 - 2 a.b below 2 * sum(mag_j**2) before the subtraction,
    with span_j and mag_j column j's range and largest magnitude. Both must
    be finite; a column is named when its own term exceeds an even share.
    """
    if not points.size:
        return
    lo, hi = points.min(axis=0), points.max(axis=0)
    mag = np.maximum(-lo, hi)
    with np.errstate(over="ignore"):
        span2 = points.shape[0] * (hi - lo) ** 2
        mag2 = 2.0 * mag ** 2
        if np.isfinite(span2.sum()) and np.isfinite(mag2.sum()):
            return
    share = np.finfo(float).max / points.shape[1]
    wide = [c for c, s, g in zip(columns, span2, mag2) if s > share or g > share]
    raise DataError(f"feature column(s) {', '.join(wide or columns)} reach {mag.max():.3g}, "
                    f"too large for the selection's squared distances; rescale them")
