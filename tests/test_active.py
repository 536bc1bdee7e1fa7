"""Training-set selection: k-means, silhouette, greedy acquisition."""
import itertools

import numpy as np
import pytest

from conftest import brute_force_greedy, traced_peak

from softaug import choose_k, kmeans, run_active_selection
from softaug import active
from softaug.active import (POOL_BLOCK, ClusterResult, _pool_dists,
                            _sq_dists, igs_score, init_select, silhouette_mean)
from softaug.data import TabularDataset
from softaug.errors import BudgetError, ContractError, DataError, DegeneracyError
from softaug.regress import KernelRidgeRegressor
from softaug.rng import derive_seed


class _Identity:
    """Stub model predicting the first feature verbatim."""

    def predict(self, x):
        return np.asarray(x, dtype=float)[:, 0]


class _Fixed:
    """Stub model with one prediction pinned per pool row."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def predict(self, x):
        if x.shape[0] == self.values.shape[0]:
            return self.values
        raise AssertionError("fixed stub only answers full-pool queries")


def _pool(features, labels=None):
    features = np.asarray(features, dtype=float)
    if labels is None:
        labels = features[:, 0]
    return TabularDataset(features, np.asarray(labels, dtype=float),
                          tuple(f"x{i+1}" for i in range(features.shape[1])))


def _blobs(centers, per, spread, seed):
    rng = np.random.default_rng(seed)
    rows = [c + spread * rng.normal(size=(per, len(c))) for c in centers]
    return np.vstack(rows)


# ------------------------------------------------------------------- k-means

def _best_two_partition(points):
    """Exhaustive optimal 2-partition by inertia."""
    m = len(points)
    best = (np.inf, None)
    for size in range(1, m // 2 + 1):
        for left in itertools.combinations(range(m), size):
            mask = np.zeros(m, dtype=bool)
            mask[list(left)] = True
            inertia = sum(
                float(np.sum((points[side] - points[side].mean(axis=0)) ** 2))
                for side in (mask, ~mask))
            if inertia < best[0]:
                best = (inertia, mask)
    return best


def test_kmeans_two_blobs_matches_exhaustive_partition():
    points = np.array([[0.0], [0.1], [10.0], [10.1]])
    best_inertia, mask = _best_two_partition(points)
    for seed in (0, 1, 2):
        result = kmeans(points, 2, seed)
        got = sorted(result.centroids.ravel())
        assert np.allclose(got, [0.05, 10.05], atol=1e-12)
        assert abs(result.inertia - best_inertia) < 1e-12
        split = {frozenset(np.where(result.assignments == c)[0])
                 for c in (0, 1)}
        want = {frozenset(np.where(mask)[0]), frozenset(np.where(~mask)[0])}
        assert split == want


def test_kmeans_identical_points_single_cluster():
    points = np.full((5, 2), 3.5)
    result = kmeans(points, 1, seed=4)
    assert np.allclose(result.centroids, [[3.5, 3.5]])
    assert result.inertia == 0.0
    with pytest.raises(DegeneracyError):
        kmeans(points, 2, seed=4)


def test_kmeans_deterministic_and_validates_k():
    points = _blobs([(0, 0), (5, 5)], 8, 0.3, seed=1)
    a = kmeans(points, 3, seed=7)
    b = kmeans(points, 3, seed=7)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centroids, b.centroids)
    with pytest.raises(ContractError):
        kmeans(points, 0, seed=7)


def test_kmeans_refuses_more_clusters_than_distinct_rows():
    # k-means++ runs out of points off its centroids exactly at the distinct count
    rng = np.random.default_rng(12)
    points = np.vstack([rng.normal(size=(30, 3)),
                        np.repeat(rng.normal(size=(1, 3)), 10, axis=0)])
    assert np.unique(points, axis=0).shape[0] == 31
    assert len(np.unique(kmeans(points, 31, seed=0).assignments)) == 31
    for rows, k, message in ((points, 32, "k=32 exceeds 31 distinct points"),
                             (np.ones((6, 3)), 2, "k=2 exceeds 1 distinct points"),
                             (np.empty((0, 3)), 1, "k=1 exceeds 0 distinct points")):
        with pytest.raises(DegeneracyError, match=message):
            kmeans(rows, k, seed=0)


def test_kmeans_assigns_to_nearest_centroid():
    points = _blobs([(0, 0), (4, 0), (0, 4)], 6, 0.4, seed=2)
    result = kmeans(points, 3, seed=5)
    d2 = np.array([[np.sum((p - c) ** 2) for c in result.centroids]
                   for p in points])
    assert np.array_equal(result.assignments, np.argmin(d2, axis=1))


def test_kmeans_repairs_an_empty_cluster_with_the_farthest_point(monkeypatch):
    # a start whose second centroid owns no point: every point goes to 0.5,
    # so that cluster's mean moves to 2.25 and point 6 is the farthest from it
    points = np.array([[0.0], [1.0], [2.0], [6.0]])
    monkeypatch.setattr(active, "_kmeans_pp", lambda p, k, rng: np.array([[0.5], [100.0]]))
    result = kmeans(points, 2, seed=0)
    assert result.centroids.tolist() == [[1.0], [6.0]]
    assert np.all(np.bincount(result.assignments, minlength=2) > 0)
    monkeypatch.setattr(active, "LLOYD_MAX_ITER", 1)        # stop right after the repair
    one_round = kmeans(points, 2, seed=0)
    assert one_round.centroids.tolist() == [[2.25], [6.0]]
    assert one_round.assignments.tolist() == [0, 0, 0, 1]


# ---------------------------------------------------------------- silhouette

def _naive_silhouette(points, assign):
    m = len(points)
    dist = np.array([[np.sqrt(np.sum((points[i] - points[j]) ** 2))
                      for j in range(m)] for i in range(m)])
    out = []
    for i in range(m):
        own = [j for j in range(m) if assign[j] == assign[i] and j != i]
        if not own:
            out.append(0.0)
            continue
        a = sum(dist[i, j] for j in own) / len(own)
        b = min(np.mean([dist[i, j] for j in range(m) if assign[j] == c])
                for c in set(assign) if c != assign[i])
        out.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(out))


def test_silhouette_matches_naive_double_loop():
    rng = np.random.default_rng(9)
    points = rng.uniform(size=(12, 2))
    assign = rng.integers(0, 3, size=12)
    assign[:3] = [0, 1, 2]          # every cluster inhabited
    singleton = assign.copy()
    singleton[singleton == 2] = 1
    singleton[5] = 2                # cluster 2 holds one point
    # rows 0-1 sit on their own cluster-mate and on cluster 1: a = b = 0
    duplicates = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]])
    cases = [(points, assign), (points, singleton),
             (duplicates, np.array([0, 0, 1, 1, 2]))]
    for pts, labels in cases:
        got = silhouette_mean(pts, labels)
        assert abs(got - _naive_silhouette(pts, labels)) < 1e-12


def test_silhouette_positive_for_perfect_pairs():
    points = np.array([[0.0], [0.1], [10.0], [10.1]])
    assert silhouette_mean(points, np.array([0, 0, 1, 1])) > 0.9


def test_silhouette_needs_two_clusters():
    with pytest.raises(ContractError):
        silhouette_mean(np.zeros((4, 1)), np.zeros(4, dtype=int))


def test_choose_k_finds_blob_count():
    two = _blobs([(0, 0), (10, 10)], 6, 0.2, seed=3)
    assert choose_k(two, 2, 4, seed=0) == 2
    three = _blobs([(0, 0), (10, 0), (5, 9)], 5, 0.2, seed=4)
    assert choose_k(three, 2, 4, seed=0) == 3


def test_choose_k_tie_prefers_smaller_k():
    # regular simplex: every pairwise distance is sqrt(2) bit-for-bit, so the
    # mean silhouette is exactly 0.0 for both k=2 and k=3
    simplex = np.eye(3)
    assert choose_k(simplex, 2, 3, seed=1) == 2


def test_pool_dists_blocks_equal_one_shot_arithmetic():
    rng = np.random.default_rng(41)
    # (m, d, rows per block): 300 x 10 in thirty 10-row blocks; 317 x 10 in
    # thirty-one 10-row blocks and a ragged last block of 7 rows; 40 x 1000
    # has m * d above POOL_BLOCK, so every block is one row
    for m, d, rows in ((300, 10, 10), (317, 10, 10), (40, 1000, 1)):
        assert max(1, POOL_BLOCK // (m * d)) == rows
        points = rng.uniform(size=(m, d))
        diff = points[:, None, :] - points[None, :, :]
        one_shot = np.sqrt(np.sum(diff * diff, axis=2))
        assert np.array_equal(_pool_dists(points), one_shot), (m, d)
        assert np.array_equal(np.sqrt(_sq_dists(points, points)), one_shot), (m, d)


def test_pool_dists_peak_is_the_result_plus_two_blocks():
    # a block's difference is squared in place, so the peak is the (m, m)
    # result, one difference block and its row sums; blocks of m // d rows
    # would peak at 3.1 times the result
    m = 1000
    points = np.random.default_rng(5).uniform(size=(m, 10))
    assert traced_peak(lambda: _pool_dists(points)) <= m * m * 8 + 2 * POOL_BLOCK * 8


def test_choose_k_rejects_bad_range():
    points = np.zeros((6, 1))
    with pytest.raises(ContractError):
        choose_k(points, 1, 3, seed=0)
    with pytest.raises(ContractError):
        choose_k(points, 3, 2, seed=0)


# --------------------------------------------------------------- init_select

def test_init_select_exact_tie_prefers_lowest_index():
    points = np.array([[0.0], [1.0]])
    clusters = ClusterResult(np.array([[0.5]]), np.array([0, 0]), 0.5)
    assert init_select(points, clusters) == [0]


def test_init_select_singleton_cluster_returns_it():
    points = np.array([[0.0], [0.1], [7.0]])
    clusters = kmeans(points, 2, seed=0)
    chosen = init_select(points, clusters)
    assert 2 in chosen and len(chosen) == 2


def test_init_select_matches_brute_force_scan():
    points = _blobs([(0, 0), (6, 1), (3, 8)], 7, 0.5, seed=6)
    clusters = kmeans(points, 3, seed=2)
    want = sorted({int(np.argmin([np.sum((p - c) ** 2) for p in points]))
                   for c in clusters.centroids})
    assert init_select(points, clusters) == want


def test_init_select_deduplicates_shared_nearest():
    points = np.array([[0.0], [5.0]])
    clusters = ClusterResult(np.array([[0.1], [0.2]]), np.array([0, 1]), 0.0)
    assert init_select(points, clusters) == [0]


# ----------------------------------------------------------------- igs_score

def test_igs_hand_case():
    pool = np.array([[0.0], [10.0], [4.0], [9.0]])
    scores = igs_score(_Identity(), pool, [0, 1], [0.0, 10.0])
    assert scores[0] == 0.0 and scores[1] == 0.0
    assert abs(scores[2] - 16.0 / 15.0) < 1e-12
    assert abs(scores[3] - 1.0 / 15.0) < 1e-12


def test_igs_coincident_point_scores_zero():
    pool = np.array([[0.0], [10.0], [0.0]])
    assert igs_score(_Identity(), pool, [0, 1], [0.0, 10.0])[2] == 0.0


def test_igs_duplicate_only_pool_scores_zero():
    pool = np.zeros((3, 1))
    assert np.all(igs_score(_Identity(), pool, [0], [0.5]) == 0.0)


def test_igs_requires_labels_and_model():
    pool = np.zeros((3, 1))
    with pytest.raises(ContractError):
        igs_score(_Identity(), pool, [], [])
    with pytest.raises(ContractError):
        igs_score(None, pool, [0], [0.0])


def test_igs_scores_invariant_under_feature_scaling():
    # d_x and R both scale linearly with the features while d_y tracks the
    # model, so the score ratio — and hence the argmax — is scale-free
    rng = np.random.default_rng(13)
    pool = rng.uniform(size=(10, 3))
    preds = rng.uniform(size=10)
    model = _Fixed(preds)
    base = igs_score(model, pool, [0, 4], [0.3, 0.8])
    scaled = igs_score(model, 37.0 * pool, [0, 4], [0.3, 0.8])
    assert np.allclose(scaled, base, rtol=1e-12, atol=1e-15)
    assert np.argmax(scaled) == np.argmax(base)


# ------------------------------------------------------- run_active_selection

def test_budget_validation():
    pool = _pool(np.arange(6.0).reshape(-1, 1))
    for initial, total, message in ((1, 5, "must be 0 or >= 2, got 1"),
                                    (-1, 5, "must be 0 or >= 2, got -1"),
                                    (4, 3, "total budget 3 below initial count 4")):
        with pytest.raises(BudgetError, match=message):
            run_active_selection(pool, total, seed=0, initial=initial)
    assert len(run_active_selection(pool, 3, seed=0)[0]) == 3     # silhouette-chosen count
    assert run_active_selection(pool, 2, seed=0, initial=2)[1] == []


def test_third_acquisition_on_hand_pool():
    pool = _pool([[0.0], [10.0], [4.0], [9.0]])
    rows, records = run_active_selection(pool, 3, seed=0, initial=2)
    selected = pool.take(rows)
    assert [rec.index for rec in records] == [2]
    rec = records[0]
    assert rec.step == 3 and rec.d_x == 4.0 and rec.r == 15.0
    # d_y oracle: refit the same kernel-ridge model on the two labeled points
    model = KernelRidgeRegressor().fit(
        np.array([[0.0], [10.0]]), np.array([0.0, 10.0]))
    pred = float(model.predict(np.array([[4.0]]))[0])
    assert abs(rec.d_y - min(abs(pred), abs(pred - 10.0))) < 1e-12
    assert abs(rec.score - rec.d_x * rec.d_y / rec.r) < 1e-15
    assert selected.features.shape == (3, 1)
    assert selected.features[2, 0] == 4.0


def test_full_budget_returns_whole_pool():
    pool = _pool([[0.0], [10.0], [4.0], [9.0]])
    rows, _ = run_active_selection(pool, 4, seed=0, initial=2)
    assert sorted(rows) == [0, 1, 2, 3]         # each row picked exactly once


def test_selection_is_deterministic():
    rng = np.random.default_rng(17)
    pool = _pool(rng.uniform(size=(15, 2)), rng.uniform(size=15))
    runs = [run_active_selection(pool, 7, seed=21, initial=3) for _ in range(2)]
    (rows_a, rec_a), (rows_b, rec_b) = runs
    assert rows_a == rows_b
    assert [r.__dict__ for r in rec_a] == [r.__dict__ for r in rec_b]


def test_acquisition_matches_naive_greedy_oracle():
    rng = np.random.default_rng(29)
    pool = _pool(rng.uniform(size=(20, 2)), rng.uniform(size=20))
    seed = 5
    clusters = kmeans(pool.features, 3, derive_seed(seed, "kmeans"))
    initial = init_select(pool.features, clusters)
    _, records = run_active_selection(pool, 8, seed, initial=3)
    want = brute_force_greedy(pool, initial, 8)
    assert [rec.index for rec in records] == want


def test_tied_zero_scores_acquire_the_lowest_unlabeled_index():
    # every score ties at 0, the labeled rows' too: rows that repeat a
    # labeled row have d_x = 0, and a constant label gives d_y = 0
    repeated = _pool(np.tile([[0.0], [5.0]], (4, 1)), np.arange(8.0))
    constant = _pool(np.arange(8.0)[::-1].reshape(-1, 1), np.zeros(8))
    for pool, zero in ((repeated, "d_x"), (constant, "d_y")):
        rows, records = run_active_selection(pool, 6, seed=0, initial=2)
        unlabeled = [i for i in range(8) if i not in rows[:2]]
        assert [r.index for r in records] == unlabeled[:4], zero
        assert all(getattr(r, zero) == 0.0 and r.score == 0.0 for r in records), zero


def test_labels_of_unpicked_rows_change_nothing():
    # selection reads a label only once it has picked the row, so any other
    # label of an unpicked row gives the same picks and the same log
    rng = np.random.default_rng(37)
    x, y = rng.uniform(size=(40, 2)), rng.uniform(size=40)
    for initial in (3, 0):
        rows, records = run_active_selection(_pool(x, y), 12, seed=6, initial=initial)
        other = rng.uniform(-50.0, 50.0, size=40)
        other[rows] = y[rows]
        assert run_active_selection(_pool(x, other), 12, seed=6,
                                    initial=initial) == (rows, records), initial


def test_acquired_indices_stay_disjoint():
    rng = np.random.default_rng(31)
    pool = _pool(rng.uniform(size=(12, 2)), rng.uniform(size=12))
    picked_rows, records = run_active_selection(pool, 9, seed=3, initial=2)
    rows = [tuple(row) for row in pool.take(picked_rows).features]
    assert len(set(rows)) == len(rows) == 9
    picked = [rec.index for rec in records]
    assert len(set(picked)) == len(picked)


def test_auto_initial_count_uses_silhouette():
    points = _blobs([(0, 0), (10, 10)], 6, 0.2, seed=8)
    pool = _pool(points, points.sum(axis=1))
    rows, records = run_active_selection(pool, 6, seed=2)
    assert pool.take(rows).features.shape == (6, 2)
    assert len(records) == 4        # two blobs → two initial picks


def test_run_scores_equal_public_igs_score_every_acquisition(monkeypatch):
    # the run caches R and updates d_x from the newest point; the public
    # scorer recomputes both from scratch on a pool spanning several blocks
    rng = np.random.default_rng(43)
    pool = _pool(rng.uniform(size=(300, 10)), rng.uniform(size=300))
    seen, models = [], []
    inner = active._igs_scores

    class Recorded(KernelRidgeRegressor):
        def fit(self, x, y):
            models.append(self)
            return super().fit(x, y)

    def recording(preds, labeled, labels, r, d_x):
        scores, d_y = inner(preds, labeled, labels, r, d_x)
        seen.append((list(labeled), list(labels), scores))
        return scores, d_y

    monkeypatch.setattr(active, "KernelRidgeRegressor", Recorded)
    monkeypatch.setattr(active, "_igs_scores", recording)
    run_active_selection(pool, 9, seed=7, initial=3)
    monkeypatch.undo()
    assert len(seen) == len(models) == 6
    for (labeled, labels, scores), model in zip(seen, models):
        assert np.array_equal(scores, igs_score(model, pool.features, labeled, labels))


def test_records_hold_the_components_that_produced_each_score():
    # a pool spanning several distance blocks; each record's score is
    # recomputed from its own fields with the same float operations
    rng = np.random.default_rng(47)
    pool = _pool(rng.uniform(size=(300, 10)), rng.uniform(size=300))
    _, records = run_active_selection(pool, 40, seed=9, initial=3)
    assert len(records) == 37
    assert [r.score for r in records] == [r.d_x * r.d_y / r.r for r in records]


def test_auto_initial_count_capped_at_distinct_rows():
    base = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    pool = _pool(np.repeat(base, 20, axis=0), np.repeat([0.0, 1.0, 2.0], 20))
    rows, _ = run_active_selection(pool, 10, seed=0)
    selected = pool.take(rows)
    assert selected.features.shape == (10, 2)
    assert {tuple(row) for row in selected.features} == {tuple(row) for row in base}
    same = _pool(np.zeros((60, 2)), np.zeros(60))
    with pytest.raises(DegeneracyError, match="1 distinct"):
        run_active_selection(same, 10, seed=0)


def test_budget_overdraft_and_tiny_pool_errors():
    pool = _pool([[0.0], [1.0], [2.0]])
    with pytest.raises(BudgetError):
        run_active_selection(pool, 4, seed=0, initial=2)
    with pytest.raises(BudgetError):
        run_active_selection(pool, 3, seed=0)


def test_selection_refuses_features_whose_distances_overflow():
    rng = np.random.default_rng(31)
    x = rng.uniform(size=(30, 3))
    labels = rng.uniform(size=30)

    def select(features):
        return run_active_selection(_pool(features, labels), 8, seed=4, initial=3)

    # an exact power-of-two scale leaves every selection quantity finite
    plain, big = select(x), select(x * [1.0, 2.0 ** 500, 1.0])
    for _, records in (plain, big):
        assert len(records) == 5
        assert np.all(np.isfinite([[r.d_x, r.d_y, r.r, r.score] for r in records]))
    # a wide span overflows the pool sums; a large offset the kernel's norms
    for features in (x * [1.0, 1e160, 1.0], x + [0.0, 1e160, 0.0]):
        with pytest.raises(DataError, match=r"column\(s\) x2 reach \d"):
            select(features)
    # too few distinct rows is a data problem too
    assert issubclass(DegeneracyError, DataError)
