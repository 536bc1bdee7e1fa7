"""Batch quality: squared MMD, cross-fit diversity score, batch selection."""
import hashlib

import numpy as np
import pytest

from softaug import diversity_score, mmd2, select_best_batch
from softaug.data import TabularDataset, synth_make
from softaug.errors import ContractError
import softaug.quality as quality_module
from softaug.regress import median_bandwidth


def _dataset(features, labels, provenance="real"):
    features = np.asarray(features, dtype=float)
    return TabularDataset(features, np.asarray(labels, dtype=float),
                          tuple(f"x{i+1}" for i in range(features.shape[1])),
                          provenance=provenance)


def _random_dataset(n, d, seed, provenance="real"):
    rng = np.random.default_rng(seed)
    return _dataset(rng.uniform(size=(n, d)), rng.uniform(size=n), provenance)


class _ConstantMean:
    def __init__(self, mean):
        self.mean = mean

    def predict(self, x):
        return np.full(x.shape[0], self.mean)


def _constant_factory(x, y):
    return _ConstantMean(float(np.mean(y)))


# --------------------------------------------------------------------- mmd2

def test_mmd2_analytic_two_singletons():
    got = mmd2(np.array([0.0]), np.array([1.0]), 1.0)
    assert abs(got - (2.0 - 2.0 * np.exp(-0.5))) < 1e-12


def test_mmd2_of_a_batch_against_itself_is_zero():
    ds = _random_dataset(30, 3, seed=1)
    assert abs(mmd2(ds, ds)) <= 1e-12


def test_mmd2_is_symmetric():
    a, b = _random_dataset(14, 2, seed=2), _random_dataset(9, 2, seed=3)
    assert abs(mmd2(a, b) - mmd2(b, a)) <= 1e-12


def _naive_mmd2(ra, rb, sigma):
    def total(u, v):
        acc = 0.0
        for x in u:
            for z in v:
                acc += np.exp(-np.sum((x - z) ** 2) / (2.0 * sigma * sigma))
        return acc

    n, m = len(ra), len(rb)
    return total(ra, ra) / (n * n) - 2.0 * total(ra, rb) / (n * m) \
        + total(rb, rb) / (m * m)


def test_mmd2_matches_naive_triple_loop():
    rng = np.random.default_rng(4)
    ra, rb = rng.normal(size=(8, 3)), rng.normal(size=(6, 3))
    sigma = 1.3
    got = mmd2(ra, rb, sigma)
    assert abs(got - _naive_mmd2(ra, rb, sigma)) < 1e-12


def test_mmd2_median_bandwidth_pools_both_sets():
    a, b = _random_dataset(10, 2, seed=5), _random_dataset(12, 2, seed=6)
    pooled = np.vstack([a.joint(), b.joint()])
    sigma = median_bandwidth(pooled)
    assert mmd2(a, b) == mmd2(a, b, sigma)


def test_mmd2_accepts_datasets_and_raw_arrays_alike():
    a, b = _random_dataset(7, 2, seed=7), _random_dataset(5, 2, seed=8)
    assert mmd2(a, b) == mmd2(a.joint(), b.joint())


def test_mmd2_contract_errors():
    a = _random_dataset(4, 2, seed=9)
    with pytest.raises(ContractError):
        mmd2(np.zeros((0, 3)), a.joint())
    with pytest.raises(ContractError):
        mmd2(a, np.zeros((3, 5)))
    # 2 * bw**2 underflows to 0 at 1e-300 and overflows at 1e155
    for bad in (-1.0, -2.0, 0.0, float("nan"), float("inf"), "nan", "-inf", "wide", None,
                1e-300, 1e155, "1e155"):
        with pytest.raises(ContractError, match="positive finite"):
            mmd2(a, a, bad)
    with pytest.raises(ContractError):
        mmd2(np.zeros((2, 2, 2)), a.joint())


def test_mmd2_separates_shifted_samples():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(200, 2))
        b = rng.normal(size=(200, 2))
        shifted = rng.normal(size=(200, 2)) + 3.0
        assert mmd2(a, shifted, 1.0) > mmd2(a, b, 1.0)


# ---------------------------------------------------------- diversity score

def test_diversity_score_constant_predictor_hand_case():
    x = np.arange(4, dtype=float).reshape(-1, 1)
    real = _dataset(x, np.full(4, 0.4))
    gen = _dataset(x, np.full(4, 0.6), provenance="generated")
    s = diversity_score(real, gen, folds=2, factory=_constant_factory)
    # 2 folds x 2 directions, each fold MAE 0.2 -> 2 * (0.4 + 0.4)
    assert abs(s - 1.6) < 1e-12


def test_diversity_score_factor_is_exactly_two():
    # labels 0.5 apart keep every intermediate exact in binary floats
    x = np.arange(4, dtype=float).reshape(-1, 1)
    real = _dataset(x, np.full(4, 0.25))
    gen = _dataset(x, np.full(4, 0.75), provenance="generated")
    assert diversity_score(real, gen, folds=2, factory=_constant_factory) == 4.0


def test_diversity_score_swap_symmetry_is_bitwise():
    a = _random_dataset(12, 2, seed=10)
    b = _random_dataset(10, 2, seed=11, provenance="generated")
    assert diversity_score(a, b) == diversity_score(b, a)


def test_diversity_score_depends_on_content_not_identity():
    a = _random_dataset(9, 2, seed=12)
    b = _random_dataset(8, 2, seed=13, provenance="generated")
    b_clone = _dataset(b.features.copy(), b.labels.copy(), "generated")
    assert diversity_score(a, b) == diversity_score(a, b_clone)


def test_diversity_score_is_deterministic():
    a = _random_dataset(11, 3, seed=14)
    b = _random_dataset(11, 3, seed=15, provenance="generated")
    assert diversity_score(a, b, seed=4) == diversity_score(a, b, seed=4)


def test_mode_collapse_scores_worse_than_diverse_batch():
    real = synth_make("sinusoid-2d", 40, noise_sd=0.0, seed=0)
    for seed in (1, 2, 3):
        diverse = synth_make("sinusoid-2d", 40, noise_sd=0.0, seed=seed)
        collapsed = _dataset(np.repeat(diverse.features[:1], 40, axis=0),
                             np.repeat(diverse.labels[:1], 40), "generated")
        assert (diversity_score(real, collapsed, seed=seed)
                > diversity_score(real, diverse, seed=seed))


def test_diversity_score_contract_errors():
    a, b = _random_dataset(6, 1, seed=16), _random_dataset(6, 1, seed=17)
    with pytest.raises(ContractError):
        diversity_score(a, b, folds=1)
    with pytest.raises(ContractError):
        diversity_score(a, b, folds=7)


# ------------------------------------------------------------ batch selection

def test_single_batch_selected_trivially():
    real = _random_dataset(10, 2, seed=18)
    batch = _random_dataset(10, 2, seed=19, provenance="generated")
    best, report = select_best_batch(real, [batch])
    assert best == 0
    (quality,) = report
    assert quality.selected and quality.combined == 0.0
    assert quality.mmd_rank == 1 and quality.ds_rank == 1


def test_batch_equal_to_real_dominates():
    x = np.arange(8, dtype=float).reshape(-1, 1) / 8.0
    real = _dataset(x, np.full(8, 0.4))
    same = _dataset(x.copy(), np.full(8, 0.4), "generated")
    far = _dataset(x + 0.9, np.full(8, 0.4), "generated")
    # constant-mean factory sees only labels, so both ds values tie at 0
    best, report = select_best_batch(real, [far, same],
                                     factory=_constant_factory, folds=2)
    assert best == 1
    assert report[1].ds == report[0].ds == 0.0
    assert report[1].mmd2 < report[0].mmd2


def test_identical_batches_degenerate_normalization():
    real = _random_dataset(10, 2, seed=20)
    batch = _random_dataset(10, 2, seed=21, provenance="generated")
    clone = _dataset(batch.features.copy(), batch.labels.copy(), "generated")
    best, report = select_best_batch(real, [batch, clone])
    assert best == 0
    assert [q.combined for q in report] == [0.0, 0.0]


def test_ranks_are_a_permutation():
    real = _random_dataset(12, 2, seed=22)
    batches = [_random_dataset(12, 2, seed=s, provenance="generated")
               for s in (23, 24, 25, 26)]
    _, report = select_best_batch(real, batches)
    assert sorted(q.mmd_rank for q in report) == [1, 2, 3, 4]
    assert sorted(q.ds_rank for q in report) == [1, 2, 3, 4]
    assert sum(q.selected for q in report) == 1


def test_selection_is_permutation_equivariant():
    real = _random_dataset(12, 2, seed=27)
    batches = [_random_dataset(12, 2, seed=s, provenance="generated")
               for s in (28, 29, 30)]
    best, report = select_best_batch(real, batches)
    perm = [2, 0, 1]                         # new position of old batch i
    shuffled = [batches[i] for i in (1, 2, 0)]
    best_p, report_p = select_best_batch(real, shuffled)
    assert best_p == perm[best]
    for old, quality in enumerate(report):
        moved = report_p[perm[old]]
        assert moved.mmd2 == quality.mmd2 and moved.ds == quality.ds


def _naive_folds(ds, folds, seed):
    """The content-addressed fold rule: a blake2b digest of the joint rows
    names the sub-seed (blake2b of "seed:folds:digest") of a Philox
    permutation, cut into `folds` sorted parts."""
    rows = np.column_stack([ds.features, ds.labels])
    digest = hashlib.blake2b(rows.tobytes(), digest_size=8).hexdigest()
    key = hashlib.blake2b(f"{seed}:folds:{digest}".encode(), digest_size=8).digest()
    gen = np.random.Generator(np.random.Philox(key=int.from_bytes(key, "little")))
    return [np.sort(part) for part in np.array_split(gen.permutation(ds.n_rows), folds)]


def _naive_selection(real, batches, sigma, folds, seed):
    """Recode the scorer: fold rule, kernel sums, fold MAEs, normalization,
    tie-breaks. Only the kernel-ridge fits come from the library."""
    from softaug.regress import KernelRidgeRegressor

    mmds = [max(_naive_mmd2(real.joint(), b.joint(), sigma), 0.0)
            for b in batches]
    dss = []
    for b in batches:
        folds_by = {id(ds): _naive_folds(ds, folds, seed) for ds in (real, b)}
        total = 0.0
        for train_ds, test_ds in ((b, real), (real, b)):
            tr, te = folds_by[id(train_ds)], folds_by[id(test_ds)]
            for i in range(folds):
                keep = np.concatenate([f for j, f in enumerate(tr) if j != i])
                model = KernelRidgeRegressor().fit(
                    train_ds.features[keep], train_ds.labels[keep])
                pred = model.predict(test_ds.features[te[i]])
                total += float(np.mean(np.abs(pred - test_ds.labels[te[i]])))
        dss.append(2.0 * total)

    def norm(vals):
        lo, hi = min(vals), max(vals)
        return [0.0] * len(vals) if hi <= lo else [(v - lo) / (hi - lo)
                                                   for v in vals]

    combined = [a + b for a, b in zip(norm(mmds), norm(dss))]
    return min(range(len(batches)), key=lambda i: (combined[i], mmds[i], i)), \
        mmds, dss


def test_selection_matches_recoded_scorer():
    real = _random_dataset(15, 2, seed=31)
    batches = [_random_dataset(15, 2, seed=s, provenance="generated")
               for s in (32, 33, 34)]
    sigma = 0.8
    best, report = select_best_batch(real, batches, sigma, folds=3)
    want_best, want_mmds, want_dss = _naive_selection(
        real, batches, sigma, folds=3, seed=0)
    assert best == want_best
    for quality, mmd_value, ds_value in zip(report, want_mmds, want_dss):
        assert abs(quality.mmd2 - mmd_value) < 1e-12
        assert abs(quality.ds - ds_value) < 1e-9


def test_select_best_batch_report_equals_public_scores_bit_for_bit():
    real = _random_dataset(20, 2, seed=36)
    batches = [_random_dataset(n, 2, seed=s, provenance="generated")
               for s, n in ((37, 20), (38, 25), (39, 60))]
    for bandwidth in ("median", 0.7):
        _, report = select_best_batch(real, batches, bandwidth, folds=4, seed=5)
        assert [q.mmd2 for q in report] == [max(mmd2(real, b, bandwidth), 0.0)
                                            for b in batches]
        assert [q.ds for q in report] == [diversity_score(real, b, 4, seed=5)
                                          for b in batches]


def test_select_best_batch_fits_the_real_fold_models_once(monkeypatch):
    fits, fold_rows, calls = [], [], {"mmd2": 0, "diversity_score": 0}

    def counting_factory(x, y):
        fits.append(x.shape[0])
        return _constant_factory(x, y)

    def counted(name):
        inner = getattr(quality_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    inner_folds = quality_module._content_folds

    def counting_folds(ds, folds, seed):
        fold_rows.append(ds.n_rows)
        return inner_folds(ds, folds, seed)

    for name in calls:
        monkeypatch.setattr(quality_module, name, counted(name))
    monkeypatch.setattr(quality_module, "_content_folds", counting_folds)
    real = _random_dataset(12, 2, seed=40)
    batches = [_random_dataset(20, 2, seed=s, provenance="generated") for s in (41, 42, 43)]
    select_best_batch(real, batches, folds=4, factory=counting_factory)
    # 4 real-fold models, then 4 per batch; real folds hold 9 rows, batch folds 15
    assert fits == [9] * 4 + [15] * 12
    # the real folds are derived once per ranking, each batch's once
    assert fold_rows == [12] + [20] * 3
    # the public scorers still run once per batch, as the benchmark traces them
    assert calls == {"mmd2": 3, "diversity_score": 3}


def test_select_best_batch_requires_batches():
    with pytest.raises(ContractError):
        select_best_batch(_random_dataset(6, 1, seed=35), [])
