"""Seeded randomness: determinism, derivation, and distribution sanity."""
import numpy as np
import pytest

from softaug import ContractError, SeededRng, derive_seed, gaussian_noise
from softaug.rng import ALGORITHM


def test_same_seed_bit_identical_streams():
    a, b = SeededRng(42), SeededRng(42)
    assert np.array_equal(a.normal(5, 3), b.normal(5, 3))
    assert np.array_equal(a.uniform(4, 2), b.uniform(4, 2))
    assert np.array_equal(a.integers(0, 100, 10), b.integers(0, 100, 10))
    assert np.array_equal(a.permutation(17), b.permutation(17))


def test_different_seeds_differ():
    a = SeededRng(1).normal(8, 8)
    b = SeededRng(2).normal(8, 8)
    assert not np.array_equal(a, b)


def test_algorithm_is_counter_based():
    assert ALGORITHM == "philox4x64"


def test_derive_seed_deterministic_and_label_sensitive():
    assert derive_seed(7, "gan") == derive_seed(7, "gan")
    assert derive_seed(7, "gan") != derive_seed(7, "split")
    assert derive_seed(7, "gan") != derive_seed(8, "gan")
    for label in ("gan", "gen:0", "folds:abc"):
        s = derive_seed(123, label)
        assert 0 <= s < 2 ** 64


def test_gaussian_noise_moments():
    z = gaussian_noise(10000, 1, SeededRng(3))
    assert z.shape == (10000, 1)
    assert abs(z.mean()) < 0.05
    assert abs(z.var() - 1.0) < 0.05


def test_gaussian_noise_determinism_and_difference():
    assert np.array_equal(gaussian_noise(6, 4, SeededRng(9)),
                          gaussian_noise(6, 4, SeededRng(9)))
    assert not np.array_equal(gaussian_noise(6, 4, SeededRng(9)),
                              gaussian_noise(6, 4, SeededRng(10)))


def test_gaussian_noise_rejects_bad_counts():
    assert gaussian_noise(0, 3, SeededRng(0)).shape == (0, 3)
    for n, dim in ((-1, 3), (3, 0)):
        with pytest.raises(ContractError, match="n >= 0 and dim >= 1"):
            gaussian_noise(n, dim, SeededRng(0))


def test_permutation_is_a_permutation():
    p = SeededRng(11).permutation(50)
    assert sorted(p.tolist()) == list(range(50))


def test_choice_index_follows_weights():
    rng = SeededRng(21)
    counts = np.zeros(2)
    for _ in range(10000):
        counts[rng.choice_index(np.array([0.2, 0.8]))] += 1
    assert abs(counts[1] / 10000 - 0.8) < 0.03


def test_choice_index_zero_weight_never_chosen():
    rng = SeededRng(4)
    for _ in range(500):
        assert rng.choice_index(np.array([0.0, 1.0, 0.0])) == 1
