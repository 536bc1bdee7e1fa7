"""Deterministic randomness.

Everything stochastic in the toolkit draws from a Philox counter-based
bit generator keyed directly (no entropy pool, no OS state), so a 64-bit
seed pins the entire stream bit-for-bit across runs and platforms.
Sub-seeds for independent phases are derived from a master seed with a
keyed hash, never by consuming the master stream.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ContractError

ALGORITHM = "philox4x64"

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, label: str) -> int:
    """Map (master seed, phase label) to a stable 64-bit sub-seed."""
    digest = hashlib.blake2b(f"{int(master)}:{label}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


class SeededRng:
    """Thin wrapper over numpy's Philox generator with a fixed algorithm id."""

    algorithm = ALGORITHM

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def normal(self, rows: int, cols: int) -> np.ndarray:
        return self._gen.standard_normal((int(rows), int(cols)))

    def uniform(self, rows: int, cols: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=(int(rows), int(cols)))

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return self._gen.integers(low, high, size=int(size))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(int(n))

    def choice_index(self, weights: np.ndarray) -> int:
        """Draw one index with probability proportional to `weights`."""
        total = float(weights.sum())
        if not total > 0.0:
            raise ContractError("weights must have positive mass")
        u = self._gen.uniform(0.0, total)
        return int(np.searchsorted(np.cumsum(weights), u, side="right").clip(0, len(weights) - 1))


def gaussian_noise(n: int, dim: int, rng: SeededRng) -> np.ndarray:
    """Standard-normal (n, dim) noise block from the given stream; n may be 0."""
    if n < 0 or dim < 1:
        raise ContractError(f"noise block needs n >= 0 and dim >= 1, got ({n}, {dim})")
    return rng.normal(n, dim)
