"""Shared test helpers: finite differences, kink-safe toy models, checkpoints."""
import hashlib

import numpy as np
import pytest

from softaug import SeededRng
from softaug.layers import SLOPE


def central_difference(loss_fn, params, step=1e-5):
    """Central finite-difference gradient of loss_fn() w.r.t. each tensor.

    loss_fn takes no arguments and must re-evaluate the loss from the
    tensors' current values; params are mutated in place and restored.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat = p.value.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = loss_fn()
            flat[i] = keep - step
            lo = loss_fn()
            flat[i] = keep
            gf[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    """Worst |a - n| / max(|a|, |n|, floor) across all parameter blocks."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def leaky_margin(net, x, margin=1e-4):
    """True when every leaky-relu pre-activation stays clear of its kink.

    A finite-difference step of 1e-5 cannot flip any activation then, so
    the loss is locally smooth and central differences are trustworthy.
    """
    h = np.asarray(x, dtype=float)
    n_layers = len(net.layers)
    for li, (w, b) in enumerate(net.layers):
        pre = h @ w.value + b.value
        is_last = li == n_layers - 1
        act = net.out_activation if is_last else "leaky-relu"
        if act == "leaky-relu" and np.min(np.abs(pre)) < margin:
            return False
        if act == "leaky-relu":
            h = np.where(pre > 0.0, pre, SLOPE * pre)
        elif act == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-pre))
        else:
            h = pre
    return True


def resign_checkpoint(data: bytes) -> bytes:
    """`data` with its trailing 32-byte blake2b digest recomputed.

    A test that edits a checkpoint's header on purpose re-signs it, so the
    load reaches the header check under test instead of the digest check.
    """
    body = data[:-32]
    return body + hashlib.blake2b(body, digest_size=32).digest()


def kink_safe_seed(check, start, limit=50):
    """First integer seed >= start for which `check(seed)` holds."""
    for seed in range(start, start + limit):
        if check(seed):
            return seed
    raise AssertionError(f"no kink-safe seed in [{start}, {start + limit})")


@pytest.fixture
def rng():
    return SeededRng(20260816)
