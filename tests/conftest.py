"""Shared test helpers: finite differences, kink-safe toy models, checkpoints,
network checksums, the brute-force greedy acquisition oracle, traced peak memory."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from softaug import SeededRng
from softaug.layers import SLOPE
from softaug.regress import KernelRidgeRegressor


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


def checksum(net) -> bytes:
    """A digest of a network's weight and bias bytes, layer by layer."""
    h = hashlib.blake2b(digest_size=16)
    for w, b in net.layers:
        h.update(np.ascontiguousarray(w.value).tobytes())
        h.update(np.ascontiguousarray(b.value).tobytes())
    return h.digest()


def kink_safe_seed(check, start, limit=50):
    """First integer seed >= start for which `check(seed)` holds."""
    for seed in range(start, start + limit):
        if check(seed):
            return seed
    raise AssertionError(f"no kink-safe seed in [{start}, {start + limit})")


def brute_force_greedy(pool, initial, total):
    """Literal greedy acquisition loop: python loops, refit a default kernel
    ridge model after every step."""
    points = pool.features
    m = points.shape[0]
    labeled = list(initial)
    labels = {i: float(pool.labels[i]) for i in labeled}
    sequence = []
    while len(labeled) < total:
        model = KernelRidgeRegressor().fit(
            points[np.array(labeled)], np.array([labels[i] for i in labeled]))
        best_index, best_score = None, -1.0
        for n in range(m):
            if n in labeled:
                continue
            d_x = min(float(np.sqrt(np.sum((points[n] - points[j]) ** 2)))
                      for j in labeled)
            pred = float(model.predict(points[n:n + 1])[0])
            d_y = min(abs(pred - labels[j]) for j in labeled)
            r = sum(float(np.sqrt(np.sum((points[n] - points[i]) ** 2)))
                    for i in range(m))
            score = 0.0 if r == 0.0 else d_x * d_y / r
            if score > best_score:
                best_index, best_score = n, score
        sequence.append(best_index)
        labeled.append(best_index)
        labels[best_index] = float(pool.labels[best_index])
    return sequence


def traced_peak(fn):
    """Peak bytes allocated while `fn()` runs, above what was held before.

    numpy reports its data buffers to tracemalloc, so every array counts;
    memory a library allocates by itself, such as LAPACK's workspace, does
    not.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def rng():
    return SeededRng(20260816)
