"""Adam with bias correction, and the full-batch MSE fit built on it.

update: m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, DivergenceError, ShapeError
from .layers import SLOPE, Mlp, _leaky, sum_rows

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Holds first/second moments for a fixed parameter list; steps in place.

    Taking over the parameters moves their values into one contiguous
    vector: each tensor's `value` becomes a view into it, so one
    vectorized update steps them all. A later optimizer may take over the
    same tensors; the earlier one then refuses to step.
    """

    def __init__(self, params: Sequence[Tensor], learning_rate: float = 1e-4):
        if not params:
            raise ContractError("Adam needs at least one parameter tensor")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("Adam got the same parameter tensor twice")
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self._values = np.concatenate([p.value.ravel() for p in self.params])
        self._grads = np.empty_like(self._values)
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)
        self._views, self._grad_views = [], []
        lo = 0
        for p in self.params:
            hi = lo + p.value.size
            p.value = self._values[lo:hi].reshape(p.value.shape)
            self._views.append(p.value)
            self._grad_views.append(self._grads[lo:hi].reshape(p.value.shape))
            lo = hi

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ContractError(
                f"got {len(grads)} gradients for {len(self.params)} parameters")
        for g, p, view, buf in zip(grads, self.params, self._views, self._grad_views):
            if g.shape != p.value.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter {p.value.shape}")
            if p.value is not view:
                raise ContractError("a parameter was rebound after this optimizer took it over")
            buf[...] = g
        g = self._grads
        if not np.all(np.isfinite(g)):
            raise DivergenceError(
                f"non-finite gradient at optimizer step {self.step_count + 1}")
        t = self.step_count + 1
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        self._values -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + EPSILON)
        self.step_count = t


# a diverging fit overflows before Adam refuses its non-finite gradient
@np.errstate(over="ignore", invalid="ignore")
def fit_mse(nets: Sequence[Mlp], x: np.ndarray, y: np.ndarray, epochs: int,
            learning_rate: float) -> list[float]:
    """Full-batch Adam on the mean squared error of the chain `nets` on x against y.

    The chain feeds each net's output to the next. One update per epoch,
    over every net's parameters; returns the MSE before each update. The
    forward and backward repeat the recorded graph's operations, so the
    fit is bit-identical to differentiating it. Every row-sized array is a
    buffer allocated once per fit and refilled each epoch.
    """
    opt = Adam([p for net in nets for p in net.params()], learning_rate)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    layers = [(w, b, leaky) for net in nets for (w, b), leaky in zip(net.layers, _leaky(net))]
    outs, masks, grads_at = [], [], []       # per layer: output, leaky mask, gradient at output
    width = x.shape[1]
    for i, (w, _, leaky) in enumerate(layers):
        if width != w.shape[0]:
            raise ShapeError(f"layer {i}: input has {width} columns, weight expects {w.shape[0]}")
        width = w.shape[1]
        outs.append(np.empty((len(x), width)))
        masks.append(np.empty((len(x), width)) if leaky else None)
        grads_at.append(np.empty((len(x), width)))
    if outs[-1].shape != y.shape:
        raise ShapeError(f"fit_mse: predictions {outs[-1].shape} and targets {y.shape} differ")
    inputs = [x] + outs[:-1]
    r, squares = np.empty(y.shape), np.empty(y.shape)
    scale = 1.0 / y.size
    seed = np.ones((1, 1)) * scale          # d loss / d sum, as the graph's seed
    history = []
    for _ in range(epochs):
        for (w, b, _), h, z, mask in zip(layers, inputs, outs, masks):
            np.matmul(h, w.value, out=z)
            z += b.value
            if mask is not None:
                # exactly 1.0 above zero and SLOPE elsewhere, as np.where gives
                np.greater(z, 0.0, out=mask)
                mask *= 1.0 - SLOPE
                mask += SLOPE
                z *= mask
        np.subtract(outs[-1], y, out=r)
        np.multiply(r, r, out=squares)
        history.append(float((sum_rows(squares) * scale)[0, 0]))
        g = grads_at[-1]
        np.multiply(r, 2.0, out=g)
        g *= seed
        grads = []
        for i in reversed(range(len(layers))):
            g = grads_at[i]
            if masks[i] is not None:
                g *= masks[i]
            grads[:0] = [inputs[i].T @ g, sum_rows(g)]
            if i > 0:
                np.matmul(g, layers[i][0].value.T, out=grads_at[i - 1])
        opt.step(grads)
    return history
