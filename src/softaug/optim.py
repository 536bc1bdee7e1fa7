"""Adam with bias correction, and the full-batch MSE fit built on it.

update: m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DivergenceError, ShapeError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Holds first/second moments for a fixed parameter list; steps in place."""

    def __init__(self, params: Sequence[Tensor], learning_rate: float = 1e-4):
        if not params:
            raise ContractError("Adam needs at least one parameter tensor")
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ContractError(
                f"got {len(grads)} gradients for {len(self.params)} parameters")
        for g, p in zip(grads, self.params):
            if g.shape != p.value.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter {p.value.shape}")
            if not np.all(np.isfinite(g)):
                raise DivergenceError(
                    f"non-finite gradient at optimizer step {self.step_count + 1}")
        t = self.step_count + 1
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        for g, p, m, v in zip(grads, self.params, self._m, self._v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.value -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + EPSILON)
        self.step_count = t


def fit_mse(predict: Callable[[Tensor], Tensor], params: Sequence[Tensor],
            x: np.ndarray, y: np.ndarray, epochs: int,
            learning_rate: float) -> list[float]:
    """Full-batch Adam on the mean squared error of `predict(x)` against `y`.

    One update per epoch, over `params`; returns the MSE before each update.
    """
    opt = Adam(params, learning_rate)
    xt, yt = Tensor(x), Tensor(y)
    history = []
    for _ in range(epochs):
        loss = ad.mean_all(ad.square(ad.sub(predict(xt), yt)))
        history.append(loss.item())
        opt.step(ad.grad_values(loss, params))
    return history
