"""Dense multilayer perceptrons, recorded on the autodiff graph or in plain numpy.

A network is a list of (weight, bias) tensor pairs plus an activation
policy: leaky-relu after every layer by default, with an optional linear
or sigmoid final layer for score heads and bounded generators. Training
records only the generator; the others tape `forward_values` for `backward`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ShapeError
from .rng import SeededRng

OUT_ACTIVATIONS = ("leaky-relu", "linear", "sigmoid")
SLOPE = 0.01                            # leaky-relu slope below zero


def sum_rows(a: np.ndarray) -> np.ndarray:
    """Column sums as a (1, k) row, formed as the graph's `sum_to` forms them:
    a single row is passed through, not summed."""
    return a.sum(axis=0, keepdims=True) if a.shape[0] != 1 else a


@dataclass
class Mlp:
    """Weights plus activation policy; layer i maps dims[i] -> dims[i+1]."""

    layers: list[tuple[Tensor, Tensor]]
    out_activation: str = "leaky-relu"

    def __post_init__(self):
        if self.out_activation not in OUT_ACTIVATIONS:
            raise ContractError(f"unknown out_activation {self.out_activation!r}")

    def params(self) -> list[Tensor]:
        out = []
        for w, b in self.layers:
            out.extend((w, b))
        return out

    def forward(self, x: Tensor) -> Tensor:
        """Recorded forward pass; x is (n, dims[0])."""
        h = x
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            if h.shape[1] != w.shape[0]:
                raise ShapeError(
                    f"layer {i}: input has {h.shape[1]} columns, weight expects {w.shape[0]}")
            z = ad.add(ad.matmul(h, w), ad.broadcast(b, h.shape[0], w.shape[1]))
            if i < last or self.out_activation == "leaky-relu":
                h = ad.leaky_relu(z, SLOPE)
            elif self.out_activation == "sigmoid":
                h = ad.sigmoid(z)
            else:
                h = z
        return h

    def forward_values(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """Plain-numpy forward, bit-identical to the recorded pass.

        With a `tape` list, appends each layer's (input, leaky mask) for
        `backward`; the mask is None for a linear layer.
        """
        h = np.asarray(x, dtype=np.float64)
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            if h.shape[1] != w.shape[0]:
                raise ShapeError(
                    f"layer {i}: input has {h.shape[1]} columns, weight expects {w.shape[0]}")
            z = h @ w.value + b.value
            if i < last or self.out_activation == "leaky-relu":
                mask = np.where(z > 0.0, 1.0, SLOPE)
                if tape is not None:
                    tape.append((h, mask))
                h = z * mask
            elif self.out_activation == "sigmoid":
                if tape is not None:
                    raise ContractError("backward covers leaky-relu and linear layers only")
                # exp overflows to inf for z << 0, where 1 / (1 + inf) is the exact 0.0
                with np.errstate(over="ignore"):
                    h = 1.0 / (1.0 + np.exp(-z))
            else:
                if tape is not None:
                    tape.append((h, None))
                h = z
        return h

    def backward(self, tape: list, g: np.ndarray,
                 need_input: bool = False) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Gradients of the `params()` order from `g`, the gradient at the output.

        Repeats the recorded pass's backward operation by operation, so the
        results are bit-identical to `autodiff.grad`. Also returns the
        gradient at the input when `need_input`, else None.
        """
        grads = [None] * (2 * len(self.layers))
        for i in reversed(range(len(self.layers))):
            h, mask = tape[i]
            if mask is not None:
                g = g * mask
            grads[2 * i] = h.T @ g
            grads[2 * i + 1] = sum_rows(g)
            if i > 0 or need_input:
                g = g @ self.layers[i][0].value.T
        return grads, g if need_input else None

    def copy(self) -> "Mlp":
        layers = [(Tensor(w.value.copy(), requires_grad=True),
                   Tensor(b.value.copy(), requires_grad=True))
                  for w, b in self.layers]
        return Mlp(layers, out_activation=self.out_activation)


def init_mlp(dims: Sequence[int], rng: SeededRng,
             out_activation: str = "leaky-relu") -> Mlp:
    """Xavier-uniform weights, zero biases, drawn from the given stream."""
    if len(dims) < 2:
        raise ContractError("an MLP needs at least one layer")
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
        w = rng.uniform(fan_in, fan_out, -limit, limit)
        layers.append((Tensor(w, requires_grad=True),
                       Tensor(np.zeros((1, fan_out)), requires_grad=True)))
    return Mlp(layers, out_activation=out_activation)
