"""Dense multilayer perceptrons, recorded on the autodiff graph or in plain numpy.

A network is a list of (weight, bias) tensor pairs plus an activation
policy: leaky-relu after every layer by default, with an optional linear
or sigmoid final layer for score heads and bounded generators. Training
records only the generator; the others tape `forward_values` and are
differentiated by hand with `_backward`. The plain passes take one batch,
(n, width), or a stack of batches, (batches, n, width): a matmul then forms
each batch's product on its own, so it rounds as that batch's own pass.
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
    """Column sums of each batch as a (1, k) row, formed as the graph's `sum_to`
    forms them: a single row is passed through, not summed."""
    return np.add.reduce(a, axis=-2, keepdims=True) if a.shape[-2] != 1 else a


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
        """Plain-numpy forward of a batch or a stack of batches, bit-identical
        to each batch's recorded pass.

        With a `tape` list, appends each layer's (input, leaky mask) for
        `_backward`; the mask is None for a linear layer.
        """
        h = np.asarray(x, dtype=np.float64)
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            if h.shape[-1] != w.shape[0]:
                raise ShapeError(
                    f"layer {i}: input has {h.shape[-1]} columns, weight expects {w.shape[0]}")
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


def _backward(net: Mlp, tape: list, g: np.ndarray,
              need_input: bool = True) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Input gradients through a net taped by `forward_values`, from g, the
    gradient at its output.

    Repeats the recorded pass's `g * mask` and `g @ W.T` in order. For a
    stack, g may hold fewer batches than the tape, from the first on.
    Returns the gradient at each layer's output after its mask, which
    `_weight_grads` turns into weight gradients, and the gradient at the
    input when `need_input`, else None.
    """
    at_outputs = [None] * len(net.layers)
    for i in reversed(range(len(net.layers))):
        mask = tape[i][1]
        if mask is not None:
            g = g * mask[:len(g)]
        at_outputs[i] = g
        if i > 0 or need_input:
            g = g @ net.layers[i][0].value.T
    return at_outputs, g if need_input else None


def _weight_grads(tape: list, at_outputs: list) -> list[np.ndarray]:
    """A taped net's weight and bias gradients, in `params()` order, from
    `_backward`'s gradients; for a stack, one per batch of `at_outputs`."""
    grads = []
    for (h, _), g in zip(tape, at_outputs):
        grads += [h[:len(g)].swapaxes(-1, -2) @ g, sum_rows(g)]
    return grads


def _leaky(net: Mlp) -> list[bool]:
    """Per layer, whether a leaky-relu follows it; `_backward` has no sigmoid rule."""
    if net.out_activation == "sigmoid":
        raise ContractError("backward covers leaky-relu and linear layers only")
    last = len(net.layers) - 1
    return [i < last or net.out_activation == "leaky-relu" for i in range(len(net.layers))]
