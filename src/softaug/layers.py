"""Dense multilayer perceptrons over the autodiff graph.

A network is a list of (weight, bias) tensor pairs plus an activation
policy: leaky-relu after every layer by default, with an optional linear
or sigmoid final layer for score heads and bounded generators.
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

    def forward_values(self, x: np.ndarray) -> np.ndarray:
        """Plain-numpy forward, bit-identical to the recorded pass."""
        h = np.asarray(x, dtype=np.float64)
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            if h.shape[1] != w.shape[0]:
                raise ShapeError(
                    f"layer {i}: input has {h.shape[1]} columns, weight expects {w.shape[0]}")
            z = h @ w.value + np.broadcast_to(b.value, (h.shape[0], w.shape[1]))
            if i < last or self.out_activation == "leaky-relu":
                h = z * np.where(z > 0.0, 1.0, SLOPE)
            elif self.out_activation == "sigmoid":
                h = 1.0 / (1.0 + np.exp(-z))
            else:
                h = z
        return h

    def copy(self) -> "Mlp":
        layers = [(Tensor(w.value.copy(), requires_grad=True),
                   Tensor(b.value.copy(), requires_grad=True))
                  for w, b in self.layers]
        return Mlp(layers, out_activation=self.out_activation)

    def checksum(self) -> bytes:
        import hashlib
        h = hashlib.blake2b(digest_size=16)
        for w, b in self.layers:
            h.update(np.ascontiguousarray(w.value).tobytes())
            h.update(np.ascontiguousarray(b.value).tobytes())
        return h.digest()


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
