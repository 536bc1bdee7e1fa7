"""Reverse-mode autodiff on dense float64 matrices.

Every value is a 2-D array held by a `Tensor` node in an implicit DAG.
The backward rule of each primitive is written in terms of the primitives
themselves, so a recorded gradient is itself a differentiable graph, as
the reference form of the critic's gradient-norm penalty needs (gradient
of a gradient). The one deliberate shortcut: the leaky-relu backward
treats its slope mask as a constant, whose derivative is zero almost
everywhere.

Training differentiates a graph only for the generator network itself.
The rest of both GAN steps, pretraining and the downstream MLP repeat
these rules by hand in plain numpy (`layers._backward`, `optim.fit_mse`, `rgan`).
"""
from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    """One graph node: a float64 matrix plus links to what produced it."""

    __slots__ = ("value", "op", "parents", "requires_grad", "__weakref__")

    def __init__(self, value, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = ()):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        elif v.ndim == 1:
            v = v.reshape(1, -1)
        elif v.ndim != 2:
            raise ShapeError(f"tensors are 2-D matrices, got ndim={v.ndim}")
        self.value = v
        self.op = op
        self.parents = parents
        self.requires_grad = requires_grad or any(p.requires_grad for p, _ in parents)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ContractError(f"item() needs a 1x1 tensor, got shape {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


def zeros(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)))


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------- primitives

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return Tensor(a.value + b.value, op="add",
                  parents=((a, lambda g: g), (b, lambda g: g)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return Tensor(a.value - b.value, op="sub",
                  parents=((a, lambda g: g), (b, lambda g: neg(g))))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape matrices."""
    _same_shape(a, b, "mul")
    return Tensor(a.value * b.value, op="mul",
                  parents=((a, lambda g: mul(g, b)), (b, lambda g: mul(g, a))))


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.value * c, op="scale",
                  parents=((a, lambda g: scale(g, c)),))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def shift(a: Tensor, c: float) -> Tensor:
    return Tensor(a.value + c, op="shift", parents=((a, lambda g: g),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} @ {b.shape} differ")
    return Tensor(a.value @ b.value, op="matmul", parents=(
        (a, lambda g: matmul(g, transpose(b))),
        (b, lambda g: matmul(transpose(a), g)),
    ))


def transpose(a: Tensor) -> Tensor:
    return Tensor(a.value.T, op="transpose", parents=((a, lambda g: transpose(g)),))


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    """max(x, slope*x). Backward multiplies by a constant 1/slope mask."""
    mask = np.where(a.value > 0.0, 1.0, slope)
    mask_t = Tensor(mask)
    return Tensor(a.value * mask, op="leaky_relu",
                  parents=((a, lambda g: mul(g, mask_t)),))


def sigmoid(a: Tensor) -> Tensor:
    # exp overflows to inf for a << 0, where 1 / (1 + inf) is the exact 0.0
    with np.errstate(over="ignore"):
        out = Tensor(1.0 / (1.0 + np.exp(-a.value)), op="sigmoid")
    # backward g * out * (1 - out) on `out`, exact; a weak `out` makes no cycle
    ref = weakref.ref(out)
    out.parents = ((a, lambda g: mul(g, mul(ref(), shift(neg(ref()), 1.0)))),)
    out.requires_grad = a.requires_grad
    return out


def square(a: Tensor) -> Tensor:
    return Tensor(a.value * a.value, op="square",
                  parents=((a, lambda g: mul(g, scale(a, 2.0))),))


def pow_const(a: Tensor, p: float) -> Tensor:
    """a**p elementwise; meant for positive bases (sqrt of sums of squares)."""
    return Tensor(a.value ** p, op="pow_const",
                  parents=((a, lambda g: scale(mul(g, pow_const(a, p - 1.0)), p)),))


def broadcast(a: Tensor, rows: int, cols: int) -> Tensor:
    """Tile a (1,1), (1,k) or (n,1) tensor up to (rows, cols)."""
    n, k = a.shape
    if (n not in (1, rows)) or (k not in (1, cols)):
        raise ShapeError(f"cannot broadcast {a.shape} to {(rows, cols)}")
    value = np.broadcast_to(a.value, (rows, cols))
    return Tensor(value, op="broadcast",
                  parents=((a, lambda g: sum_to(g, n, k)),))


def sum_to(a: Tensor, rows: int, cols: int) -> Tensor:
    """Sum over the axes being collapsed, down to (rows, cols)."""
    n, k = a.shape
    if (rows not in (1, n)) or (cols not in (1, k)):
        raise ShapeError(f"cannot sum {a.shape} down to {(rows, cols)}")
    v = a.value
    if rows == 1 and n != 1:
        v = v.sum(axis=0, keepdims=True)
    if cols == 1 and k != 1:
        v = v.sum(axis=1, keepdims=True)
    return Tensor(v, op="sum_to",
                  parents=((a, lambda g: broadcast(g, n, k)),))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols needs at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeError(f"concat_cols: row counts differ ({p.shape[0]} vs {rows})")
    bounds, lo = [], 0
    for p in parts:
        bounds.append((lo, lo + p.shape[1]))
        lo += p.shape[1]
    parent_edges = tuple(
        (p, (lambda g, lo=lo, hi=hi: slice_cols(g, lo, hi)))
        for p, (lo, hi) in zip(parts, bounds)
    )
    return Tensor(np.concatenate([p.value for p in parts], axis=1),
                  op="concat_cols", parents=parent_edges)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    n, k = a.shape
    if not (0 <= lo < hi <= k):
        raise ShapeError(f"slice_cols: [{lo}, {hi}) out of range for {a.shape}")

    def _vjp(g):
        parts = []
        if lo > 0:
            parts.append(zeros(n, lo))
        parts.append(g)
        if hi < k:
            parts.append(zeros(n, k - hi))
        return concat_cols(parts) if len(parts) > 1 else g

    return Tensor(a.value[:, lo:hi], op="slice_cols",
                  parents=((a, _vjp),))


# ------------------------------------------------------------- derived forms

def sum_all(a: Tensor) -> Tensor:
    return sum_to(a, 1, 1)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_to(a, 1, 1), 1.0 / a.value.size)


def norm_rows(a: Tensor, eps: float = 1e-24) -> Tensor:
    """Per-row L2 norm as an (n, 1) tensor.

    The tiny eps under the square root keeps the gradient finite at an
    all-zero row; it is far below float64 resolution at any realistic norm.
    """
    return pow_const(shift(sum_to(square(a), a.shape[0], 1), eps), 0.5)


def _walk(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the nodes that need a gradient (children first)."""
    order: list[Tensor] = []
    state: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            state[id(node)] = 1
            for parent, _ in node.parents:
                if parent.requires_grad and state.get(id(parent), 0) == 0:
                    stack.append(parent)
        else:
            stack.pop()
            if st == 1:
                state[id(node)] = 2
                order.append(node)
    return order


# ------------------------------------------------------------------ backward

def grad(output: Tensor, wrt: Sequence[Tensor]) -> list[Tensor]:
    """Gradients of a scalar output with respect to each tensor in `wrt`.

    The returned tensors stay connected to the graph and can be
    differentiated again.
    """
    if output.value.size != 1:
        raise ContractError(f"grad needs a scalar output, got shape {output.shape}")
    order = _walk(output)
    grads: dict[int, Tensor] = {id(output): Tensor(np.ones((1, 1)))}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            if not parent.requires_grad:
                continue
            piece = vjp(g)
            seen = grads.get(id(parent))
            grads[id(parent)] = piece if seen is None else add(seen, piece)
    out = []
    for w in wrt:
        g = grads.get(id(w))
        out.append(g if g is not None else zeros(*w.shape))
    return out


def grad_values(output: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """First-order gradients as plain arrays."""
    return [g.value for g in grad(output, wrt)]
