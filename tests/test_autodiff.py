"""The differentiation engine: values, first-order and second-order grads."""
import gc
import weakref

import numpy as np
import pytest

from softaug import ContractError, SeededRng, ShapeError, Tensor
from softaug import autodiff as ad

from conftest import central_difference, max_relative_error


# ------------------------------------------------------------ tensor basics

def test_tensor_shapes_normalize():
    assert Tensor(3.0).shape == (1, 1)
    assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    assert Tensor(np.zeros((2, 4))).shape == (2, 4)
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2)))


def test_item_requires_scalar():
    with pytest.raises(ContractError):
        Tensor(np.zeros((2, 1))).item()
    assert Tensor(5.0).item() == 5.0


def test_shape_errors_on_mismatched_primitives():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.mul(a, b)
    with pytest.raises(ShapeError):
        ad.matmul(a, a)
    with pytest.raises(ShapeError):
        ad.broadcast(a, 5, 5)
    with pytest.raises(ShapeError):
        ad.slice_cols(a, 2, 5)


# ----------------------------------------------------------- simple closed forms

def test_linear_map_gradient_is_outer_product_mean():
    # loss = mean(W @ x): dL/dW = (1/(rows of W)) * ones @ x^T
    w = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    loss = ad.mean_all(ad.matmul(w, x))
    (g,) = ad.grad(loss, [w])
    expected = np.ones((2, 1)) @ x.value.T / 2.0
    assert np.allclose(g.value, expected, atol=1e-15)


def test_sum_of_squares_gradient_is_two_theta():
    p = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    loss = ad.sum_all(ad.square(p))
    (g,) = ad.grad(loss, [p])
    assert np.array_equal(g.value, 2.0 * p.value)


def test_grad_of_unused_tensor_is_zero():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = ad.sum_all(ad.square(a))
    ga, gb = ad.grad(loss, [a, b])
    assert np.array_equal(ga.value, 2.0 * a.value)
    assert np.array_equal(gb.value, np.zeros((2, 2)))


def test_grad_requires_scalar_output():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        ad.grad(ad.square(a), [a])


def test_broadcast_and_sum_to_are_adjoint():
    v = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
    wide = ad.broadcast(v, 4, 3)
    loss = ad.sum_all(ad.mul(wide, Tensor(np.arange(12, dtype=float).reshape(4, 3))))
    (g,) = ad.grad(loss, [v])
    assert np.array_equal(g.value, np.arange(12, dtype=float).reshape(4, 3).sum(axis=0, keepdims=True))


def test_concat_slice_roundtrip_gradients():
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.ones((3, 1)), requires_grad=True)
    joined = ad.concat_cols([a, b])
    left = ad.slice_cols(joined, 0, 2)
    loss = ad.sum_all(ad.square(left))
    ga, gb = ad.grad(loss, [a, b])
    assert np.array_equal(ga.value, 2.0 * np.ones((3, 2)))
    assert np.array_equal(gb.value, np.zeros((3, 1)))


def test_sigmoid_gradient_matches_closed_form():
    x = Tensor(np.array([[0.3, -1.2, 2.0]]), requires_grad=True)
    out = ad.sigmoid(x)
    loss = ad.sum_all(out)
    (g,) = ad.grad(loss, [x])
    s = 1.0 / (1.0 + np.exp(-x.value))
    assert np.allclose(g.value, s * (1.0 - s), atol=1e-15)


def test_a_dropped_sigmoid_graph_is_freed_without_the_cycle_collector():
    # the backward refers to the sigmoid's own output; a strong reference
    # would make a cycle that keeps the whole graph alive until a collection
    x = Tensor(np.array([[0.3, -1.2]]), requires_grad=True)
    gc.disable()
    try:
        loss = ad.sum_all(ad.sigmoid(ad.scale(x, 2.0)))
        (g,) = ad.grad_values(loss, [x])
        node = weakref.ref(loss.parents[0][0])
        del loss
        assert node() is None
    finally:
        gc.enable()
    s = 1.0 / (1.0 + np.exp(-2.0 * x.value))
    assert np.allclose(g, 2.0 * s * (1.0 - s), atol=1e-15)


def test_leaky_relu_values_and_gradient():
    x = Tensor(np.array([[2.0, -3.0]]), requires_grad=True)
    out = ad.leaky_relu(x, 0.01)
    assert np.array_equal(out.value, np.array([[2.0, -0.03]]))
    (g,) = ad.grad(ad.sum_all(out), [x])
    assert np.array_equal(g.value, np.array([[1.0, 0.01]]))


def test_norm_rows_value_and_zero_row_safety():
    x = Tensor(np.array([[3.0, 4.0], [0.0, 0.0]]), requires_grad=True)
    n = ad.norm_rows(x)
    assert abs(n.value[0, 0] - 5.0) < 1e-12
    (g,) = ad.grad(ad.sum_all(n), [x])
    assert np.all(np.isfinite(g.value))
    assert np.allclose(g.value[0], [0.6, 0.8], atol=1e-12)


# -------------------------------------------------------------- fd oracles

def _random_net_loss(seed):
    """A 2-8-1 leaky-relu net; returns (loss_fn, params, x)."""
    rng = SeededRng(seed)
    w1 = Tensor(0.5 * rng.normal(2, 8), requires_grad=True)
    b1 = Tensor(0.1 * rng.normal(1, 8), requires_grad=True)
    w2 = Tensor(0.5 * rng.normal(8, 1), requires_grad=True)
    b2 = Tensor(0.1 * rng.normal(1, 1), requires_grad=True)
    x = rng.normal(6, 2)

    def loss_node():
        h = ad.leaky_relu(ad.add(ad.matmul(Tensor(x), w1), ad.broadcast(b1, 6, 8)), 0.01)
        out = ad.add(ad.matmul(h, w2), ad.broadcast(b2, 6, 1))
        return ad.mean_all(ad.square(out))

    return loss_node, [w1, b1, w2, b2], x


def test_recorded_loss_matches_central_differences():
    loss_node, params, _ = _random_net_loss(101)
    analytic = [g.value.copy() for g in ad.grad(loss_node(), params)]
    numeric = central_difference(lambda: loss_node().item(), params)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_double_backward_penalty_matches_central_differences():
    # 3-16-1 leaky-relu critic; parameter gradient of sum((||dD/dx|| - 1)^2)
    rng = SeededRng(77)
    w1 = Tensor(0.6 * rng.normal(3, 16), requires_grad=True)
    b1 = Tensor(0.05 * rng.normal(1, 16), requires_grad=True)
    w2 = Tensor(0.6 * rng.normal(16, 1), requires_grad=True)
    x_val = rng.normal(5, 3)
    params = [w1, b1, w2]

    def penalty_node():
        x = Tensor(x_val, requires_grad=True)
        h = ad.leaky_relu(ad.add(ad.matmul(x, w1), ad.broadcast(b1, 5, 16)), 0.01)
        score = ad.matmul(h, w2)
        (gx,) = ad.grad(ad.sum_all(score), [x])
        return ad.sum_all(ad.square(ad.shift(ad.norm_rows(gx), -1.0)))

    analytic = [g.value.copy() for g in ad.grad(penalty_node(), params)]
    numeric = central_difference(lambda: penalty_node().item(), params)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_linear_critic_input_gradient_closed_form():
    # D([x, y]) = 3x + 4y: input gradient (3, 4) per row, norm 5
    w = Tensor(np.array([[3.0], [4.0]]))
    x = Tensor(np.array([[0.2, 0.7], [0.9, 0.1]]), requires_grad=True)
    (g,) = ad.grad(ad.sum_all(ad.matmul(x, w)), [x])
    assert np.allclose(g.value, [[3.0, 4.0], [3.0, 4.0]], atol=1e-12)
    norms = ad.norm_rows(g)
    assert np.allclose(norms.value, 5.0, atol=1e-9)


def test_constant_critic_penalty_is_one_per_row():
    x = Tensor(np.ones((4, 2)), requires_grad=True)
    score = ad.add(ad.mul(x, Tensor(np.zeros((4, 2)))), Tensor(np.full((4, 2), 7.0)))
    (g,) = ad.grad(ad.sum_all(score), [x])
    pen = ad.square(ad.shift(ad.norm_rows(g), -1.0))
    assert np.allclose(pen.value, 1.0, atol=1e-9)


def test_requires_grad_propagates_through_ops():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 2)))
    assert ad.add(a, b).requires_grad
    assert not ad.add(b, b).requires_grad
    assert ad.matmul(a, b).requires_grad
    assert ad.sigmoid(a).requires_grad
