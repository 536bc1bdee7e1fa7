"""Adam: closed-form steps, fixed points, and divergence detection."""
import numpy as np
import pytest

from softaug import Adam, ContractError, DivergenceError, ShapeError, Tensor
from softaug import autodiff as ad
from softaug.optim import fit_mse


def test_first_step_closed_form():
    p = Tensor(np.array([[0.0]]), requires_grad=True)
    opt = Adam([p], learning_rate=1e-3)
    opt.step([np.array([[1.0]])])
    # m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
    expected = -1e-3 / (1.0 + 1e-8)
    assert abs(p.value[0, 0] - expected) < 1e-15
    assert abs(p.value[0, 0] + 9.99999e-4) < 1e-8


def test_zero_gradient_is_a_fixed_point():
    p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    before = p.value.copy()
    for _ in range(3):
        opt.step([np.zeros((1, 2))])
    assert np.array_equal(p.value, before)
    assert opt.step_count == 3


def test_two_identical_gradients_match_hand_recurrence():
    g = 0.7
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    p = Tensor(np.array([[2.0]]), requires_grad=True)
    opt = Adam([p], learning_rate=lr)
    opt.step([np.array([[g]])])
    opt.step([np.array([[g]])])
    # hand-rolled recurrence
    theta, m, v = 2.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    assert abs(p.value[0, 0] - theta) < 1e-14


def test_step_counter_strictly_increases():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = Adam([p])
    for expected in (1, 2, 3, 4):
        opt.step([np.full((2, 2), 0.1)])
        assert opt.step_count == expected


def test_non_finite_gradient_raises_divergence_with_step():
    p = Tensor(np.zeros((1, 1)), requires_grad=True)
    opt = Adam([p])
    opt.step([np.array([[1.0]])])
    with pytest.raises(DivergenceError, match="step 2"):
        opt.step([np.array([[np.nan]])])


def test_gradient_shape_and_count_validation():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    opt = Adam([p])
    with pytest.raises(ContractError):
        opt.step([])
    with pytest.raises(ShapeError):
        opt.step([np.zeros((3, 2))])


def test_needs_at_least_one_parameter():
    with pytest.raises(ContractError):
        Adam([])


def test_moments_update_only_on_step():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = Adam([p], learning_rate=1e-2)
    opt.step([np.array([[0.5]])])
    first = p.value.copy()
    opt.step([np.array([[-0.5]])])
    assert not np.array_equal(p.value, first)


def test_fit_mse_records_the_loss_before_each_adam_step():
    # predict = x @ w with one weight: MSE gradient 2 * mean((w x - y) x)
    x = np.array([[1.0], [2.0], [-1.0]])
    y = np.array([[0.5], [3.0], [0.0]])
    w = Tensor(np.array([[0.25]]), requires_grad=True)
    lr, w0 = 1e-2, 0.25

    def predict(xt):
        return ad.matmul(xt, w)

    assert fit_mse(predict, [w], x, y, 0, lr) == []
    assert w.value[0, 0] == w0
    history = fit_mse(predict, [w], x, y, 2, lr)
    assert len(history) == 2
    assert abs(history[0] - np.mean((w0 * x - y) ** 2)) < 1e-15
    # first Adam step from zero moments moves by lr * g / (|g| + eps)
    g = 2.0 * np.mean((w0 * x - y) * x)
    w1 = w0 - lr * g / (abs(g) + 1e-8)
    assert abs(history[1] - np.mean((w1 * x - y) ** 2)) < 1e-14
