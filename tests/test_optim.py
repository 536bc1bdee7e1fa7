"""Adam: closed-form steps, fixed points, divergence detection, flat views, fit_mse."""
import numpy as np
import pytest

import graph_reference
from conftest import checksum
from softaug import (Adam, ContractError, DivergenceError, Mlp, SeededRng, ShapeError,
                     Tensor, init_mlp)
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
    # a one-layer linear MLP, predict = w x + b: the MSE gradients are
    # 2 * mean(r x) for w and 2 * mean(r) for b, with r = w x + b - y
    x = np.array([[1.0], [2.0], [-1.0]])
    y = np.array([[0.5], [3.0], [0.0]])
    w0, b0, lr = 0.25, 0.1, 1e-2
    net = Mlp([(Tensor(np.array([[w0]]), requires_grad=True),
                Tensor(np.array([[b0]]), requires_grad=True))], out_activation="linear")

    assert fit_mse([net], x, y, 0, lr) == []
    assert net.layers[0][0].value[0, 0] == w0
    history = fit_mse([net], x, y, 2, lr)
    assert len(history) == 2
    r0 = w0 * x + b0 - y
    assert abs(history[0] - np.mean(r0 ** 2)) < 1e-15
    # first Adam step from zero moments moves each parameter by lr * g / (|g| + eps)
    gw, gb = 2.0 * np.mean(r0 * x), 2.0 * np.mean(r0)
    w1 = w0 - lr * gw / (abs(gw) + 1e-8)
    b1 = b0 - lr * gb / (abs(gb) + 1e-8)
    assert abs(history[1] - np.mean((w1 * x + b1 - y) ** 2)) < 1e-14


@pytest.mark.parametrize("rows", [1, 30, 530])
@pytest.mark.parametrize("chain", ["one-net", "trunk-and-head"])
def test_fit_mse_equals_the_graph_fit_bit_for_bit(rows, chain):
    rng = np.random.default_rng(rows)
    x, y = rng.uniform(size=(rows, 3)), rng.uniform(size=(rows, 1))

    def nets():
        if chain == "one-net":
            return [init_mlp([3, 16, 8, 1], SeededRng(5), out_activation="linear")]
        return [init_mlp([3, 12], SeededRng(6)),
                init_mlp([12, 8, 1], SeededRng(7), out_activation="linear")]

    fused, graph = nets(), nets()
    history = fit_mse(fused, x, y, 30, 1e-2)
    assert history == graph_reference.fit_mse(graph, x, y, 30, 1e-2)
    assert [checksum(n) for n in fused] == [checksum(n) for n in graph]


def test_fit_mse_rejects_targets_of_another_shape():
    net = init_mlp([2, 1], SeededRng(1), out_activation="linear")
    with pytest.raises(ShapeError, match="targets"):
        fit_mse([net], np.zeros((4, 2)), np.zeros(4), 1, 1e-3)


def test_fit_mse_rejects_inputs_of_another_width_and_a_sigmoid_net():
    net = init_mlp([2, 1], SeededRng(1), out_activation="linear")
    with pytest.raises(ShapeError, match="layer 0: input has 3 columns, weight expects 2"):
        fit_mse([net], np.zeros((4, 3)), np.zeros((4, 1)), 1, 1e-3)
    chain = [init_mlp([2, 5], SeededRng(1)), init_mlp([4, 1], SeededRng(2))]
    with pytest.raises(ShapeError, match="layer 1: input has 5 columns, weight expects 4"):
        fit_mse(chain, np.zeros((4, 2)), np.zeros((4, 1)), 1, 1e-3)
    sigmoid = init_mlp([2, 1], SeededRng(1), out_activation="sigmoid")
    with pytest.raises(ContractError, match="leaky-relu and linear"):
        fit_mse([sigmoid], np.zeros((4, 2)), np.zeros((4, 1)), 1, 1e-3)


# ------------------------------------------------------------ flat parameters

def test_parameter_values_are_views_the_step_updates_in_place():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([[5.0]]), requires_grad=True)
    opt = Adam([a, b], learning_rate=0.1)
    held = a.value
    assert np.array_equal(a.value, [[1.0, 2.0], [3.0, 4.0]]) and b.value[0, 0] == 5.0
    assert a.value.base is not None and a.value.base is b.value.base
    opt.step([np.ones((2, 2)), np.ones((1, 1))])
    assert a.value is held
    assert np.all(held < [[1.0, 2.0], [3.0, 4.0]]) and b.value[0, 0] < 5.0


def test_flat_step_equals_a_tensor_by_tensor_step():
    rng = np.random.default_rng(3)
    shapes = [(3, 4), (1, 4), (4, 1), (1, 1)]
    flat = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    each = [Tensor(p.value.copy(), requires_grad=True) for p in flat]
    opt, ref = Adam(flat, 1e-2), graph_reference.TensorAdam(each, 1e-2)
    for _ in range(25):
        grads = [rng.normal(size=s) for s in shapes]
        opt.step(grads)
        ref.step(grads)
    for p, q in zip(flat, each):
        assert p.value.tobytes() == q.value.tobytes()


def test_nan_gradient_raises_and_changes_nothing():
    p = Tensor(np.array([[1.0, -1.0]]), requires_grad=True)
    q = Tensor(np.array([[2.0]]), requires_grad=True)
    opt = Adam([p, q], learning_rate=0.1)
    opt.step([np.array([[0.5, 0.5]]), np.array([[1.0]])])
    values = (p.value.copy(), q.value.copy())
    moments = (opt._m.copy(), opt._v.copy())
    with pytest.raises(DivergenceError, match="step 2"):
        opt.step([np.array([[0.5, 0.5]]), np.array([[np.nan]])])
    assert opt.step_count == 1
    assert np.array_equal(p.value, values[0]) and np.array_equal(q.value, values[1])
    assert np.array_equal(opt._m, moments[0]) and np.array_equal(opt._v, moments[1])


def test_a_second_optimizer_takes_over_shared_tensors():
    # pretraining steps the trunk and head; the critic's optimizer then
    # takes over the same trunk tensors, starting from their trained values
    trunk = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    head = Tensor(np.array([[3.0]]), requires_grad=True)
    critic = Tensor(np.array([[4.0]]), requires_grad=True)
    first = Adam([trunk, head], learning_rate=0.1)
    first.step([np.ones((1, 2)), np.ones((1, 1))])
    trained = trunk.value.copy()
    second = Adam([trunk, critic], learning_rate=0.1)
    assert np.array_equal(trunk.value, trained)
    second.step([np.ones((1, 2)), np.ones((1, 1))])
    assert np.all(trunk.value < trained) and critic.value[0, 0] < 4.0
    with pytest.raises(ContractError, match="rebound"):
        first.step([np.ones((1, 2)), np.ones((1, 1))])


def test_the_same_tensor_twice_is_refused():
    p = Tensor(np.zeros((1, 1)), requires_grad=True)
    with pytest.raises(ContractError, match="twice"):
        Adam([p, p])
