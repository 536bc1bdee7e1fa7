"""MLP container: forward passes, recording, init and copies."""
import numpy as np
import pytest

from conftest import checksum
from softaug import ContractError, SeededRng, ShapeError, Tensor, init_mlp
from softaug import autodiff as ad
from softaug.layers import SLOPE, Mlp, _backward, _weight_grads, sum_rows


def _manual_forward(net, x):
    """Straight-line re-evaluation with plain numpy loops."""
    h = np.asarray(x, dtype=float)
    for li, (w, b) in enumerate(net.layers):
        pre = h @ w.value + b.value
        act = net.out_activation if li == len(net.layers) - 1 else "leaky-relu"
        if act == "leaky-relu":
            h = np.where(pre > 0.0, pre, SLOPE * pre)
        elif act == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-pre))
        else:
            h = pre
    return h


def test_identity_single_layer_leaky_relu():
    net = Mlp([(Tensor(np.eye(2)), Tensor(np.zeros((1, 2))))])
    out = net.forward_values(np.array([[1.0, -1.0]]))
    assert np.array_equal(out, np.array([[1.0, -0.01]]))


def test_zero_network_outputs_zero():
    layers = [(Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 4)))),
              (Tensor(np.zeros((4, 1))), Tensor(np.zeros((1, 1))))]
    net = Mlp(layers)
    out = net.forward_values(np.array([[5.0, -7.0], [0.1, 0.2]]))
    assert np.array_equal(out, np.zeros((2, 1)))


def test_forward_matches_naive_reevaluation():
    net = init_mlp([2, 8, 1], SeededRng(31))
    x = SeededRng(32).normal(5, 2)
    assert np.array_equal(net.forward_values(x), _manual_forward(net, x))


def test_forward_values_equals_graph_forward():
    net = init_mlp([3, 6, 2], SeededRng(8), out_activation="sigmoid")
    x = SeededRng(9).normal(4, 3)
    assert np.array_equal(net.forward_values(x), net.forward(Tensor(x)).value)


def test_grad_wrt_params_shapes_match():
    net = init_mlp([2, 4, 1], SeededRng(5))
    out = net.forward(Tensor(SeededRng(6).normal(3, 2)))
    grads = ad.grad_values(ad.mean_all(ad.square(out)), net.params())
    assert len(grads) == len(net.params())
    for g, p in zip(grads, net.params()):
        assert g.shape == p.value.shape
        assert np.all(np.isfinite(g))


@pytest.mark.parametrize("rows", [1, 5])
def test_backward_equals_the_graph_gradients(rows):
    # one batch, and a stack of three: each batch's output, weight and input
    # gradients equal those of its own recorded pass bit for bit
    net = init_mlp([3, 6, 4, 1], SeededRng(12), out_activation="linear")
    x = SeededRng(13).normal(3 * rows, 3)
    for stack, batches in ((x[:rows], [slice(None)]), (x.reshape(3, rows, 3), [0, 1, 2])):
        tape = []
        y = net.forward_values(stack, tape)
        assert len(tape) == 3
        at_outputs, g_in = _backward(net, tape, y * 2.0)
        grads = _weight_grads(tape, at_outputs)
        for j in batches:
            xt = Tensor(stack[j], requires_grad=True)
            out = net.forward(xt)
            want = ad.grad(ad.sum_all(ad.square(out)), net.params() + [xt])
            assert np.array_equal(y[j], out.value)
            for got, ref in zip([g[j] for g in grads] + [g_in[j]], want):
                assert np.array_equal(got, ref.value)
        assert _backward(net, tape, y * 2.0, need_input=False)[1] is None
    # a gradient for the first batches of a stack only
    tape = []
    y = net.forward_values(x.reshape(3, rows, 3), tape)
    at_outputs, g_in = _backward(net, tape, y[:2] * 2.0)
    assert np.array_equal(g_in, _backward(net, tape, y * 2.0)[1][:2])


def test_sum_rows_passes_a_single_row_through():
    # as the graph's sum_to: summing one row would turn -0.0 into +0.0
    row = np.array([[-0.0, 1.5]])
    assert np.array_equal(np.signbit(sum_rows(row)), [[True, False]])
    assert np.array_equal(np.signbit(sum_rows(np.stack([row, -row]))), [[[True, False]],
                                                                         [[False, True]]])
    assert np.array_equal(sum_rows(np.array([[1.0, 2.0], [3.0, -4.0]])), [[4.0, -2.0]])


def test_tape_refuses_a_sigmoid_output():
    net = init_mlp([2, 3], SeededRng(1), out_activation="sigmoid")
    assert net.forward_values(np.ones((2, 2))).shape == (2, 3)
    with pytest.raises(ContractError, match="leaky-relu and linear"):
        net.forward_values(np.ones((2, 2)), tape=[])


def test_grad_wrt_input_requires_grad_flag():
    # only an input made with requires_grad=True gets a gradient through the
    # network; any other input reads zero
    net = init_mlp([2, 4, 1], SeededRng(5))
    x_plain = Tensor(np.ones((3, 2)))
    (g_plain,) = ad.grad(ad.sum_all(net.forward(x_plain)), [x_plain])
    assert np.array_equal(g_plain.value, np.zeros((3, 2)))
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    (g,) = ad.grad(ad.sum_all(net.forward(x)), [x])
    assert g.shape == (3, 2) and g.requires_grad
    assert np.any(g.value != 0.0)


def test_dimension_mismatch_names_the_layer():
    net = init_mlp([3, 4, 1], SeededRng(1))
    with pytest.raises(ShapeError, match="layer 0"):
        net.forward_values(np.zeros((2, 5)))


def test_init_mlp_xavier_bounds_and_zero_biases():
    dims = [7, 16, 4]
    net = init_mlp(dims, SeededRng(44))
    for (w, b), fan_in, fan_out in zip(net.layers, dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w.value) <= bound)
        assert np.array_equal(b.value, np.zeros((1, fan_out)))
        assert w.requires_grad and b.requires_grad
    assert [w.shape for w, _ in net.layers] == [(7, 16), (16, 4)]


def test_init_mlp_rejects_bad_arguments():
    with pytest.raises(ContractError):
        init_mlp([5], SeededRng(0))
    with pytest.raises(ContractError):
        Mlp([(Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2))))],
            out_activation="tanh")


def test_copy_is_equal_but_independent():
    net = init_mlp([2, 3, 1], SeededRng(71))
    dup = net.copy()
    assert checksum(net) == checksum(dup)
    dup.layers[0][0].value[0, 0] += 1.0
    assert checksum(net) != checksum(dup)
    assert net.layers[0][0] is not dup.layers[0][0]


def test_checksum_tracks_values():
    net = init_mlp([2, 2], SeededRng(3))
    before = checksum(net)
    assert before == checksum(net)
    net.layers[0][1].value[0, 0] = 0.5
    assert checksum(net) != before
