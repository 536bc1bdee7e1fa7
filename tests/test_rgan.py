"""Adversarial trainer: losses, modes, training loop, checkpoints."""
import re
from dataclasses import replace

import numpy as np
import pytest

import graph_reference
from conftest import central_difference, checksum, max_relative_error, resign_checkpoint

from softaug import (GanConfig, RganModel, SeededRng, Tensor, generate,
                     load_checkpoint, save_checkpoint, train)
from softaug import autodiff as ad
from softaug.data import TabularDataset
from softaug.errors import ConfigError, ContractError, DivergenceError, ShapeError
from softaug.layers import SLOPE, sum_rows
from softaug.optim import Adam
from softaug.rgan import critic_regressor_loss, generator_loss, pretrain_regressor
from softaug.rng import gaussian_noise


def _tiny(**overrides):
    base = dict(noise_dim=4, n_critic=2, batch_size=4, iterations=3,
                pretrain_epochs=2, learning_rate=1e-3, trunk_width=8,
                gen_hidden=(8,), critic_hidden=8, regressor_hidden=4)
    base.update(overrides)
    return GanConfig(**base)


def _train_ds(n=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return TabularDataset(rng.uniform(size=(n, d)), rng.uniform(size=n),
                          tuple(f"x{i+1}" for i in range(d)))


def _joint(x, y):
    return np.hstack([x, np.reshape(y, (-1, 1))])


def _batch(n, d, seed):
    """Joint real rows, joint fake rows and an (n, 1) mu."""
    rng = np.random.default_rng(seed)
    real = _joint(rng.uniform(size=(n, d)), rng.uniform(size=n))
    fake = _joint(rng.uniform(size=(n, d)), rng.uniform(size=n))
    return real, fake, rng.uniform(size=(n, 1))


def _critic_scores(model, x, y):
    h = model.critic_trunk.forward_values(x)
    return model.critic_head.forward_values(np.hstack([h, y.reshape(-1, 1)]))


def _regressor_predictions(model, x):
    return model.regressor_head.forward_values(model.regressor_trunk.forward_values(x)).ravel()


def _zero_net(net):
    for w, b in net.layers:
        w.value[...] = 0.0
        b.value[...] = 0.0


# ------------------------------------------------------------- configuration

def test_config_validation():
    nan, inf = float("nan"), float("inf")
    for bad in (dict(noise_dim=0), dict(n_critic=0), dict(batch_size=0),
                dict(iterations=-1), dict(pretrain_epochs=-1),
                dict(learning_rate=0.0), dict(gp_weight=-0.1),
                dict(gen_reg_weight=-1.0), dict(critic_reg_weight=-0.5),
                dict(trunk_width=0), dict(critic_hidden=-1), dict(regressor_hidden=0),
                dict(gen_hidden=(8, 0)), dict(learning_rate=nan),
                dict(learning_rate=inf), dict(pretrain_lr=0.0), dict(pretrain_lr=nan),
                dict(gp_weight=nan), dict(gen_reg_weight=inf),
                dict(critic_reg_weight=nan)):
        (name,) = bad
        with pytest.raises(ConfigError, match=name):
            _tiny(**bad)


def test_wgan_gp_mode_flips_exactly_the_three_mode_flags():
    cfg = _tiny(gp_weight=0.7, gen_reg_weight=2.0, critic_reg_weight=0.5)
    wgan = cfg.wgan_gp_mode()
    assert not wgan.share_trunk
    assert wgan.gen_reg_weight == 0.0 and wgan.critic_reg_weight == 0.0
    assert replace(wgan, share_trunk=True, gen_reg_weight=2.0,
                   critic_reg_weight=0.5) == cfg


def test_model_initialization_is_mode_fair():
    # the unshared trunk is a copy of the same tensors, so both modes draw
    # identical parameters from one seed and comparisons across modes are
    # apples to apples
    shared = RganModel(2, _tiny(), SeededRng(7))
    unshared = RganModel(2, _tiny(share_trunk=False), SeededRng(7))
    for name in ("generator", "critic_trunk", "critic_head", "regressor_head"):
        assert checksum(getattr(shared, name)) == checksum(getattr(unshared, name))
    assert shared.regressor_trunk is shared.critic_trunk
    assert unshared.regressor_trunk is not unshared.critic_trunk
    assert checksum(unshared.regressor_trunk) == checksum(unshared.critic_trunk)


def test_model_rejects_zero_features():
    with pytest.raises(ContractError):
        RganModel(0, _tiny(), SeededRng(0))


# ------------------------------------------------------------------- losses

def test_regression_loss_matches_value_oracle():
    model = RganModel(2, _tiny(), SeededRng(3))
    real, fake, _ = _batch(6, 2, seed=1)
    got = graph_reference.regression_loss(model, real, Tensor(fake[:, :2]),
                                          Tensor(fake[:, 2:])).item()
    fake_res = _regressor_predictions(model, fake[:, :2]) - fake[:, 2]
    real_res = _regressor_predictions(model, real[:, :2]) - real[:, 2]
    want = (np.sum(fake_res ** 2) + np.sum(real_res ** 2)) / 6
    assert abs(got - want) < 1e-12


def test_regression_loss_requires_equal_batches():
    model = RganModel(2, _tiny(), SeededRng(3))
    real, fake, _ = _batch(6, 2, seed=1)
    with pytest.raises(ContractError):
        graph_reference.regression_loss(model, real[:4], Tensor(fake[:, :2]),
                                        Tensor(fake[:, 2:]))


def test_wasserstein_part_is_zero_for_identical_batches():
    model = RganModel(2, _tiny(), SeededRng(5))
    real, _, mu = _batch(5, 2, seed=2)
    _, parts = critic_regressor_loss(model, real, real, mu, _tiny())
    assert parts["wasserstein"] == 0.0


def test_linear_critic_penalty_hand_case():
    # critic rigged to score(x, y) = 3x + 4y on positive inputs: the joint
    # gradient is (3, 4) with norm 5 on every row, so the mean penalty is
    # (5 - 1)^2 = 16 and the loss is 0 + (beta/n) * 16n = 8 with beta 0.5
    cfg = _tiny(trunk_width=4, critic_hidden=4, gp_weight=0.5,
                critic_reg_weight=0.0)
    model = RganModel(1, cfg, SeededRng(0))
    _zero_net(model.critic_trunk)
    _zero_net(model.critic_head)
    model.critic_trunk.layers[0][0].value[0, 0] = 1.0
    w1 = model.critic_head.layers[0][0]
    w1.value[0, 0] = 3.0          # trunk unit 0 -> hidden unit 0
    w1.value[4, 1] = 4.0          # y column -> hidden unit 1
    w2 = model.critic_head.layers[1][0]
    w2.value[0, 0] = 1.0
    w2.value[1, 0] = 1.0

    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 0.9, size=(4, 1))
    y = rng.uniform(0.1, 0.9, size=4)
    mu = rng.uniform(size=(4, 1))
    _, parts = critic_regressor_loss(model, _joint(x, y), _joint(x, y), mu, cfg)
    assert parts["wasserstein"] == 0.0
    assert parts["penalty"] == 16.0
    assert parts["loss"] == 8.0
    assert np.isnan(parts["regression"])


def test_zero_weights_reduce_critic_loss_to_wasserstein():
    cfg = _tiny(gp_weight=0.0, critic_reg_weight=0.0)
    model = RganModel(2, cfg, SeededRng(6))
    real, fake, mu = _batch(5, 2, seed=3)
    _, parts = critic_regressor_loss(model, real, fake, mu, cfg)
    assert parts["penalty"] == 0.0
    assert np.isnan(parts["regression"])
    assert parts["loss"] == -parts["wasserstein"]


def test_critic_loss_batch_contracts():
    cfg = _tiny()
    model = RganModel(2, cfg, SeededRng(6))
    real, fake, mu = _batch(5, 2, seed=3)
    with pytest.raises(ContractError):
        critic_regressor_loss(model, real[:3], fake, mu, cfg)
    with pytest.raises(ContractError):
        critic_regressor_loss(model, real, fake, mu[:3], cfg)


def test_row_counts_must_match_across_the_batch():
    # another row count is refused with both counts named, not left to
    # numpy's broadcasting (one row broadcasts against any batch)
    cfg = _tiny()
    model = RganModel(2, cfg, SeededRng(6))
    real, fake, mu = _batch(4, 2, seed=3)
    z = gaussian_noise(4, cfg.noise_dim, SeededRng(1))
    for rows in (5, 3, 1):
        with pytest.raises(ContractError, match=f"real has 4, fake has {rows}"):
            critic_regressor_loss(model, real, np.resize(fake, (rows, 3)), mu, cfg)
        with pytest.raises(ContractError, match=f"real has 4, mu has {rows}"):
            critic_regressor_loss(model, real, fake, np.resize(mu, (rows, 1)), cfg)
        with pytest.raises(ContractError, match=f"noise has 4, real has {rows}"):
            generator_loss(model, z, np.resize(real, (rows, 3)), cfg)


def _shape_error(name, got, want):
    return pytest.raises(ShapeError, match=re.escape(f"{name} has shape {got}, expected {want}"))


@pytest.mark.parametrize("gp_weight", [0.0, 0.5])
def test_joint_rows_must_have_one_column_per_feature_and_the_label(gp_weight):
    # with no penalty to refuse the interpolation, a 4-column batch against
    # d = 2 would read an x column as y and return finite parts
    cfg = _tiny(gp_weight=gp_weight)
    model = RganModel(2, cfg, SeededRng(6))
    real, fake, mu = _batch(4, 2, seed=3)
    z = gaussian_noise(4, cfg.noise_dim, SeededRng(1))
    for bad in (_joint(real, real[:, 0]), real[:, :2], real[:, 0]):
        with _shape_error("real", bad.shape, (4, 3)):
            critic_regressor_loss(model, bad, fake, mu, cfg)
        with _shape_error("fake", bad.shape, (4, 3)):
            critic_regressor_loss(model, real, bad, mu, cfg)
        with _shape_error("real", bad.shape, (4, 3)):
            generator_loss(model, z, bad, cfg)


def test_mu_must_be_one_column():
    # a 1-D mu of n = d + 1 entries would broadcast along the columns
    cfg = _tiny()
    model = RganModel(2, cfg, SeededRng(6))
    real, fake, mu = _batch(3, 2, seed=3)
    for bad in (mu.ravel(), np.hstack([mu, mu])):
        with _shape_error("mu", bad.shape, (3, 1)):
            critic_regressor_loss(model, real, fake, bad, cfg)


def _hand_wgan_loss(model, real, fake, mu, beta):
    """Plain-numpy critic loss of joint rows: score means, interpolates, penalty."""
    s = SLOPE
    d = model.n_features
    width = model.config.trunk_width
    ((tw, tb),) = model.critic_trunk.layers
    (w1, b1), (w2, b2) = model.critic_head.layers

    def leaky(z):
        return np.where(z > 0.0, z, s * z)

    def dleaky(z):
        return np.where(z > 0.0, 1.0, s)

    def score(rows):
        h = leaky(rows[:, :d] @ tw.value + tb.value)
        z2 = np.hstack([h, rows[:, d:]]) @ w1.value + b1.value
        return leaky(z2) @ w2.value + b2.value

    n = real.shape[0]
    d_real = float(score(real).mean())
    d_fake = float(score(fake).mean())

    joint = mu * real + (1.0 - mu) * fake
    z1 = joint[:, :d] @ tw.value + tb.value
    z2 = np.hstack([leaky(z1), joint[:, d:]]) @ w1.value + b1.value
    g_z2 = dleaky(z2) * w2.value.ravel()[None, :]
    g_cat = g_z2 @ w1.value.T
    g_x = (dleaky(z1) * g_cat[:, :width]) @ tw.value.T
    grad = np.hstack([g_x, g_cat[:, width:]])
    norms = np.sqrt(np.sum(grad ** 2, axis=1))
    return -d_real + d_fake + beta / n * float(np.sum((norms - 1.0) ** 2))


def test_critic_loss_in_baseline_mode_matches_hand_coded_wgan_gp():
    for seed in range(5):
        cfg = _tiny(gp_weight=0.5).wgan_gp_mode()
        model = RganModel(3, cfg, SeededRng(100 + seed))
        real, fake, mu = _batch(8, 3, seed=200 + seed)
        _, parts = critic_regressor_loss(model, real, fake, mu, cfg)
        want = _hand_wgan_loss(model, real, fake, mu, cfg.gp_weight)
        assert abs(parts["loss"] - want) < 1e-10


def test_generator_loss_without_regression_is_pure_adversarial():
    cfg = _tiny(gen_reg_weight=0.0)
    model = RganModel(2, cfg, SeededRng(8))
    z = gaussian_noise(6, cfg.noise_dim, SeededRng(1))
    real, _, _ = _batch(6, 2, seed=5)
    _, parts = generator_loss(model, z, real, cfg)
    assert parts["loss"] == parts["adversarial"]
    assert np.isnan(parts["regression"])
    fake = model.generator.forward_values(z)
    want = -float(np.mean(_critic_scores(model, fake[:, :2], fake[:, 2])))
    assert abs(parts["adversarial"] - want) < 1e-12


def test_zero_fake_residual_leaves_only_the_real_term():
    # generator all zero -> every fake row is sigmoid(0) = 0.5; regressor
    # rigged to predict 0.5 everywhere -> fake residuals vanish exactly
    cfg = _tiny()
    model = RganModel(2, cfg, SeededRng(9))
    _zero_net(model.generator)
    _zero_net(model.regressor_trunk)
    _zero_net(model.regressor_head)
    model.regressor_head.layers[-1][1].value[...] = 0.5

    z = gaussian_noise(5, cfg.noise_dim, SeededRng(2))
    real, _, _ = _batch(5, 2, seed=6)
    _, parts = generator_loss(model, z, real, cfg)
    want = float(np.sum((0.5 - real[:, 2]) ** 2)) / 5
    assert abs(parts["regression"] - want) < 1e-15


def test_generator_loss_checks_real_batch_size():
    cfg = _tiny()
    model = RganModel(2, cfg, SeededRng(8))
    z = gaussian_noise(6, cfg.noise_dim, SeededRng(1))
    real, _, _ = _batch(4, 2, seed=5)
    with pytest.raises(ContractError, match="noise has 6, real has 4"):
        generator_loss(model, z, real, cfg)


# ---------------------------------------------------------------- gradients

def test_generator_gradients_match_finite_differences():
    cfg = _tiny()
    model = RganModel(2, cfg, SeededRng(11))
    z = gaussian_noise(4, cfg.noise_dim, SeededRng(3))
    real, _, _ = _batch(4, 2, seed=7)
    params = model.generator_params()
    analytic, _ = generator_loss(model, z, real, cfg)
    numeric = central_difference(
        lambda: generator_loss(model, z, real, cfg)[1]["loss"], params)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_critic_gradients_match_finite_differences():
    cfg = _tiny()
    model = RganModel(2, cfg, SeededRng(12))
    real, fake, mu = _batch(4, 2, seed=8)
    params = model.critic_step_params()
    analytic, _ = critic_regressor_loss(model, real, fake, mu, cfg)
    numeric = central_difference(
        lambda: critic_regressor_loss(model, real, fake, mu, cfg)[1]["loss"], params)
    assert max_relative_error(analytic, numeric) < 1e-4


MODES = {
    "shared": lambda c: c,
    "unshared": lambda c: replace(c, share_trunk=False),
    "wgan-gp": lambda c: c.wgan_gp_mode(),
    "no-penalty": lambda c: replace(c, gp_weight=0.0),
    "no-critic-regression": lambda c: replace(c, critic_reg_weight=0.0),
}


def _distinct_trunks(model):
    """Move an unshared regressor trunk off its initial copy of the critic trunk,
    so a step that mixes the two up cannot give the reference's bits by chance."""
    if model.regressor_trunk is not model.critic_trunk:
        for w, b in model.regressor_trunk.layers:
            w.value *= 1.5
            b.value += 0.1


def _assert_bit_identical(grads, parts, want, want_parts):
    assert len(grads) == len(want)
    for got, ref in zip(grads, want):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert parts.keys() == want_parts.keys()
    for key, value in want_parts.items():
        assert parts[key] == value or (np.isnan(value) and np.isnan(parts[key]))


def _negative_zero_label_pieces(model, real, fake, mu):
    """Rows whose penalty gradient at the label is -0.0.

    Per row that piece is a positive factor times (|g| - 1) times g's label
    entry, where g is the critic's input gradient at the interpolate.
    """
    d = model.n_features
    jt = Tensor(mu * real + (1.0 - mu) * fake, requires_grad=True)
    score = graph_reference.critic_score(model, ad.slice_cols(jt, 0, d),
                                         ad.slice_cols(jt, d, d + 1))
    g = ad.grad(ad.sum_all(score), [jt])[0].value
    piece = (np.sqrt((g * g).sum(axis=1)) - 1.0) * g[:, d]
    return int(np.sum((piece == 0.0) & np.signbit(piece)))


@pytest.mark.parametrize("mode", MODES)
def test_critic_step_equals_the_graph_reference_bit_for_bit(mode):
    cfg = MODES[mode](GanConfig(trunk_width=32, critic_hidden=32, regressor_hidden=8))
    for n in (1, 3, 7, 32, 50):
        for d in (1, 2, 10):
            for zero_label_row in (False, True):
                model = RganModel(d, cfg, SeededRng(50 + n + d))
                _distinct_trunks(model)
                rng = np.random.default_rng(n * 100 + d)
                fake = rng.uniform(size=(n, d + 1))      # the generator's joint rows
                rx, ry = rng.uniform(size=(n, d)), rng.uniform(size=n)
                args = (_joint(rx, ry), fake, rng.uniform(size=(n, 1)), cfg)
                if zero_label_row:
                    # the label's input gradient is then 0.0, so the penalty's label piece
                    # is -0.0 in every row whose gradient norm is below 1
                    model.critic_head.layers[0][0].value[-1, :] = 0.0
                    if cfg.gp_weight != 0.0:
                        assert _negative_zero_label_pieces(model, *args[:3]) > 0, (n, d)
                grads, parts = critic_regressor_loss(model, *args)
                want, want_parts = graph_reference.critic_gradients(model, *args)
                assert len(grads) == len(model.critic_step_params())
                _assert_bit_identical(grads, parts, want, want_parts)


GENERATOR_MODES = {**MODES, "no-generator-regression": lambda c: replace(c, gen_reg_weight=0.0)}


@pytest.mark.parametrize("mode", GENERATOR_MODES)
def test_generator_step_equals_the_graph_reference_bit_for_bit(mode):
    cfg = GENERATOR_MODES[mode](GanConfig(trunk_width=32, critic_hidden=32,
                                          regressor_hidden=8))
    for n in (1, 3, 7, 32, 50):
        for d in (1, 2, 10):
            model = RganModel(d, cfg, SeededRng(50 + n + d))
            _distinct_trunks(model)
            rng = np.random.default_rng(n * 100 + d)
            z = rng.normal(size=(n, cfg.noise_dim))
            args = (z, _joint(rng.uniform(size=(n, d)), rng.uniform(size=n)), cfg)
            grads, parts = generator_loss(model, *args)
            want, want_parts = graph_reference.generator_gradients(model, *args)
            assert len(grads) == len(model.generator_params())
            _assert_bit_identical(grads, parts, want, want_parts)


@pytest.mark.parametrize("share_trunk", [True, False])
def test_generator_step_graph_holds_only_the_generator(monkeypatch, share_trunk):
    # walk every node the differentiated output reaches: the generator's
    # parameters are on it, no critic-step or regressor parameter is
    roots, real_grad_values = [], ad.grad_values

    def recording(output, wrt):
        roots.append(output)
        return real_grad_values(output, wrt)

    monkeypatch.setattr(ad, "grad_values", recording)
    cfg = _tiny(share_trunk=share_trunk)
    model = RganModel(2, cfg, SeededRng(8))
    z = gaussian_noise(4, cfg.noise_dim, SeededRng(1))
    real, _, _ = _batch(4, 2, seed=5)
    generator_loss(model, z, real, cfg)
    (root,) = roots
    reached, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in reached:
            reached[id(node)] = node
            stack.extend(parent for parent, _ in node.parents)
    others = (model.critic_step_params() + model.regressor_trunk.params()
              + model.regressor_head.params())
    assert all(id(p) in reached for p in model.generator_params())
    assert not any(id(p) in reached for p in others)


def test_training_builds_no_graph_outside_the_generator_step(monkeypatch):
    # the critic step and pretraining are hand-derived: only the generator
    # step differentiates a recorded graph
    calls = []
    real_grad = ad.grad

    def counting_grad(output, wrt):
        calls.append(len(wrt))
        return real_grad(output, wrt)

    monkeypatch.setattr(ad, "grad", counting_grad)
    cfg = _tiny(iterations=2, pretrain_epochs=3)
    train(_train_ds(n=10, seed=12), cfg, seed=5)
    assert calls == [len(RganModel(2, cfg, SeededRng(0)).generator_params())] * 2


def test_no_matmul_returns_negative_zero():
    # the steps join matmul outputs with np.concatenate where the graph adds
    # zero-padded pieces; that keeps every bit only while no matmul returns
    # -0.0, which the padded add would turn to +0.0. Every product here is
    # -0.0: column k of the left operand is all +0.0 or all -0.0, and row k
    # of the right one has the opposite sign
    rng = np.random.default_rng(0)
    for n in (1, 3, 32, 50):
        for inner in range(1, 34):
            signs = np.where(rng.uniform(size=inner) < 0.5, -1.0, 1.0)
            left = np.zeros((n, inner)) * signs
            for outer in range(1, 34):
                right = rng.uniform(0.5, 2.0, size=(inner, outer)) * -signs[:, None]
                for a in (left, np.asfortranarray(left)):
                    for b in (right, np.asfortranarray(right)):
                        assert not np.signbit(a @ b).any()
                        assert not np.signbit(b.T @ a.T).any()


def test_stacked_matmuls_and_sums_equal_each_batch_alone():
    # the steps stack their batches: one matmul over a (batches, n, k) stack
    # forms each batch's product as its own call would, and a row block
    # written with out= equals the fresh product. That holds only while the
    # BLAS rounds a product the same wherever its operands and result sit:
    # in a larger buffer, in a row-strided column slice (the trunk reads x
    # from joint rows), transposed (weight gradients), or stride-0 (seeds)
    rng = np.random.default_rng(1)
    for n in (1, 3, 7, 32, 50):
        for inner in range(1, 34):
            joint = rng.normal(size=(3, n, inner + 1))
            for a in (joint[..., :inner], np.ascontiguousarray(joint[..., :inner])):
                g = rng.normal(size=(3, n, 17))
                transposed = a.swapaxes(1, 2) @ g
                assert sum_rows(g).tobytes() == np.stack([sum_rows(g[j]) for j in range(3)]).tobytes()
                for j in range(3):
                    assert transposed[j].tobytes() == (a[j].T @ g[j]).tobytes()
                for outer in range(1, 34):
                    b = rng.normal(size=(inner, outer))
                    stacked, block = a @ b, np.empty((3 * n, outer))
                    for j in range(3):
                        np.matmul(a[j], b, out=block[j * n:(j + 1) * n])
                        assert stacked[j].tobytes() == (a[j] @ b).tobytes()
                    assert block.tobytes() == stacked.tobytes()
        seeds = np.broadcast_to(np.array([0.5, -0.25, 1.0]).reshape(3, 1, 1), (3, n, 1))
        w, h = rng.normal(size=(32, 1)), rng.normal(size=(3, n, 32))
        for j, c in enumerate((0.5, -0.25, 1.0)):
            seed = np.broadcast_to(np.full((1, 1), c), (n, 1))
            assert (seeds @ w.T)[j].tobytes() == (seed @ w.T).tobytes()
            assert (h.swapaxes(1, 2) @ seeds)[j].tobytes() == (h[j].T @ seed).tobytes()
            assert sum_rows(seeds)[j].tobytes() == sum_rows(seed).tobytes()


@pytest.mark.parametrize("batch_size", [1, 7, 32, 50])
@pytest.mark.parametrize("mode", ["shared", "unshared", "wgan-gp"])
def test_training_equals_the_graph_reference_loop_bit_for_bit(mode, batch_size):
    # the whole loop against one written out on split features and labels,
    # with the recorded graph's gradients and a tensor-by-tensor Adam
    cfg = MODES[mode](_tiny(batch_size=batch_size, iterations=3))
    ds = _train_ds(n=12, seed=13)
    model, trace = train(ds, cfg, seed=21)
    want, want_pretrain, want_rows = graph_reference.train(ds, cfg, seed=21)
    for name in ("generator", "critic_trunk", "critic_head", "regressor_trunk", "regressor_head"):
        assert checksum(getattr(model, name)) == checksum(getattr(want, name))
    assert trace.pretrain_mse == want_pretrain
    assert np.array(trace.numeric_rows()).tobytes() == np.array(want_rows).tobytes()


# ----------------------------------------------------------- training steps

def test_updates_touch_only_their_own_parameters():
    cfg = _tiny()
    model = RganModel(2, cfg, SeededRng(13))
    real, fake, mu = _batch(4, 2, seed=9)

    gen_before = checksum(model.generator)
    cgrads, _ = critic_regressor_loss(model, real, fake, mu, cfg)
    Adam(model.critic_step_params(), 1e-3).step(cgrads)
    assert checksum(model.generator) == gen_before
    trunk_after_critic = checksum(model.critic_trunk)

    z = gaussian_noise(4, cfg.noise_dim, SeededRng(4))
    ggrads, _ = generator_loss(model, z, real, cfg)
    Adam(model.generator_params(), 1e-3).step(ggrads)
    assert checksum(model.generator) != gen_before
    assert checksum(model.critic_trunk) == trunk_after_critic


def test_pretraining_reaches_the_critic_only_when_trunk_is_shared():
    shared = RganModel(2, _tiny(pretrain_epochs=3), SeededRng(14))
    before = checksum(shared.critic_trunk)
    pretrain_regressor(shared, _train_ds(seed=1), shared.config)
    assert checksum(shared.critic_trunk) != before

    unshared = RganModel(2, _tiny(pretrain_epochs=3, share_trunk=False),
                         SeededRng(14))
    trunk_before = checksum(unshared.critic_trunk)
    head_before = checksum(unshared.critic_head)
    reg_trunk_before = checksum(unshared.regressor_trunk)
    pretrain_regressor(unshared, _train_ds(seed=1), unshared.config)
    assert checksum(unshared.critic_trunk) == trunk_before
    assert checksum(unshared.critic_head) == head_before
    assert checksum(unshared.regressor_trunk) != reg_trunk_before


def test_pretrain_history_tracks_mse():
    cfg = _tiny(pretrain_epochs=40, pretrain_lr=1e-2)
    model = RganModel(2, cfg, SeededRng(15))
    history = pretrain_regressor(model, _train_ds(n=16, seed=2), cfg)
    assert len(history) == 40
    assert all(np.isfinite(history))
    assert history[-1] < history[0]
    assert pretrain_regressor(model, _train_ds(seed=2), _tiny(pretrain_epochs=0)) == []


def test_unshared_regressor_is_frozen_after_pretraining():
    ds = _train_ds(n=12, seed=3)
    cfg = _tiny(share_trunk=False, iterations=3)
    trained, _ = train(ds, cfg, seed=31)
    frozen, _ = train(ds, replace(cfg, iterations=0), seed=31)
    assert checksum(trained.regressor_trunk) == checksum(frozen.regressor_trunk)
    assert checksum(trained.regressor_head) == checksum(frozen.regressor_head)
    assert checksum(trained.critic_trunk) != checksum(frozen.critic_trunk)

    shared_cfg = _tiny(iterations=3)
    moved, _ = train(ds, shared_cfg, seed=31)
    still, _ = train(ds, replace(shared_cfg, iterations=0), seed=31)
    assert checksum(moved.regressor_head) != checksum(still.regressor_head)


def test_training_is_deterministic():
    ds = _train_ds(n=12, seed=4)
    runs = [train(ds, _tiny(), seed=77) for _ in range(2)]
    (model_a, trace_a), (model_b, trace_b) = runs
    assert trace_a.numeric_rows() == trace_b.numeric_rows()
    assert trace_a.pretrain_mse == trace_b.pretrain_mse
    for name in ("generator", "critic_trunk", "critic_head", "regressor_head"):
        assert checksum(getattr(model_a, name)) == checksum(getattr(model_b, name))


def test_trace_shape_and_mode_marking():
    ds = _train_ds(n=12, seed=5)
    _, full = train(ds, _tiny(), seed=1)
    assert len(full.iteration) == 3 and full.iteration == [0, 1, 2]
    assert all(np.isfinite(full.regression_loss))

    assert all(np.isfinite(full.penalty)) and min(full.penalty) >= 0.0
    assert [row[5] for row in full.numeric_rows()] == full.penalty

    _, wgan = train(ds, _tiny().wgan_gp_mode(), seed=1)
    assert np.isnan(wgan.regression_loss).all()
    assert all(np.isfinite(wgan.wasserstein))

    _, no_gp = train(ds, _tiny(gp_weight=0.0), seed=1)
    assert no_gp.penalty == [0.0, 0.0, 0.0]


def test_trace_critic_columns_come_from_the_last_critic_step(monkeypatch):
    from softaug import rgan
    seen, inner = [], rgan.critic_regressor_loss

    def recording(*args):
        grads, parts = inner(*args)
        seen.append(parts)
        return grads, parts

    monkeypatch.setattr(rgan, "critic_regressor_loss", recording)
    cfg = _tiny(iterations=3, n_critic=2)
    _, trace = train(_train_ds(n=12, seed=5), cfg, seed=1)
    last = seen[cfg.n_critic - 1::cfg.n_critic]
    assert len(last) == 3
    for column, key in ((trace.critic_loss, "loss"), (trace.wasserstein, "wasserstein"),
                        (trace.regression_loss, "regression"), (trace.penalty, "penalty")):
        assert column == [parts[key] for parts in last]


def test_training_handles_batches_larger_than_the_dataset():
    ds = _train_ds(n=3, seed=6)
    model, trace = train(ds, _tiny(batch_size=8, iterations=1), seed=2)
    assert len(trace.iteration) == 1
    assert generate(model, 4, seed=0).n_rows == 4


def test_divergence_carries_the_partial_trace():
    rng = np.random.default_rng(7)
    ds = TabularDataset(rng.uniform(size=(6, 2)), np.full(6, 1e160),
                        ("x1", "x2"))
    cfg = _tiny(pretrain_epochs=0)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as excinfo:
        train(ds, cfg, seed=3)
    assert excinfo.value.trace is not None


def _corrupt_at_second_iteration(monkeypatch, name, corrupt):
    """Patch rgan.`name` so its first call in iteration 1 returns corrupt(result)."""
    from softaug import rgan
    inner, calls = getattr(rgan, name), []
    first = {"generator_loss": 1, "critic_regressor_loss": _tiny().n_critic}[name]

    def patched(*args):
        calls.append(None)
        out = inner(*args)
        return corrupt(out) if len(calls) == first + 1 else out

    monkeypatch.setattr(rgan, name, patched)


def test_non_finite_generator_loss_raises_with_the_partial_trace(monkeypatch):
    _corrupt_at_second_iteration(monkeypatch, "generator_loss",
                                 lambda out: (out[0], {**out[1], "loss": float("nan")}))
    with pytest.raises(DivergenceError, match="non-finite generator loss at iteration 1") \
            as excinfo:
        train(_train_ds(n=12, seed=5), _tiny(), seed=1)
    assert excinfo.value.trace.iteration == [0]


def test_optimizer_divergence_gets_the_partial_trace(monkeypatch):
    # a NaN critic gradient under a finite loss: Adam raises without a trace
    _corrupt_at_second_iteration(
        monkeypatch, "critic_regressor_loss",
        lambda out: ([np.full_like(out[0][0], np.nan), *out[0][1:]], out[1]))
    with pytest.raises(DivergenceError, match="non-finite gradient at optimizer step 3") \
            as excinfo:
        train(_train_ds(n=12, seed=5), _tiny(), seed=1)
    assert excinfo.value.trace.iteration == [0]
    assert all(np.isfinite(excinfo.value.trace.critic_loss))


def test_zero_iterations_returns_pretrained_model():
    ds = _train_ds(n=8, seed=8)
    model, trace = train(ds, _tiny(iterations=0, pretrain_epochs=5), seed=4)
    assert trace.numeric_rows() == []
    assert len(trace.pretrain_mse) == 5
    assert generate(model, 3, seed=1).n_rows == 3


# ------------------------------------------------------------------ sampling

def test_generated_rows_are_sigmoid_bounded_and_tagged():
    ds = _train_ds(n=8, seed=9)
    model, _ = train(ds, _tiny(iterations=1), seed=5)
    out = generate(model, 50, seed=6)
    assert out.provenance == "generated"
    assert out.columns == ds.columns and out.label_name == ds.label_name
    assert np.all(out.features > 0.0) and np.all(out.features < 1.0)
    assert np.all(out.labels > 0.0) and np.all(out.labels < 1.0)


def test_generate_is_a_prefix_stable_stream():
    model = RganModel(2, _tiny(), SeededRng(16), columns=("p", "q"), label_name="t")
    small = generate(model, 5, seed=11)
    large = generate(model, 40, seed=11)
    assert np.array_equal(small.features, large.features[:5])
    assert np.array_equal(small.labels, large.labels[:5])
    empty = generate(model, 0, seed=11)
    assert empty.n_rows == 0 and empty.provenance == "generated"
    assert (empty.columns, empty.label_name) == (("p", "q"), "t")
    assert empty.features.shape == (0, 2) and empty.labels.shape == (0,)
    assert empty.features.dtype == empty.labels.dtype == np.float64


# --------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_preserves_generation(tmp_path):
    ds = _train_ds(n=8, seed=10)
    model, _ = train(ds, _tiny(iterations=1), seed=7)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, extra={"seed": 7, "tag": "demo"})
    loaded, extra = load_checkpoint(path)
    assert extra == {"seed": 7, "tag": "demo"}
    assert loaded.config == model.config
    assert loaded.columns == model.columns
    a, b = generate(model, 20, seed=8), generate(loaded, 20, seed=8)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert loaded.regressor_trunk is loaded.critic_trunk


def test_checkpoint_roundtrip_keeps_unshared_trunks_independent(tmp_path):
    ds = _train_ds(n=8, seed=11)
    model, _ = train(ds, _tiny(iterations=1, share_trunk=False), seed=9)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    loaded, extra = load_checkpoint(path)
    assert extra == {}
    assert loaded.regressor_trunk is not loaded.critic_trunk
    assert checksum(loaded.regressor_trunk) == checksum(model.regressor_trunk)
    assert checksum(loaded.critic_trunk) == checksum(model.critic_trunk)
    preds_a = _regressor_predictions(model, ds.features)
    preds_b = _regressor_predictions(loaded, ds.features)
    assert np.array_equal(preds_a, preds_b)


def test_checkpoint_rejects_corruption(tmp_path):
    model = RganModel(2, _tiny(), SeededRng(17))
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTMODEL" + raw[8:])
    with pytest.raises(ContractError, match="not a model checkpoint"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.bin"
    bad_version.write_bytes(raw[:8] + bytes([raw[8] + 1]) + raw[9:])
    with pytest.raises(ContractError, match="format version"):
        load_checkpoint(bad_version)

    version_one = tmp_path / "v1.bin"
    version_one.write_bytes(raw[:8] + bytes([1]) + raw[9:])
    with pytest.raises(ContractError, match="format version 1, expected 2"):
        load_checkpoint(version_one)

    flipped = tmp_path / "flipped.bin"
    flipped.write_bytes(raw[:-40] + bytes([raw[-40] ^ 1]) + raw[-39:])
    with pytest.raises(ContractError, match="digest mismatch"):
        load_checkpoint(flipped)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ContractError, match="truncated"):
        load_checkpoint(truncated)

    padded = tmp_path / "long.bin"
    padded.write_bytes(raw + b"\x00" * 16)
    with pytest.raises(ContractError, match="trailing"):
        load_checkpoint(padded)

    not_object = tmp_path / "extra.bin"
    not_object.write_bytes(resign_checkpoint(raw.replace(b'"extra": {}', b'"extra": 70')))
    with pytest.raises(ContractError, match="extra is not an object"):
        load_checkpoint(not_object)


def test_checkpoint_truncations_and_bit_flips_only_raise_contract_errors(tmp_path):
    # a plain seeded loop: every truncation point and 2,000 single-bit flips
    model = RganModel(2, _tiny(noise_dim=2, trunk_width=3, gen_hidden=(3,),
                               critic_hidden=3, regressor_hidden=2), SeededRng(5))
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, extra={"seed": 3, "seed_tag": "",
                                        "normalizer": {"feature_lo": [0.0, 1.0]}})
    raw = path.read_bytes()
    cases = [raw[:n] for n in range(len(raw))]
    rng = np.random.default_rng(20250131)
    for pos, bit in zip(rng.integers(0, len(raw), 2000), rng.integers(0, 8, 2000)):
        flipped = bytearray(raw)
        flipped[pos] ^= 1 << bit
        cases.append(bytes(flipped))
    bad = tmp_path / "bad.bin"
    outcomes = {"loaded": 0, "rejected": 0}
    for data in cases:
        bad.write_bytes(data)
        try:
            load_checkpoint(bad)
        except ContractError as err:
            assert str(bad) in str(err)
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1
    assert outcomes["rejected"] >= len(raw)
    assert outcomes["loaded"] == 0
