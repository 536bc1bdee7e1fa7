"""Recorded-graph reference forms of the hand-derived training paths.

The critic and generator objectives and the MSE fit below build an
autodiff graph and differentiate it. The program computes the same
gradients by hand; the tests hold them to these references bit for bit.
`train` writes the adversarial loop out on these references.
"""
import numpy as np

from softaug import RganModel, SeededRng
from softaug import autodiff as ad
from softaug.autodiff import Tensor
from softaug.errors import ContractError
from softaug.rng import gaussian_noise


def critic_score(model, x, y):
    """Recorded critic score of the graph rows `x` and the label column `y`."""
    h = model.critic_trunk.forward(x)
    return model.critic_head.forward(ad.concat_cols([h, y]))


def regressor_predict(model, x):
    return model.regressor_head.forward(model.regressor_trunk.forward(x))


def regression_loss(model, real, fake_x, fake_y):
    """Mean joint residual over a real and a fake batch of equal size.

    `real` holds joint [x, y] rows. The fake rows are graph nodes: the
    batch the critic scores, or the generator's output in its update.
    `fake_y` is a column.
    """
    d = model.n_features
    rx, ry = Tensor(real[:, :d]), Tensor(real[:, d:])
    if rx.shape[0] != fake_x.shape[0]:
        raise ContractError(
            f"real and fake batches must match: {rx.shape[0]} vs {fake_x.shape[0]}")
    fake_term, real_term = (ad.sum_all(ad.square(ad.sub(regressor_predict(model, x), y)))
                            for x, y in ((fake_x, fake_y), (rx, ry)))
    return ad.scale(ad.add(fake_term, real_term), 1.0 / rx.shape[0])


def critic_regressor_loss(model, real, fake, mu, config):
    """Joint critic(+regressor) objective on joint [x, y] rows; returns (loss node, float parts).

    `mu` is the (n, 1) column of interpolation weights on the real rows.
    """
    n = real.shape[0]
    if fake.shape[0] != n or mu.shape[0] != n:
        raise ContractError("real, fake and mu must have the same row count")
    d = model.n_features

    d_real = ad.mean_all(critic_score(model, Tensor(real[:, :d]), Tensor(real[:, d:])))
    fake_xt, fake_yt = Tensor(fake[:, :d]), Tensor(fake[:, d:])
    d_fake = ad.mean_all(critic_score(model, fake_xt, fake_yt))
    loss = ad.sub(d_fake, d_real)
    parts = {"wasserstein": d_real.item() - d_fake.item()}

    if config.gp_weight != 0.0:
        jt = Tensor(mu * real + (1.0 - mu) * fake, requires_grad=True)
        score = critic_score(model, ad.slice_cols(jt, 0, d), ad.slice_cols(jt, d, d + 1))
        g = ad.grad(ad.sum_all(score), [jt])[0]
        pen = ad.sum_all(ad.square(ad.shift(ad.norm_rows(g), -1.0)))
        loss = ad.add(loss, ad.scale(pen, config.gp_weight / n))
        parts["penalty"] = pen.item() / n
    else:
        parts["penalty"] = 0.0

    if config.critic_reg_weight != 0.0:
        reg = regression_loss(model, real, fake_xt, fake_yt)
        loss = ad.add(loss, ad.scale(reg, config.critic_reg_weight))
        parts["regression"] = reg.item()
    else:
        parts["regression"] = float("nan")

    parts["loss"] = loss.item()
    return loss, parts


def critic_gradients(model, real, fake, mu, config):
    """(gradients of `critic_step_params()`, parts) from the recorded graph."""
    loss, parts = critic_regressor_loss(model, real, fake, mu, config)
    return ad.grad_values(loss, model.critic_step_params()), parts


def generator_loss(model, noise, real, config):
    """Adversarial + regression-consistency generator objective on joint [x, y]
    rows `real`: (loss node, float parts)."""
    d = model.n_features

    out = model.generator.forward(Tensor(noise))
    fx, fy = ad.slice_cols(out, 0, d), ad.slice_cols(out, d, d + 1)
    loss = ad.neg(ad.mean_all(critic_score(model, fx, fy)))
    parts = {"adversarial": loss.item()}

    if config.gen_reg_weight != 0.0:
        reg = regression_loss(model, real, fx, fy)
        loss = ad.add(loss, ad.scale(reg, config.gen_reg_weight))
        parts["regression"] = reg.item()
    else:
        parts["regression"] = float("nan")

    parts["loss"] = loss.item()
    return loss, parts


def generator_gradients(model, noise, real, config):
    """(gradients of `generator_params()`, parts) from the recorded graph."""
    loss, parts = generator_loss(model, noise, real, config)
    return ad.grad_values(loss, model.generator_params()), parts


class TensorAdam:
    """Adam stepping each tensor on its own, as a reference for the flat one."""

    def __init__(self, params, learning_rate):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self, grads):
        t = self.step_count + 1
        c1 = 1.0 - 0.9 ** t
        c2 = 1.0 - 0.999 ** t
        for g, p, m, v in zip(grads, self.params, self._m, self._v):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * (g * g)
            p.value -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        self.step_count = t


def fit_mse(nets, x, y, epochs, learning_rate):
    """Full-batch fit of the chain `nets` by differentiating the recorded MSE."""
    params = [p for net in nets for p in net.params()]
    opt = TensorAdam(params, learning_rate)
    xt, yt = Tensor(x), Tensor(y)
    history = []
    for _ in range(epochs):
        h = xt
        for net in nets:
            h = net.forward(h)
        loss = ad.mean_all(ad.square(ad.sub(h, yt)))
        history.append(loss.item())
        opt.step(ad.grad_values(loss, params))
    return history


def train(train_ds, config, seed):
    """The adversarial loop on the recorded graph: (model, pretrain history, trace rows).

    Keeps features and labels apart and joins each batch's rows itself. It
    draws the streams in the documented order (real indices, noise, mu per
    critic step; then noise and real indices) and steps `TensorAdam`.
    """
    rng = SeededRng(seed)
    model = RganModel(train_ds.n_features, config, rng)
    x, y = train_ds.features, train_ds.labels.reshape(-1, 1)
    lr = config.pretrain_lr if config.pretrain_lr is not None else config.learning_rate
    pretrain = fit_mse([model.regressor_trunk, model.regressor_head], x, y,
                       config.pretrain_epochs, lr)
    adam_c = TensorAdam(model.critic_step_params(), config.learning_rate)
    adam_g = TensorAdam(model.generator_params(), config.learning_rate)
    n, rows = config.batch_size, []
    for it in range(config.iterations):
        for _ in range(config.n_critic):
            idx = rng.integers(0, len(x), n)
            fake = model.generator.forward(Tensor(gaussian_noise(n, config.noise_dim, rng))).value
            mu = rng.uniform(n, 1)
            grads, parts = critic_gradients(model, np.hstack([x[idx], y[idx]]), fake, mu, config)
            adam_c.step(grads)
        z = gaussian_noise(n, config.noise_dim, rng)
        idx = rng.integers(0, len(x), n)
        grads, gen_parts = generator_gradients(model, z, np.hstack([x[idx], y[idx]]), config)
        adam_g.step(grads)
        rows.append((it, parts["loss"], gen_parts["loss"], parts["regression"],
                     parts["wasserstein"], parts["penalty"]))
    return model, pretrain, rows
