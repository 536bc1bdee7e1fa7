"""Regression-aware Wasserstein GAN for joint [x, y] tabular rows.

Architecture: a generator maps noise to sigmoid-bounded joint rows; a
shallow trunk embeds x; a critic head scores trunk(x) joined with y; a
regressor head predicts y from trunk(x). With trunk sharing on (the
default) the critic and regressor use the same trunk object, so the
regression residuals shape the features the critic sees. With sharing
off the regressor keeps an independent copy of the trunk and is frozen
after pretraining.

Losses (per batch of N rows):
* critic/regressor: -mean D(real) + mean D(fake)
    + (gp_weight/N) * sum (||grad D at interpolates|| - 1)^2
    + critic_reg_weight * mean-residual term
* generator: -mean D(fake) + gen_reg_weight * mean-residual term
  (fake residuals steer the generator; the real-batch residual is added
  for loss-value fidelity even though its generator gradient is zero)

A regression term is on exactly when its weight is non-zero. With both
weights at 0 and sharing off, training is exactly a WGAN with gradient
penalty.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TabularDataset
from .errors import ConfigError, ContractError, DivergenceError, SoftaugError
from .layers import init_mlp
from .optim import Adam, fit_mse
from .rng import SeededRng, gaussian_noise


def check_finite(name: str, value: float, positive: bool = False) -> None:
    """A ConfigError naming `name` unless `value` is finite and >= 0 (> 0 if `positive`)."""
    if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ConfigError(f"{name} must be finite and {'> 0' if positive else '>= 0'}, "
                          f"got {value!r}")


@dataclass(frozen=True)
class GanConfig:
    noise_dim: int = 8
    n_critic: int = 5
    gp_weight: float = 0.5
    gen_reg_weight: float = 1.0
    critic_reg_weight: float = 1.0
    learning_rate: float = 1e-4
    batch_size: int = 32
    iterations: int = 10000
    pretrain_epochs: int = 200
    pretrain_lr: float | None = None
    share_trunk: bool = True
    trunk_width: int = 32
    gen_hidden: tuple[int, ...] = (32, 32)
    critic_hidden: int = 32
    regressor_hidden: int = 8

    def __post_init__(self):
        for name in ("noise_dim", "n_critic", "batch_size", "trunk_width",
                     "critic_hidden", "regressor_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(h < 1 for h in self.gen_hidden):
            raise ConfigError(f"gen_hidden sizes must be >= 1, got {self.gen_hidden}")
        for name in ("iterations", "pretrain_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        check_finite("learning_rate", self.learning_rate, positive=True)
        if self.pretrain_lr is not None:
            check_finite("pretrain_lr", self.pretrain_lr, positive=True)
        for name in ("gp_weight", "gen_reg_weight", "critic_reg_weight"):
            check_finite(name, getattr(self, name))

    def wgan_gp_mode(self) -> "GanConfig":
        """The plain WGAN-GP baseline: no sharing, no regression terms."""
        return replace(self, share_trunk=False, gen_reg_weight=0.0,
                       critic_reg_weight=0.0)


class RganModel:
    """Generator, trunk(s), critic head and regressor head."""

    def __init__(self, n_features: int, config: GanConfig, rng: SeededRng,
                 columns: tuple[str, ...] | None = None, label_name: str = "y"):
        if n_features < 1:
            raise ContractError(f"need at least one feature, got {n_features}")
        d = int(n_features)
        self.n_features = d
        self.config = config
        self.columns = tuple(columns) if columns else tuple(f"x{j+1}" for j in range(d))
        self.label_name = label_name
        # stream order is fixed: generator, trunk, critic head, regressor head
        self.generator = init_mlp([config.noise_dim, *config.gen_hidden, d + 1],
                                  rng, out_activation="sigmoid")
        trunk = init_mlp([d, config.trunk_width], rng)
        self.critic_trunk = trunk
        self.critic_head = init_mlp([config.trunk_width + 1, config.critic_hidden, 1],
                                    rng, out_activation="linear")
        # unshared mode copies the same initial trunk, so the critic starts
        # identically in every mode under one seed
        self.regressor_trunk = trunk if config.share_trunk else trunk.copy()
        self.regressor_head = init_mlp([config.trunk_width, config.regressor_hidden, 1],
                                       rng, out_activation="linear")

    # ------------------------------------------------------------- forwards

    def critic_score(self, x: Tensor, y: Tensor) -> Tensor:
        h = self.critic_trunk.forward(x)
        return self.critic_head.forward(ad.concat_cols([h, y]))

    def critic_score_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        h = self.critic_trunk.forward_values(x)
        return self.critic_head.forward_values(np.hstack([h, y.reshape(-1, 1)]))

    def regressor_predict(self, x: Tensor) -> Tensor:
        return self.regressor_head.forward(self.regressor_trunk.forward(x))

    def regressor_predict_values(self, x: np.ndarray) -> np.ndarray:
        return self.regressor_head.forward_values(
            self.regressor_trunk.forward_values(x)).ravel()

    # ------------------------------------------------------- parameter sets

    def generator_params(self):
        return self.generator.params()

    def critic_step_params(self):
        """Parameters a critic/regressor update may change."""
        params = self.critic_trunk.params() + self.critic_head.params()
        if self.config.share_trunk:
            params += self.regressor_head.params()
        return params


# ------------------------------------------------------------------- losses

def regression_loss(model: RganModel, real_x, real_y, fake_x: Tensor,
                    fake_y: Tensor) -> Tensor:
    """Mean joint residual over a real and a fake batch of equal size.

    The fake rows are graph nodes: the batch the critic scores, or the
    generator's output in its update. `fake_y` is a column.
    """
    rx, ry = Tensor(real_x), Tensor(np.reshape(real_y, (-1, 1)))
    if rx.shape[0] != fake_x.shape[0]:
        raise ContractError(
            f"real and fake batches must match: {rx.shape[0]} vs {fake_x.shape[0]}")
    fake_term, real_term = (ad.sum_all(ad.square(ad.sub(model.regressor_predict(x), y)))
                            for x, y in ((fake_x, fake_y), (rx, ry)))
    return ad.scale(ad.add(fake_term, real_term), 1.0 / rx.shape[0])


def critic_regressor_loss(model: RganModel, real_x, real_y, fake_x, fake_y,
                          mu: np.ndarray, config: GanConfig):
    """Joint critic(+regressor) objective; returns (loss node, float parts)."""
    real_x = np.asarray(real_x, dtype=float)
    real_y = np.reshape(np.asarray(real_y, dtype=float), (-1, 1))
    fake_x = np.asarray(fake_x, dtype=float)
    fake_y = np.reshape(np.asarray(fake_y, dtype=float), (-1, 1))
    mu = np.reshape(np.asarray(mu, dtype=float), (-1, 1))
    n = real_x.shape[0]
    if fake_x.shape[0] != n or mu.shape[0] != n:
        raise ContractError("real, fake and mu must have the same row count")
    d = model.n_features

    d_real = ad.mean_all(model.critic_score(Tensor(real_x), Tensor(real_y)))
    fake_xt, fake_yt = Tensor(fake_x), Tensor(fake_y)
    d_fake = ad.mean_all(model.critic_score(fake_xt, fake_yt))
    loss = ad.sub(d_fake, d_real)
    parts = {"wasserstein": d_real.item() - d_fake.item()}

    if config.gp_weight != 0.0:
        joint_real = np.hstack([real_x, real_y])
        joint_fake = np.hstack([fake_x, fake_y])
        interp = mu * joint_real + (1.0 - mu) * joint_fake
        jt = Tensor(interp, requires_grad=True)
        score = model.critic_score(ad.slice_cols(jt, 0, d), ad.slice_cols(jt, d, d + 1))
        g = ad.grad(ad.sum_all(score), [jt])[0]
        pen = ad.sum_all(ad.square(ad.shift(ad.norm_rows(g), -1.0)))
        loss = ad.add(loss, ad.scale(pen, config.gp_weight / n))
        parts["penalty"] = pen.item() / n
    else:
        parts["penalty"] = 0.0

    if config.critic_reg_weight != 0.0:
        reg = regression_loss(model, real_x, real_y, fake_xt, fake_yt)
        loss = ad.add(loss, ad.scale(reg, config.critic_reg_weight))
        parts["regression"] = reg.item()
    else:
        parts["regression"] = float("nan")

    parts["loss"] = loss.item()
    return loss, parts


def generator_loss(model: RganModel, noise: np.ndarray, real_x, real_y,
                   config: GanConfig):
    """Adversarial + regression-consistency generator objective."""
    d = model.n_features

    out = model.generator.forward(Tensor(noise))
    fx, fy = ad.slice_cols(out, 0, d), ad.slice_cols(out, d, d + 1)
    loss = ad.neg(ad.mean_all(model.critic_score(fx, fy)))
    parts = {"adversarial": loss.item()}

    if config.gen_reg_weight != 0.0:
        reg = regression_loss(model, real_x, real_y, fx, fy)
        loss = ad.add(loss, ad.scale(reg, config.gen_reg_weight))
        parts["regression"] = reg.item()
    else:
        parts["regression"] = float("nan")

    parts["loss"] = loss.item()
    return loss, parts


# ----------------------------------------------------------------- training

@dataclass
class TrainTrace:
    pretrain_mse: list[float]
    iteration: list[int]
    critic_loss: list[float]
    generator_loss: list[float]
    regression_loss: list[float]
    wasserstein: list[float]

    @staticmethod
    def empty() -> "TrainTrace":
        return TrainTrace([], [], [], [], [], [])

    def numeric_rows(self) -> list[tuple]:
        return list(zip(self.iteration, self.critic_loss, self.generator_loss,
                        self.regression_loss, self.wasserstein))


def pretrain_regressor(model: RganModel, train: TabularDataset,
                       config: GanConfig) -> list[float]:
    """Full-batch Adam on the real-sample MSE; one epoch = one update.

    Returns the per-epoch MSE history (value before each update). Runs in
    every mode; in unshared mode it touches only the regressor's own trunk.
    """
    lr = config.pretrain_lr if config.pretrain_lr is not None else config.learning_rate
    return fit_mse(model.regressor_predict,
                   model.regressor_trunk.params() + model.regressor_head.params(),
                   train.features, train.labels.reshape(-1, 1),
                   config.pretrain_epochs, lr)


def train(train_ds: TabularDataset, config: GanConfig,
          seed: int) -> tuple[RganModel, TrainTrace]:
    """Adversarial training: n_critic critic updates per generator update.

    The stream consumption order per iteration is fixed (real indices,
    noise, mu for each critic update; then noise and real indices for the
    generator update), so a seed pins the whole trajectory bit-for-bit.
    """
    if train_ds.n_rows < 1:
        raise ContractError("training needs a non-empty dataset")
    rng = SeededRng(seed)
    model = RganModel(train_ds.n_features, config, rng,
                      columns=train_ds.columns, label_name=train_ds.label_name)
    trace = TrainTrace.empty()
    trace.pretrain_mse = pretrain_regressor(model, train_ds, config)

    x = train_ds.features
    y = train_ds.labels.reshape(-1, 1)
    m, d = x.shape
    critic_params = model.critic_step_params()
    adam_c = Adam(critic_params, config.learning_rate)
    adam_g = Adam(model.generator_params(), config.learning_rate)

    for it in range(config.iterations):
        parts = {}
        try:
            for _ in range(config.n_critic):
                idx = rng.integers(0, m, config.batch_size)
                z = gaussian_noise(config.batch_size, config.noise_dim, rng)
                fake = model.generator.forward_values(z)
                mu = rng.uniform(config.batch_size, 1)
                loss, parts = critic_regressor_loss(
                    model, x[idx], y[idx], fake[:, :d], fake[:, d:], mu, config)
                if not np.isfinite(parts["loss"]):
                    raise DivergenceError(
                        f"non-finite critic loss at iteration {it}", trace=trace)
                adam_c.step(ad.grad_values(loss, critic_params))
            z = gaussian_noise(config.batch_size, config.noise_dim, rng)
            idx = rng.integers(0, m, config.batch_size)
            gloss, gparts = generator_loss(model, z, x[idx], y[idx], config)
            if not np.isfinite(gparts["loss"]):
                raise DivergenceError(
                    f"non-finite generator loss at iteration {it}", trace=trace)
            adam_g.step(ad.grad_values(gloss, model.generator_params()))
        except DivergenceError as err:
            if err.trace is None:
                err.trace = trace
            raise
        trace.iteration.append(it)
        trace.critic_loss.append(parts["loss"])
        trace.generator_loss.append(gparts["loss"])
        trace.regression_loss.append(parts["regression"])
        trace.wasserstein.append(parts["wasserstein"])
    return model, trace


def generate(model: RganModel, n: int, seed: int) -> TabularDataset:
    """n joint rows from the generator; rows are a prefix-stable stream.

    The noise block is drawn row-contiguously from the seeded stream, so
    generate(model, 100, s) equals the first 100 rows of
    generate(model, 1000, s) bit-for-bit.
    """
    d = model.n_features
    if n == 0:
        return TabularDataset(np.zeros((0, d)), np.zeros(0), model.columns,
                              model.label_name, "generated")
    z = gaussian_noise(n, model.config.noise_dim, SeededRng(seed))
    out = model.generator.forward_values(z)
    return TabularDataset(out[:, :d], out[:, d], model.columns,
                          model.label_name, "generated")


# -------------------------------------------------------------- checkpoints

_MAGIC = b"SAUGCKPT"
_FORMAT_VERSION = 2
_DIGEST_SIZE = 32


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=_DIGEST_SIZE).digest()


def _layer_blocks(model: RganModel):
    nets = [("generator", model.generator), ("critic_trunk", model.critic_trunk),
            ("critic_head", model.critic_head)]
    if not model.config.share_trunk:
        nets.append(("regressor_trunk", model.regressor_trunk))
    nets.append(("regressor_head", model.regressor_head))
    return nets


def save_checkpoint(model: RganModel, path, extra: dict | None = None) -> None:
    """Binary checkpoint: magic, version, JSON header, float64 LE blocks,
    then a 32-byte blake2b digest of everything before it.

    Blocks follow the documented order generator, critic trunk, critic
    head, (regressor trunk when unshared), regressor head; within a
    network, layer by layer, weight then bias.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cfg = asdict(model.config)
    cfg["gen_hidden"] = list(cfg["gen_hidden"])
    header = {
        "format_version": _FORMAT_VERSION,
        "n_features": model.n_features,
        "columns": list(model.columns),
        "label_name": model.label_name,
        "config": cfg,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    parts = [_MAGIC, struct.pack("<II", _FORMAT_VERSION, len(blob)), blob]
    for _, net in _layer_blocks(model):
        for w, b in net.layers:
            parts.append(np.ascontiguousarray(w.value, dtype="<f8").tobytes())
            parts.append(np.ascontiguousarray(b.value, dtype="<f8").tobytes())
    body = b"".join(parts)
    path.write_bytes(body + _digest(body))


def load_checkpoint(path) -> tuple[RganModel, dict]:
    """Rebuild a model; any unreadable, malformed or corrupted file is a ContractError.

    The sizes are checked before the digest, so a short file reads as
    truncated and a long one as having trailing bytes.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as err:
        raise ContractError(f"{path}: cannot read checkpoint: {err.strerror}") from None
    if raw[:8] != _MAGIC:
        raise ContractError(f"{path}: not a model checkpoint")
    if len(raw) < 16:
        raise ContractError(f"{path}: truncated checkpoint header")
    version, hlen = struct.unpack("<II", raw[8:16])
    if version != _FORMAT_VERSION:
        raise ContractError(
            f"{path}: format version {version}, expected {_FORMAT_VERSION}")
    try:
        header = json.loads(raw[16:16 + hlen].decode())
        cfg_dict = dict(header["config"])
        cfg_dict["gen_hidden"] = tuple(cfg_dict["gen_hidden"])
        model = RganModel(header["n_features"], GanConfig(**cfg_dict), SeededRng(0),
                          columns=tuple(header["columns"]),
                          label_name=header["label_name"])
    except (ValueError, KeyError, TypeError, SoftaugError) as err:
        # ValueError covers bad JSON and bad UTF-8
        raise ContractError(
            f"{path}: malformed checkpoint header ({type(err).__name__}: {err})") from None
    offset = 16 + hlen
    for name, net in _layer_blocks(model):
        for li, (w, b) in enumerate(net.layers):
            for tensor in (w, b):
                count = tensor.value.size
                end = offset + count * 8
                if end > len(raw):
                    raise ContractError(
                        f"{path}: truncated parameter block in {name} layer {li}")
                block = np.frombuffer(raw[offset:end], dtype="<f8")
                tensor.value = block.reshape(tensor.value.shape).astype(np.float64)
                offset = end
    digest_at = len(raw) - _DIGEST_SIZE
    if offset > digest_at:
        raise ContractError(f"{path}: truncated checkpoint digest")
    if offset < digest_at:
        raise ContractError(
            f"{path}: {digest_at - offset} trailing bytes; dimensions do not match")
    if raw[digest_at:] != _digest(raw[:digest_at]):
        raise ContractError(f"{path}: digest mismatch; the checkpoint is corrupted")
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise ContractError(f"{path}: malformed checkpoint header (extra is not an object)")
    return model, extra
