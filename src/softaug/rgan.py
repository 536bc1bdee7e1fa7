"""Regression-aware Wasserstein GAN for joint [x, y] tabular rows.

Architecture: a generator maps noise to sigmoid-bounded joint rows; a
shallow trunk embeds x; a critic head scores trunk(x) joined with y; a
regressor head predicts y from trunk(x). With trunk sharing on (the
default) the critic and regressor use the same trunk object, so the
regression residuals shape the features the critic sees. With sharing
off the regressor keeps an independent copy of the trunk and is frozen
after pretraining.

Both steps take batches of N joint (d + 1)-column rows. The critic step
lays its fake, real and interpolated batches into one (3, N, d + 1) stack
and tapes one critic pass over it; the generator step stacks its fake and
real batches for the regressor. Each matmul of a pass still forms one
batch's product, so it rounds exactly as a pass over that batch alone,
and every other operation runs once over the stack. Losses, each
differentiated by hand but for the generator:
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

import functools
import hashlib
import json
import struct
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TabularDataset
from .errors import ConfigError, ContractError, DivergenceError, ShapeError, SoftaugError
from .layers import _backward, _weight_grads, init_mlp, sum_rows
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

def _batch_rows(model: RganModel, **arrays) -> int:
    """The one row count of a batch: a ShapeError names joint rows not (n, d + 1) or a
    `mu` not (n, 1), a ContractError names two arrays whose row counts differ."""
    widths = {"real": model.n_features + 1, "fake": model.n_features + 1, "mu": 1}
    (first, a), *_ = arrays.items()
    for name, b in arrays.items():
        if name in widths and b.shape[1:] != (widths[name],):
            raise ShapeError(f"{name} has shape {b.shape}, expected ({len(b)}, {widths[name]})")
        if len(b) != len(a):
            raise ContractError(f"row counts differ: {first} has {len(a)}, {name} has {len(b)}")
    return len(a)


@functools.lru_cache(maxsize=16)
def _seeds(n: int) -> np.ndarray:
    """The read-only (3, n, 1) stack of the gradients at the scores of an n-row batch,
    each a stride-0 column as the recorded graph seeds it: 1/n (the fake mean),
    -1/n (the real mean; the generator's fake mean) and 1 (the penalty's score sum)."""
    return np.broadcast_to(np.array([1.0 / n, -1.0 / n, 1.0]).reshape(3, 1, 1), (3, n, 1))


def _penalty(model: RganModel, inputs: list, masks: list, g: np.ndarray, seed: np.ndarray):
    """Sum over rows of (|d score / d interp| - 1)^2, and its weight gradients.

    `g` is the critic's input gradient at the interpolates, `inputs` the
    matrix each layer's input-gradient matmul took (trunk layers first) and
    `masks` their leaky masks, on the interpolates' rows. `seed` is the
    (1, 1) gradient at the sum. The masks are constants, so the gradient
    reaches only the critic's weight matrices: one `(inputs[i].T @ G).T` per layer.
    """
    d = model.n_features
    weights = [w.value for w, _ in model.critic_trunk.layers + model.critic_head.layers]
    first_head = len(model.critic_trunk.layers)
    sq_norm = (g * g).sum(axis=1, keepdims=True) + 1e-24
    excess = sq_norm ** 0.5 + -1.0
    total = sum_rows(excess * excess)

    gg = seed * (excess * 2.0)
    gg = ((gg * (sq_norm ** -0.5)) * 0.5) * (g * 2.0)
    pieces = []
    G = gg[:, 0:d]
    for i in range(len(weights)):
        if i == first_head:
            # the label piece is a product, so possibly -0.0 where the graph's padded add
            # gives +0.0; G only enters matmuls, which sum either zero alike
            G = np.concatenate([G, gg[:, d:d + 1]], axis=1)
        pieces.append((inputs[i].T @ G).T)
        if i + 1 < len(weights):
            G = G @ weights[i]
            if masks[i] is not None:
                G = G * masks[i]
    return total, pieces


def critic_regressor_loss(model: RganModel, real: np.ndarray, fake: np.ndarray,
                          mu: np.ndarray, config: GanConfig):
    """Joint critic(+regressor) objective on joint rows: (gradients, float parts).

    `mu` weighs the real rows in the interpolates. The gradients follow
    `critic_step_params()`. They are derived by hand and repeat the backward
    pass of the recorded objective operation by operation (tests/ keep that
    graph as the oracle), so they are bit-identical to it. The fake, real and
    interpolated rows form one (3, n, d + 1) stack: each matmul forms one
    batch's product, every other operation runs once over the stack. Each
    parameter sums its pieces left to right in the order fake score, real
    score, penalty, regression on fake rows, regression on real rows.
    """
    n, d = _batch_rows(model, real=real, fake=fake, mu=mu), model.n_features
    trunk, head = model.critic_trunk, model.critic_head
    penalized = config.gp_weight != 0.0
    rows = np.empty((3 if penalized else 2, n, d + 1))
    rows[0], rows[1] = fake, real
    if penalized:
        np.multiply(mu, real, out=rows[2])
        rows[2] += (1.0 - mu) * fake
    trunk_tape, head_tape = [], []
    h = trunk.forward_values(rows[..., 0:d], trunk_tape)
    score = head.forward_values(np.concatenate([h, rows[..., d:]], axis=2), head_tape)
    mean_fake, mean_real = sum_rows(score[:2]) * (1.0 / n)
    loss = mean_fake - mean_real
    parts = {"wasserstein": float(mean_real[0, 0]) - float(mean_fake[0, 0])}

    head_gs, g = _backward(head, head_tape, _seeds(n)[:len(rows)])
    width = h.shape[2]
    trunk_gs = _backward(trunk, trunk_tape, g[..., 0:width], need_input=False)[0]
    grads = [a[0] + a[1] for a in _weight_grads(trunk_tape, [a[:2] for a in trunk_gs])
             + _weight_grads(head_tape, [a[:2] for a in head_gs])]

    if penalized:
        taped, at_outputs = trunk_tape + head_tape, trunk_gs + head_gs
        g_x = trunk_gs[0][2] @ trunk.layers[0][0].value.T
        pen, pieces = _penalty(model, [a[2] for a in at_outputs],
                               [None if m is None else m[2] for _, m in taped],
                               np.concatenate([g_x, g[2, :, width:width + 1]], axis=1),
                               np.ones((1, 1)) * (config.gp_weight / n))
        loss = loss + pen * (config.gp_weight / n)
        parts["penalty"] = float(pen[0, 0]) / n
        for i, piece in zip(range(0, len(grads), 2), pieces):
            grads[i] = grads[i] + piece
    else:
        parts["penalty"] = 0.0

    if config.critic_reg_weight != 0.0:
        shared = model.config.share_trunk
        features = h[:2] if shared else model.regressor_trunk.forward_values(rows[:2, :, 0:d])
        reg_tape = []
        r = model.regressor_head.forward_values(features, reg_tape) - rows[:2, :, d:d + 1]
        r_fake, r_real = sum_rows(r * r)
        reg = (r_fake + r_real) * (1.0 / n)
        loss = loss + reg * config.critic_reg_weight
        parts["regression"] = float(reg[0, 0])
        if shared:
            g = ((np.ones((1, 1)) * config.critic_reg_weight) * (1.0 / n)) * (r * 2.0)
            reg_gs, g = _backward(model.regressor_head, reg_tape, g)
            trunk_gs = _backward(trunk, trunk_tape, g, need_input=False)[0]
            for i, (fake_piece, real_piece) in enumerate(_weight_grads(trunk_tape, trunk_gs)):
                grads[i] = (grads[i] + fake_piece) + real_piece
            grads += [a[0] + a[1] for a in _weight_grads(reg_tape, reg_gs)]
    else:
        parts["regression"] = float("nan")

    parts["loss"] = float(loss[0, 0])
    params = model.critic_step_params()
    return grads + [np.zeros(p.shape) for p in params[len(grads):]], parts


def generator_loss(model: RganModel, noise: np.ndarray, real: np.ndarray,
                   config: GanConfig):
    """Adversarial + regression-consistency generator objective: (gradients, float parts).

    Only the generator is recorded; the rest of the backward repeats the recorded
    objective's by hand (tests/ keep it as the oracle), so it is bit-identical.
    With the regression term on, the fake and real rows pass the regressor,
    and a shared trunk, as one (2, n, d + 1) stack.
    """
    n, d = _batch_rows(model, noise=noise, real=real), model.n_features
    trunk, head = model.critic_trunk, model.critic_head
    out = model.generator.forward(Tensor(noise))
    fake = out.value
    regress = config.gen_reg_weight != 0.0
    rows = np.stack([fake, real]) if regress else fake[None]
    trunk_tape, head_tape = [], []
    h = trunk.forward_values((rows if model.config.share_trunk else rows[:1])[..., 0:d],
                             trunk_tape)
    score = head.forward_values(np.concatenate([h[0], fake[:, d:]], axis=1), head_tape)
    loss = (sum_rows(score) * (1.0 / n)) * -1.0
    parts = {"adversarial": float(loss[0, 0]), "regression": float("nan")}
    g = _backward(head, head_tape, _seeds(n)[1])[1]
    g_x = _backward(trunk, trunk_tape, g[None, :, :-1])[1][0]
    g_y = g[:, -1:]

    if regress:
        if not model.config.share_trunk:
            trunk, trunk_tape = model.regressor_trunk, []
            h = trunk.forward_values(rows[..., 0:d], trunk_tape)
        reg_tape = []
        r = model.regressor_head.forward_values(h, reg_tape) - rows[..., d:d + 1]
        r_fake, r_real = sum_rows(r * r)
        reg = (r_fake + r_real) * (1.0 / n)
        loss = loss + reg * config.gen_reg_weight
        parts["regression"] = float(reg[0, 0])
        g_r = ((np.ones((1, 1)) * config.gen_reg_weight) * (1.0 / n)) * (r[:1] * 2.0)
        g = _backward(model.regressor_head, reg_tape, g_r)[1]
        g_x = g_x + _backward(trunk, trunk_tape, g)[1][0]
        g_y = g_y + g_r[0] * -1.0

    parts["loss"] = float(loss[0, 0])
    # the graph's seed is 1.0 * g_out, the sum of the slices' zero-padded pieces; both
    # pieces come out of matmuls, never -0.0, so padding and adding changes no bit
    g_out = np.concatenate([g_x, g_y], axis=1)
    return ad.grad_values(ad.sum_all(ad.mul(out, Tensor(g_out))), model.generator_params()), parts


# ----------------------------------------------------------------- training

@dataclass
class TrainTrace:
    pretrain_mse: list[float]
    iteration: list[int]
    critic_loss: list[float]
    generator_loss: list[float]
    regression_loss: list[float]
    wasserstein: list[float]
    penalty: list[float]

    @staticmethod
    def empty() -> "TrainTrace":
        return TrainTrace([], [], [], [], [], [], [])

    def numeric_rows(self) -> list[tuple]:
        return list(zip(self.iteration, self.critic_loss, self.generator_loss,
                        self.regression_loss, self.wasserstein, self.penalty))


def pretrain_regressor(model: RganModel, train: TabularDataset,
                       config: GanConfig) -> list[float]:
    """Full-batch Adam on the real-sample MSE; one epoch = one update.

    Returns the per-epoch MSE history (value before each update). Runs in
    every mode; in unshared mode it touches only the regressor's own trunk.
    """
    lr = config.pretrain_lr if config.pretrain_lr is not None else config.learning_rate
    return fit_mse([model.regressor_trunk, model.regressor_head],
                   train.features, train.labels.reshape(-1, 1),
                   config.pretrain_epochs, lr)


# divergence overflows before the loss or Adam's gradient check refuses it
@np.errstate(over="ignore", invalid="ignore")
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

    rows = train_ds.joint()
    adam_c = Adam(model.critic_step_params(), config.learning_rate)
    adam_g = Adam(model.generator_params(), config.learning_rate)

    for it in range(config.iterations):
        parts = {}
        try:
            for _ in range(config.n_critic):
                idx = rng.integers(0, len(rows), config.batch_size)
                z = gaussian_noise(config.batch_size, config.noise_dim, rng)
                fake = model.generator.forward_values(z)
                mu = rng.uniform(config.batch_size, 1)
                grads, parts = critic_regressor_loss(model, rows[idx], fake, mu, config)
                if not np.isfinite(parts["loss"]):
                    raise DivergenceError(f"non-finite critic loss at iteration {it}")
                adam_c.step(grads)
            z = gaussian_noise(config.batch_size, config.noise_dim, rng)
            idx = rng.integers(0, len(rows), config.batch_size)
            ggrads, gparts = generator_loss(model, z, rows[idx], config)
            if not np.isfinite(gparts["loss"]):
                raise DivergenceError(f"non-finite generator loss at iteration {it}")
            adam_g.step(ggrads)
        except DivergenceError as err:
            err.trace = trace
            raise
        trace.iteration.append(it)
        trace.critic_loss.append(parts["loss"])
        trace.generator_loss.append(gparts["loss"])
        trace.regression_loss.append(parts["regression"])
        trace.wasserstein.append(parts["wasserstein"])
        trace.penalty.append(parts["penalty"])
    return model, trace


def generate(model: RganModel, n: int, seed: int) -> TabularDataset:
    """n joint rows from the generator; rows are a prefix-stable stream.

    The noise block is drawn row-contiguously from the seeded stream, so
    generate(model, 100, s) equals the first 100 rows of
    generate(model, 1000, s) bit-for-bit.
    """
    d = model.n_features
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
