"""Per-layer spans around softaug's public functions, from outside `src/`.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded softaug module that holds it (functions are imported by name
across modules, so patching only the defining module would miss calls),
and each traced method on its class. `uninstall()` puts the originals
back. Spans nest: a span's self time is its duration minus the durations
of the traced spans it directly encloses. Spans stay in memory; the
worker turns them into per-operation metrics with `layer_metrics`.

The layers are softaug's modules. The metric names and what each should
move are listed in README.md.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

import softaug
from softaug import active, autodiff, data, harness, optim, quality, regress, rgan

# (module, attribute) -> span name; a dotted attribute is a method
TRACED = {
    (harness, "run_pipeline"): "harness.run_pipeline",
    (harness, "run_ablation"): "harness.run_ablation",
    (harness, "write_csv"): "harness.write_csv",
    (harness, "RunManifest.to_json"): "harness.manifest_json",
    (data, "load_csv"): "data.load_csv",
    (data, "synth_make"): "data.synth_make",
    (data, "split"): "data.split",
    (data, "fit_normalizer"): "data.fit_normalizer",
    (data, "apply_normalizer"): "data.apply_normalizer",
    (data, "save_csv"): "data.save_csv",
    (active, "run_active_selection"): "active.run_active_selection",
    (active, "choose_k"): "active.choose_k",
    (active, "kmeans"): "active.kmeans",
    (active, "silhouette_mean"): "active.silhouette_mean",
    (active, "igs_score"): "active.igs_score",
    (rgan, "train"): "rgan.train",
    (rgan, "pretrain_regressor"): "rgan.pretrain_regressor",
    (rgan, "critic_regressor_loss"): "rgan.critic_regressor_loss",
    (rgan, "generator_loss"): "rgan.generator_loss",
    (rgan, "generate"): "rgan.generate",
    (rgan, "save_checkpoint"): "rgan.save_checkpoint",
    (autodiff, "grad_values"): "autodiff.grad_values",
    (optim, "Adam.step"): "optim.adam_step",
    (quality, "select_best_batch"): "quality.select_best_batch",
    (quality, "mmd2"): "quality.mmd2",
    (quality, "diversity_score"): "quality.diversity_score",
    (regress, "fit"): "regress.fit",
    (regress, "KernelRidgeRegressor.fit"): "regress.krr_fit",
    (regress, "MlpRegressor.fit"): "regress.mlp_fit",
}

ARTIFACT_SPANS = ("harness.write_csv", "harness.manifest_json", "data.save_csv",
                  "rgan.save_checkpoint")
PREPARE_SPANS = ("data.load_csv", "data.synth_make", "data.split",
                 "data.fit_normalizer", "data.apply_normalizer")
# (pool, pool, features) float64 temporaries: igs_score(state, pool) and
# silhouette_mean(points, ...) each build one per call
DIST_ARG = {"active.igs_score": 1, "active.silhouette_mean": 0}


@dataclass
class Stats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class OpRecord:
    """Everything the spans of one operation add up to."""
    stats: dict = field(default_factory=lambda: defaultdict(Stats))
    backward_under_train: list = field(default_factory=lambda: [0, 0.0])
    krr_fits_in_quality: int = 0
    gan_iterations: int = 0
    dist_bytes: int = 0


class Tracer:
    def __init__(self):
        self.op = OpRecord()
        self._stack: list[list] = []           # [name, child seconds]
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    # ---------------------------------------------------------- patching
    def install(self) -> None:
        for (module, attr), name in TRACED.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "softaug" or mod_name.startswith("softaug."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _wrap(self, fn, name):
        tracer = self
        dist_arg = DIST_ARG.get(name)

        def traced(*args, **kwargs):
            op = tracer.op
            if dist_arg is not None:
                m, d = np.shape(args[dist_arg])
                op.dist_bytes += 8 * m * m * d
            elif name == "rgan.train":
                op.gan_iterations += args[1].iterations
            elif name == "regress.krr_fit" and tracer._active["quality"]:
                op.krr_fits_in_quality += 1
            layer = name.split(".")[0]
            tracer._stack.append([name, 0.0])
            tracer._active[layer] += 1
            tracer._active[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer._active[layer] -= 1
                tracer._active[name] -= 1
                _, child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                s = op.stats[name]
                s.calls += 1
                s.seconds += dur
                s.self_seconds += dur - child
                if name == "autodiff.grad_values" and tracer._active["rgan.train"]:
                    op.backward_under_train[0] += 1
                    op.backward_under_train[1] += dur

        traced.__wrapped__ = fn
        return traced

    def next_op(self) -> OpRecord:
        done, self.op = self.op, OpRecord()
        return done


# ----------------------------------------------------------- the metrics

COUNTS = ("data.prepare_calls", "active.select_calls", "active.kmeans_calls",
          "active.igs_score_calls", "active.dist_bytes", "optim.adam_steps",
          "quality.krr_fits")


def op_metrics(op: OpRecord) -> dict[str, float]:
    """The per-layer metrics of one operation."""
    st = op.stats

    def sec(*names):
        return sum(st[n].seconds for n in names)

    def calls(*names):
        return sum(st[n].calls for n in names)

    def per_call(name, scale):
        return scale * st[name].seconds / st[name].calls if st[name].calls else 0.0

    train_s, pretrain_s = sec("rgan.train"), sec("rgan.pretrain_regressor")
    loop_s = train_s - pretrain_s
    n_back, back_s = op.backward_under_train
    return {
        "harness.self_s": (st["harness.run_pipeline"].self_seconds
                           + st["harness.run_ablation"].self_seconds),
        "harness.artifact_write_s": sec(*ARTIFACT_SPANS),
        "data.prepare_s": sec(*PREPARE_SPANS),
        "data.prepare_calls": calls("data.load_csv", "data.synth_make"),
        "active.select_s": sec("active.run_active_selection"),
        "active.select_calls": calls("active.run_active_selection"),
        "active.choose_k_s": sec("active.choose_k"),
        "active.kmeans_calls": calls("active.kmeans"),
        "active.igs_score_s": sec("active.igs_score"),
        "active.igs_score_calls": calls("active.igs_score"),
        "active.dist_bytes": op.dist_bytes,
        "rgan.train_s": train_s,
        "rgan.iters_per_s": op.gan_iterations / loop_s if loop_s > 0 else 0.0,
        "rgan.pretrain_s": pretrain_s,
        "rgan.critic_loss_ms": per_call("rgan.critic_regressor_loss", 1e3),
        "rgan.generator_loss_ms": per_call("rgan.generator_loss", 1e3),
        "rgan.generate_s": sec("rgan.generate"),
        "autodiff.backward_ms": 1e3 * back_s / n_back if n_back else 0.0,
        "optim.adam_step_us": per_call("optim.adam_step", 1e6),
        "optim.adam_steps": calls("optim.adam_step"),
        "quality.select_best_s": sec("quality.select_best_batch"),
        "quality.mmd2_s": sec("quality.mmd2"),
        "quality.diversity_s": sec("quality.diversity_score"),
        "quality.krr_fits": op.krr_fits_in_quality,
        "regress.downstream_fit_s": sec("regress.fit"),
        "regress.mlp_fit_s": sec("regress.mlp_fit"),
        "regress.krr_fit_s": sec("regress.krr_fit"),
    }


def layer_metrics(ops: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median over operations; counts must repeat exactly across them."""
    errors = [f"{name} differs across operations: {[o[name] for o in ops]}"
              for name in COUNTS if len({o[name] for o in ops}) != 1]
    return {name: ops[0][name] if name in COUNTS else statistics.median(o[name] for o in ops)
            for name in ops[0]}, errors


# ------------------------------------------------------- graph node counts

def _count_train_nodes(gan_cfg, n_features: int) -> int:
    """Tensor nodes built by one `train` call on a fixed 16-row dataset."""
    count = [0]
    orig_init = autodiff.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        orig_init(self, *args, **kwargs)

    grid = np.linspace(0.0, 1.0, 16)
    x = np.stack([np.roll(grid, j) for j in range(n_features)], axis=1)
    ds = softaug.TabularDataset(x, grid[::-1], tuple(f"x{j + 1}" for j in range(n_features)))
    autodiff.Tensor.__init__ = counting_init
    try:
        rgan.train(ds, gan_cfg, seed=0)
    finally:
        autodiff.Tensor.__init__ = orig_init
    return count[0]


def node_counts(gan_cfg, n_features: int) -> dict[str, int]:
    """Exact autodiff nodes per GAN iteration and per critic step.

    Differences of whole `train` calls with pretraining off: one more
    iteration, and one more critic step in a single iteration. Counting
    every node inflates traced time, so this runs apart from the ops.
    """
    base = replace(gan_cfg, pretrain_epochs=0, iterations=1)
    one = _count_train_nodes(base, n_features)
    two = _count_train_nodes(replace(base, iterations=2), n_features)
    more = _count_train_nodes(replace(base, n_critic=base.n_critic + 1), n_features)
    return {"autodiff.nodes_per_iteration": two - one,
            "autodiff.nodes_per_critic_step": more - one}
