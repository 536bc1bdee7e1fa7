"""The benchmark's workloads: inputs built from a seed, one operation each.

An operation is one call of a public softaug entry point. Every operation
of a run uses the same config, so a run repeats identical work and its
artifacts must come out byte-identical.

Why these three (shares of traced time are in README.md):

* pipeline    - `run_pipeline` with the default config except for fewer GAN
                iterations. GAN training (rgan, autodiff, optim) is most of
                the time, so a faster training step shows here.
* select-wide - `run_pipeline` on a 10-feature CSV table the benchmark
                writes itself: a 1,000-row pool and an 80-row budget, with
                little GAN training. Active selection is most of the time
                and its (pool, pool, features) temporaries set peak memory.
                It is also the only workload that reads a CSV.
* ablate      - `run_ablation` on a reduced sinusoid-2d config. Five
                pipelines per call: three active arms with identical
                selection inputs, two random-subset arms, one unshared
                trunk, and downstream MLP fits on every arm.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from softaug import ExperimentConfig, GanConfig, harness

PIPELINE_ITERATIONS = 300

WIDE_FEATURES = 10
WIDE_POOL = 800
WIDE_TEST = 200
WIDE_BUDGET = 80
WIDE_NOISE_SD = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                                   # "run_pipeline" or "run_ablation"
    build: Callable[[int, Path], ExperimentConfig]

    def operation(self, cfg: ExperimentConfig, out_dir: Path):
        """One call of the entry point, looked up at call time so wrappers see it."""
        return getattr(harness, self.entry)(cfg, out_dir=out_dir)


def _pipeline(seed: int, inputs: Path) -> ExperimentConfig:
    return ExperimentConfig(gan=GanConfig(iterations=PIPELINE_ITERATIONS), seed=seed)


def wide_table(seed: int, rows: int = WIDE_POOL + WIDE_TEST) -> tuple[np.ndarray, np.ndarray]:
    """Friedman #1 on U(0,1)^10 (five inputs carry signal) plus Gaussian noise."""
    rng = np.random.default_rng([seed, 0x5E1EC7])
    x = rng.uniform(size=(rows, WIDE_FEATURES))
    y = (10.0 * np.sin(np.pi * x[:, 0] * x[:, 1]) + 20.0 * (x[:, 2] - 0.5) ** 2
         + 10.0 * x[:, 3] + 5.0 * x[:, 4])
    return x, y + WIDE_NOISE_SD * rng.standard_normal(len(y))


def write_wide_table(seed: int, path: Path, rows: int = WIDE_POOL + WIDE_TEST) -> None:
    x, y = wide_table(seed, rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(WIDE_FEATURES)] + ["y"]) + "\n")
        for row, label in zip(x, y):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{label:.17g}\n")


def _select_wide(seed: int, inputs: Path) -> ExperimentConfig:
    path = inputs / "wide.csv"
    write_wide_table(seed, path)
    return ExperimentConfig(
        source="csv", csv_path=str(path), label_column="y",
        test_count=WIDE_TEST, train_count=WIDE_BUDGET,
        gan=GanConfig(iterations=20, pretrain_epochs=50),
        models=("kernel-ridge", "mlp"), mlp_epochs=50, seed=seed)


def _ablate(seed: int, inputs: Path) -> ExperimentConfig:
    return ExperimentConfig(
        dataset_n=600, train_count=40, generated_count=300, mlp_epochs=200,
        gan=GanConfig(iterations=50, pretrain_epochs=100), seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("pipeline", "run_pipeline", _pipeline),
    Workload("select-wide", "run_pipeline", _select_wide),
    Workload("ablate", "run_ablation", _ablate),
)}

