"""Acceptance gate: ten numbered end-to-end checks, one printed line each.

Each test recomputes its claim from scratch (independent oracles, literal
re-implementations, or direct runs) and prints a single summary line to the
real stdout so the gate's verdicts are visible in any runner.
"""
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import (brute_force_greedy, central_difference, kink_safe_seed,
                      leaky_margin, max_relative_error)

from softaug import (ExperimentConfig, GanConfig, RganModel, SeededRng,
                     generate, run_pipeline, train)
from softaug.active import init_select, kmeans, run_active_selection
from softaug.data import (TabularDataset, apply_normalizer, fit_normalizer,
                          invert_normalizer, synth_make, synth_truth)
from softaug.layers import SLOPE
from softaug.quality import diversity_score, mmd2
from softaug.rgan import critic_regressor_loss, generator_loss
from softaug.rng import derive_seed, gaussian_noise


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    """Let _report write through pytest's capture to the real stdout."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {name}{tail}"
    with _CAPSYS.disabled():
        print(line, file=sys.__stdout__, flush=True)


# --------------------------------------------------------------- 1: gradients

def _toy_config(**overrides):
    base = dict(noise_dim=4, n_critic=2, batch_size=4, iterations=1,
                pretrain_epochs=0, trunk_width=8, gen_hidden=(8,),
                critic_hidden=8, regressor_hidden=4, gp_weight=0.5)
    base.update(overrides)
    return GanConfig(**base)


def _toy_batch(seed, n=4, d=2, noise_dim=4):
    """Joint real rows, joint fake rows, an (n, 1) mu and generator noise."""
    rng = np.random.default_rng(seed)
    real = np.hstack([rng.uniform(size=(n, d)), rng.uniform(size=(n, 1))])
    fake = np.hstack([rng.uniform(size=(n, d)), rng.uniform(size=(n, 1))])
    return real, fake, rng.uniform(size=(n, 1)), rng.normal(size=(n, noise_dim))


def _clear_of_kinks(cfg, seed, margin=1e-3):
    """Every leaky pre-activation on every loss path stays off its kink."""
    model = RganModel(2, cfg, SeededRng(1000 + seed))
    real, fake, mu, noise = _toy_batch(seed)
    inputs = [(model.generator, noise)]
    for rows in (real, fake, mu * real + (1.0 - mu) * fake,
                 model.generator.forward_values(noise)):
        h = model.critic_trunk.forward_values(rows[:, :2])
        inputs += [(model.critic_trunk, rows[:, :2]),
                   (model.critic_head, np.hstack([h, rows[:, 2:]])),
                   (model.regressor_head, h)]
    return all(leaky_margin(net, x, margin) for net, x in inputs)


def test_criterion_01_loss_gradients_match_finite_differences():
    t0 = time.perf_counter()
    cfg = _toy_config()
    worst = 0.0
    start = 0
    for _ in range(3):
        seed = kink_safe_seed(lambda s: _clear_of_kinks(cfg, s), start)
        start = seed + 1
        real, fake, mu, noise = _toy_batch(seed)

        shared = RganModel(2, cfg, SeededRng(1000 + seed))
        grads, _ = critic_regressor_loss(shared, real, fake, mu, cfg)
        numeric = central_difference(
            lambda: critic_regressor_loss(shared, real, fake, mu, cfg)[1]["loss"],
            shared.critic_step_params())
        worst = max(worst, max_relative_error(grads, numeric))

        ggrads, _ = generator_loss(shared, noise, real, cfg)
        numeric = central_difference(
            lambda: generator_loss(shared, noise, real, cfg)[1]["loss"],
            shared.generator_params())
        worst = max(worst, max_relative_error(ggrads, numeric))

        plain_cfg = cfg.wgan_gp_mode()
        plain = RganModel(2, plain_cfg, SeededRng(1000 + seed))
        cgrads, _ = critic_regressor_loss(plain, real, fake, mu, plain_cfg)
        numeric = central_difference(
            lambda: critic_regressor_loss(plain, real, fake, mu, plain_cfg)[1]["loss"],
            plain.critic_step_params())
        worst = max(worst, max_relative_error(cgrads, numeric))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(1, "loss gradients match finite differences", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok, f"worst={worst}, elapsed={elapsed}"


# ----------------------------------------------- 2: plain-adversarial parity

def _independent_wgan_loss(model, real_x, real_y, fake_x, fake_y, mu, beta):
    """Plain-numpy critic loss: score means, interpolates, penalty."""
    s = SLOPE
    d = model.n_features
    width = model.config.trunk_width
    ((tw, tb),) = model.critic_trunk.layers
    (w1, b1), (w2, b2) = model.critic_head.layers

    def leaky(z):
        return np.where(z > 0.0, z, s * z)

    def dleaky(z):
        return np.where(z > 0.0, 1.0, s)

    def score(x, y):
        h = leaky(x @ tw.value + tb.value)
        z2 = np.hstack([h, y.reshape(-1, 1)]) @ w1.value + b1.value
        return leaky(z2) @ w2.value + b2.value

    n = real_x.shape[0]
    d_real = float(score(real_x, real_y).mean())
    d_fake = float(score(fake_x, fake_y).mean())

    joint = mu * np.hstack([real_x, real_y.reshape(-1, 1)]) \
        + (1.0 - mu) * np.hstack([fake_x, fake_y.reshape(-1, 1)])
    z1 = joint[:, :d] @ tw.value + tb.value
    z2 = np.hstack([leaky(z1), joint[:, d:]]) @ w1.value + b1.value
    g_z2 = dleaky(z2) * w2.value.ravel()[None, :]
    g_cat = g_z2 @ w1.value.T
    g_x = (dleaky(z1) * g_cat[:, :width]) @ tw.value.T
    grad = np.hstack([g_x, g_cat[:, width:]])
    norms = np.sqrt(np.sum(grad ** 2, axis=1))
    return -d_real + d_fake + beta / n * float(np.sum((norms - 1.0) ** 2))


def test_criterion_02_plain_adversarial_loss_parity():
    worst = 0.0
    for seed in range(20):
        cfg = _toy_config(gp_weight=0.5 + 0.1 * seed).wgan_gp_mode()
        model = RganModel(3, cfg, SeededRng(300 + seed))
        rng = np.random.default_rng(400 + seed)
        rx, ry = rng.uniform(size=(6, 3)), rng.uniform(size=6)
        fx, fy = rng.uniform(size=(6, 3)), rng.uniform(size=6)
        mu = rng.uniform(size=(6, 1))
        real, fake = np.hstack([rx, ry[:, None]]), np.hstack([fx, fy[:, None]])
        _, parts = critic_regressor_loss(model, real, fake, mu, cfg)
        want = _independent_wgan_loss(model, rx, ry, fx, fy, mu, cfg.gp_weight)
        worst = max(worst, abs(parts["loss"] - want))
    ok = worst < 1e-10
    _report(2, "critic loss equals independent plain-adversarial oracle", ok,
            f"max |diff| {worst:.2e} over 20 batches")
    assert ok, worst


# ----------------------------------------------------- 3: acquisition oracle

def test_criterion_03_acquisition_matches_brute_force():
    t0 = time.perf_counter()
    cases = [(12, 1, 2, 6), (16, 2, 3, 8), (20, 2, 3, 10), (23, 3, 4, 9),
             (25, 2, 2, 12)]
    all_match = True
    for k, (n, d, k_init, total) in enumerate(cases):
        rng = np.random.default_rng(500 + k)
        pool = TabularDataset(rng.uniform(size=(n, d)), rng.uniform(size=n),
                              tuple(f"x{j+1}" for j in range(d)), "y", "real")
        clusters = kmeans(pool.features, k_init, derive_seed(k, "kmeans"))
        initial = init_select(pool.features, clusters)
        _, records = run_active_selection(pool, total, seed=k, initial=k_init)
        want = brute_force_greedy(pool, initial, total)
        all_match = all_match and [r.index for r in records] == want
    elapsed = time.perf_counter() - t0
    ok = all_match and elapsed < 10.0
    _report(3, "acquisition sequence matches brute-force greedy oracle", ok,
            f"5 pools, {elapsed:.2f}s")
    assert ok


# ----------------------------------------------------------- 4: mmd analytic

def test_criterion_04_mmd_analytic_and_ordering():
    bandwidth = 1.0
    analytic = abs(mmd2(np.array([0.0]), np.array([1.0]), bandwidth)
                   - (2.0 - 2.0 * np.exp(-0.5)))
    a = np.random.default_rng(600).uniform(size=(30, 3))
    self_mmd = mmd2(a, a.copy(), bandwidth)
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(700 + trial)
        x = rng.normal(size=(50, 2))
        same = rng.normal(size=(50, 2))
        shifted = rng.normal(size=(50, 2)) + 1.0
        hits += mmd2(x, shifted, bandwidth) > mmd2(x, same, bandwidth)
    ok = analytic <= 1e-9 and self_mmd <= 1e-12 and hits >= 95
    _report(4, "squared-discrepancy analytic value, self-zero and ordering", ok,
            f"analytic err {analytic:.1e}, self {self_mmd:.1e}, ordering {hits}/100")
    assert ok, (analytic, self_mmd, hits)


# ------------------------------------------------------- 5: cross-fit scores

class _ConstantMean:
    def __init__(self, mean):
        self.mean = mean

    def predict(self, x):
        return np.full(x.shape[0], self.mean)


def test_criterion_05_cross_fit_hand_case_and_mode_collapse():
    x = np.arange(4, dtype=float).reshape(-1, 1)
    real = TabularDataset(x, np.full(4, 0.4), ("x1",), "y", "real")
    gen = TabularDataset(x, np.full(4, 0.6), ("x1",), "y", "generated")
    s = diversity_score(real, gen, folds=2,
                        factory=lambda fx, fy: _ConstantMean(float(np.mean(fy))))
    hand_err = abs(s - 1.6)

    wins = 0
    for seed in range(10):
        train_set = synth_make("sinusoid-2d", 40, 0.0, derive_seed(seed, "real"))
        diverse = replace(synth_make("sinusoid-2d", 40, 0.0, derive_seed(seed, "fresh")),
                          provenance="generated")
        collapsed = TabularDataset(
            np.tile(train_set.features[:1], (40, 1)),
            np.full(40, float(train_set.labels[0])),
            train_set.columns, train_set.label_name, "generated")
        wins += (diversity_score(train_set, collapsed)
                 > diversity_score(train_set, diverse))
    ok = hand_err < 1e-12 and wins >= 8
    _report(5, "cross-fit hand value and mode-collapse ranking", ok,
            f"|S-1.6|={hand_err:.1e}, collapse worse in {wins}/10 seeds")
    assert ok, (hand_err, wins)


# ------------------------------------------- shared runs for 6, 8 and 9

def _paired_training_run(s):
    """One seed, two arms (full vs plain-adversarial), same budget."""
    gan = GanConfig(iterations=2000, learning_rate=1e-3, batch_size=32,
                    regressor_hidden=16, pretrain_epochs=800, pretrain_lr=1e-2,
                    gen_reg_weight=10.0)
    truth = synth_truth("sinusoid-2d")
    ds = synth_make("sinusoid-2d", 50, 0.0, derive_seed(s, "data"))
    norm = fit_normalizer(ds)
    ds_n = apply_normalizer(ds, norm)
    arms = {}
    for tag, cfg in (("full", gan), ("plain", gan.wgan_gp_mode())):
        t0 = time.perf_counter()
        model, trace = train(ds_n, cfg, seed=derive_seed(s, "gan"))
        seconds = time.perf_counter() - t0
        batch = invert_normalizer(
            generate(model, 500, derive_seed(s, "gen:0")), norm)
        arms[tag] = {
            "seconds": seconds,
            "wasserstein": np.asarray(trace.wasserstein),
            "median": float(np.median(np.abs(batch.labels
                                             - truth(batch.features)))),
        }
    return arms


@pytest.fixture(scope="module")
def paired_training_runs():
    """Ten seeds, two arms each, the seeds spread over up to two processes.

    Each run is seeded and its matrices are too small for BLAS threading,
    so the results are the ones a serial loop gives. Both arms of a seed
    share a process, which keeps the runtime ratio of criterion 09 fair.
    Spawned processes keep the parent's BLAS threads out of a fork.
    """
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(_paired_training_run, range(10)))


def test_criterion_06_generated_labels_track_the_target(paired_training_runs):
    wins = sum(r["full"]["median"] <= r["plain"]["median"]
               for r in paired_training_runs)
    reductions = [1.0 - r["full"]["median"] / r["plain"]["median"]
                  for r in paired_training_runs]
    median_reduction = float(np.median(reductions))
    total = sum(r[t]["seconds"] for r in paired_training_runs
                for t in ("full", "plain"))
    ok = wins >= 8 and median_reduction >= 0.20 and total < 900.0
    _report(6, "generated labels track the target function", ok,
            f"{wins}/10 wins, median reduction {100 * median_reduction:.0f}%, "
            f"{total:.0f}s")
    assert ok, (wins, median_reduction, total)


def test_criterion_08_training_converges_and_stays_stable(paired_training_runs):
    wins = 0
    for r in paired_training_runs:
        w = r["full"]["wasserstein"]
        head = float(np.mean(np.abs(w[:100])))
        tail = float(np.mean(np.abs(w[-100:])))
        quartile_ok = (float(np.var(w[-500:]))
                       <= float(np.var(r["plain"]["wasserstein"][-500:])))
        wins += tail < head and quartile_ok
    ok = wins >= 7
    _report(8, "distance estimate shrinks and its tail stays steadier", ok,
            f"{wins}/10 seeds")
    assert ok, wins


def test_criterion_09_full_method_stays_within_triple_runtime(paired_training_runs):
    full = sum(r["full"]["seconds"] for r in paired_training_runs)
    plain = sum(r["plain"]["seconds"] for r in paired_training_runs)
    ratio = full / plain
    ok = ratio <= 3.0
    _report(9, "full method runs within 3x the plain-adversarial time", ok,
            f"ratio {ratio:.2f} ({full:.0f}s vs {plain:.0f}s)")
    assert ok, ratio


# ----------------------------------------------------- 7: downstream benefit

@pytest.fixture(scope="module")
def augmentation_outcomes():
    # Serial: the MLP fits are large enough for OpenBLAS to thread, so two
    # processes oversubscribe the CPUs, and fewer threads change the MAEs.
    gan = GanConfig(iterations=2000, learning_rate=1e-3, batch_size=24,
                    regressor_hidden=4, pretrain_epochs=400, pretrain_lr=3e-3,
                    gen_reg_weight=10.0)
    outcomes = []
    t0 = time.perf_counter()
    for s in range(10):
        cfg = ExperimentConfig(dataset_name="sinusoid-2d", noise_sd=0.35,
                               train_count=30, candidate_batches=10,
                               models=("mlp",), mlp_epochs=10000,
                               mlp_learning_rate=1e-2, mlp_hidden=(64, 64),
                               active_enabled=False, gan=gan, seed=s)
        result = run_pipeline(cfg)
        outcomes.append((result.metrics[("mlp", "real-only")].mae,
                         result.metrics[("mlp", "augmented")].mae))
    return outcomes, time.perf_counter() - t0


def test_criterion_07_augmentation_improves_downstream_error(augmentation_outcomes):
    outcomes, elapsed = augmentation_outcomes
    wins = sum(aug < real for real, aug in outcomes)
    ok = wins >= 7 and elapsed < 1800.0
    _report(7, "real+selected-500 beats real-only downstream", ok,
            f"{wins}/10 seeds, {elapsed:.0f}s")
    assert ok, (wins, elapsed)


# --------------------------------------------------------- 10: bit determinism

def test_criterion_10_pipeline_reruns_are_bit_identical(tmp_path):
    gan = GanConfig(noise_dim=4, n_critic=2, batch_size=8, iterations=4,
                    pretrain_epochs=3, trunk_width=8, gen_hidden=(8,),
                    critic_hidden=8, regressor_hidden=4)
    cfg = ExperimentConfig(dataset_n=80, test_count=30, train_count=16,
                           initial_count=3, candidate_batches=2,
                           generated_count=24, ds_folds=3,
                           models=("kernel-ridge",), gan=gan)
    run_pipeline(cfg, tmp_path / "a")
    run_pipeline(cfg, tmp_path / "b")
    same_report = ((tmp_path / "a" / "report.csv").read_bytes()
                   == (tmp_path / "b" / "report.csv").read_bytes())
    same_trace = ((tmp_path / "a" / "trace.csv").read_bytes()
                  == (tmp_path / "b" / "trace.csv").read_bytes())
    ok = same_report and same_trace
    _report(10, "pipeline reruns are bit-identical", ok,
            f"report.csv equal={same_report}, trace.csv equal={same_trace}")
    assert ok
