"""Output checks, each computed apart from softaug.

Every check reads the artifacts of one `run_pipeline` directory (or of a
whole operation) and recomputes the claim with code written here: the raw
data and its split from the seed, a closed-form kernel ridge, the
V-statistic discrepancy, the batch ranking, and a brute-force greedy
acquisition loop. Nothing is compared against a stored copy of earlier
output. Each check returns a list of failure messages; empty means pass.

The worker saves `arrays.npz` next to the artifacts of a checked run: the
normalized train, test and selected-batch rows that `run_pipeline`
returned, and the normalizer bounds. The checks tie those arrays back to
the raw data before they use them.
"""
from __future__ import annotations

import configparser
import csv
import hashlib
import math
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------- raw data

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, label: str) -> int:
    """The documented sub-seed rule: blake2b-64 of "master:label", little endian."""
    digest = hashlib.blake2b(f"{int(master)}:{label}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def sinusoid_rows(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The sinusoid-2d plant: U(0,1)^2 inputs, y = sin(2 pi x1) + cos(3 pi x2) / 2."""
    x = philox(derive_seed(seed, "data")).uniform(0.0, 1.0, size=(n, 2))
    y = np.sin(2.0 * np.pi * x[:, 0]) + 0.5 * np.cos(3.0 * np.pi * x[:, 1])
    return x, y


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV, skipping '#' comment lines."""
    with Path(path).open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header = [c.strip() for c in rows[0]]
    body = np.array([[float(c) for c in r] for r in rows[1:]], dtype=float)
    return header, body.reshape(len(rows) - 1, len(header))


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    with Path(path).open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def read_config(run_dir) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string((Path(run_dir) / "config.echo.ini").read_text())
    return cp


def raw_dataset(cp: configparser.ConfigParser) -> tuple[np.ndarray, np.ndarray]:
    """All raw rows of the run's dataset, rebuilt from its config."""
    seed = cp.getint("run", "seed")
    if cp.get("dataset", "source") == "csv":
        header, body = read_table(cp.get("dataset", "path"))
        label = header.index(cp.get("dataset", "label_column"))
        return np.delete(body, label, axis=1), body[:, label]
    name = cp.get("dataset", "name")
    if name != "sinusoid-2d" or cp.getfloat("dataset", "noise_sd") != 0.0:
        raise ValueError(f"no independent generator for dataset {name!r}")
    return sinusoid_rows(cp.getint("dataset", "n"), seed)


def split_rows(n: int, test_count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pool and test row indices: a seeded permutation, pool first."""
    perm = philox(derive_seed(seed, "split")).permutation(n)
    return perm[:n - test_count], perm[n - test_count:]


# ---------------------------------------------------------- kernel methods

def pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances from explicit differences, one row of a at a time."""
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        out[i] = np.sqrt(np.sum((b - a[i]) ** 2, axis=1))
    return out


def median_bandwidth(rows: np.ndarray) -> float:
    n = rows.shape[0]
    if n < 2:
        return 1.0
    med = float(np.median(pair_distances(rows, rows)[np.triu_indices(n, k=1)]))
    return med if med > 0.0 else 1.0


def gaussian_kernel(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-pair_distances(a, b) ** 2 / (2.0 * sigma * sigma))


def kernel_ridge_predict(x, y, x_new, ridge: float) -> np.ndarray:
    """Closed-form kernel ridge: solve (K + ridge I) c = y, predict k(x_new, x) c."""
    sigma = median_bandwidth(x)
    coef = np.linalg.solve(gaussian_kernel(x, x, sigma) + ridge * np.eye(len(x)), y)
    return gaussian_kernel(x_new, x, sigma) @ coef


def v_statistic_mmd2(a: np.ndarray, b: np.ndarray) -> float:
    """Biased squared MMD, diagonals included, median bandwidth of the pooled rows."""
    sigma = median_bandwidth(np.vstack([a, b]))
    return (float(gaussian_kernel(a, a, sigma).mean())
            - 2.0 * float(gaussian_kernel(a, b, sigma).mean())
            + float(gaussian_kernel(b, b, sigma).mean()))


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


# ------------------------------------------------------------- one run dir

class RunView:
    """One run_pipeline directory tied back to its raw data."""

    def __init__(self, run_dir):
        self.dir = Path(run_dir)
        self.cp = read_config(self.dir)
        seed = self.cp.getint("run", "seed")
        x, y = raw_dataset(self.cp)
        pool_idx, test_idx = split_rows(len(y), self.cp.getint("split", "test_count"), seed)
        self.pool_x, self.pool_y = x[pool_idx], y[pool_idx]
        self.test_x, self.test_y = x[test_idx], y[test_idx]
        arrays = np.load(self.dir / "arrays.npz")
        self.train = arrays["train"]
        self.test = arrays["test"]
        self.selected = arrays["selected"]
        self.lo = np.append(arrays["feature_lo"], arrays["label_lo"])
        self.hi = np.append(arrays["feature_hi"], arrays["label_hi"])
        self.ridge = self.cp.getfloat("downstream", "ridge")

    def raw(self, joint_normalized: np.ndarray) -> np.ndarray:
        return joint_normalized * (self.hi - self.lo) + self.lo

    def normalized(self, joint_raw: np.ndarray) -> np.ndarray:
        width = self.hi - self.lo
        safe = np.where(width > 0, width, 1.0)
        return np.where(width > 0, (joint_raw - self.lo) / safe, 0.5)

    def train_pool_indices(self) -> tuple[list[int], list[str]]:
        """Pool row of each training row, in training-set order."""
        raw = self.raw(self.train)
        pool = np.column_stack([self.pool_x, self.pool_y])
        scale = np.maximum(np.abs(pool).max(axis=0), 1.0)
        found, errors = [], []
        for t, row in enumerate(raw):
            gap = np.max(np.abs(pool - row) / scale, axis=1)
            best = int(np.argmin(gap))
            if gap[best] > 1e-9:
                errors.append(f"{self.dir.name}: training row {t} is not a pool row "
                              f"(nearest gap {gap[best]:.3g})")
            found.append(best)
        return found, errors


def check_data(view: RunView) -> list[str]:
    """Training rows come from the pool, bounds are their range, test rows match."""
    idx, errors = view.train_pool_indices()
    if errors:
        return errors
    if len(set(idx)) != len(idx):
        errors.append(f"{view.dir.name}: a pool row is in the training set twice")
    raw = np.column_stack([view.pool_x, view.pool_y])[idx]
    if not (np.array_equal(raw.min(axis=0), view.lo) and np.array_equal(raw.max(axis=0), view.hi)):
        errors.append(f"{view.dir.name}: normalizer bounds differ from the training range")
    want_test = view.normalized(np.column_stack([view.test_x, view.test_y]))
    if view.test.shape != want_test.shape or not np.allclose(view.test, want_test, rtol=0, atol=1e-12):
        errors.append(f"{view.dir.name}: test rows differ from the seeded split")
    return errors


def check_kernel_ridge_report(view: RunView) -> list[str]:
    """report.csv kernel-ridge MAE/RMSE against the closed-form solve."""
    header, rows = read_rows(view.dir / "report.csv")
    if header != ["model", "condition", "mae", "rmse"]:
        return [f"{view.dir.name}: report.csv header {header}"]
    sets = {"real-only": view.train, "augmented": np.vstack([view.train, view.selected])}
    errors, seen = [], 0
    for model, condition, mae, rmse in rows:
        if model != "kernel-ridge":
            continue
        seen += 1
        fit = sets[condition]
        pred = kernel_ridge_predict(fit[:, :-1], fit[:, -1], view.test[:, :-1], view.ridge)
        res = pred - view.test[:, -1]
        want = (float(np.mean(np.abs(res))), float(np.sqrt(np.mean(res * res))))
        for name, got, exp in (("mae", float(mae), want[0]), ("rmse", float(rmse), want[1])):
            if not _close(got, exp, 1e-7):
                errors.append(f"{view.dir.name}: kernel-ridge {condition} {name} "
                              f"{got!r}, closed form gives {exp!r}")
    if seen != 2:
        errors.append(f"{view.dir.name}: expected 2 kernel-ridge report rows, found {seen}")
    return errors


def check_selected_mmd(view: RunView) -> list[str]:
    """The selected batch's mmd2 against an independent V-statistic."""
    head, rows = read_rows(view.dir / "quality.csv")
    chosen = [r for r in rows if r[head.index("selected")] == "true"]
    if len(chosen) != 1:
        return [f"{view.dir.name}: {len(chosen)} batches flagged selected"]
    got = float(chosen[0][head.index("mmd2")])
    want = max(v_statistic_mmd2(view.train, view.selected), 0.0)
    if not _close(got, want, 1e-7, 1e-10):
        return [f"{view.dir.name}: selected batch mmd2 {got!r}, V-statistic gives {want!r}"]
    return []


def check_selected_flag(view: RunView) -> list[str]:
    """Ranks, combined scores and the selected flag recomputed from quality.csv."""
    head, rows = read_rows(view.dir / "quality.csv")
    col = {name: i for i, name in enumerate(head)}
    mmd = [float(r[col["mmd2"]]) for r in rows]
    ds = [float(r[col["ds"]]) for r in rows]

    def norm(v):
        lo, hi = min(v), max(v)
        return [0.0] * len(v) if hi <= lo else [(x - lo) / (hi - lo) for x in v]

    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: (v[i], i))
        return {i: pos + 1 for pos, i in enumerate(order)}

    combined = [a + b for a, b in zip(norm(mmd), norm(ds))]
    best = min(range(len(rows)), key=lambda i: (combined[i], mmd[i], i))
    errors = []
    mmd_rank, ds_rank = ranks(mmd), ranks(ds)
    for i, r in enumerate(rows):
        if int(r[col["batch"]]) != i:
            errors.append(f"{view.dir.name}: quality row {i} is batch {r[col['batch']]}")
        if not _close(float(r[col["combined"]]), combined[i], 1e-12, 1e-15):
            errors.append(f"{view.dir.name}: batch {i} combined {r[col['combined']]}, "
                          f"recomputed {combined[i]!r}")
        if int(r[col["mmd_rank"]]) != mmd_rank[i] or int(r[col["ds_rank"]]) != ds_rank[i]:
            errors.append(f"{view.dir.name}: batch {i} ranks differ from the recomputed ones")
        if (r[col["selected"]] == "true") != (i == best):
            errors.append(f"{view.dir.name}: batch {i} selected={r[col['selected']]}, "
                          f"minimum combined score is batch {best}")
    return errors


def check_acquisitions(view: RunView) -> list[str]:
    """Every logged acquisition against a brute-force greedy recomputation."""
    path = view.dir / "acquisition.csv"
    head, rows = read_rows(path)
    col = {name: i for i, name in enumerate(head)}
    seq, errors = view.train_pool_indices()
    if errors:
        return errors
    m0 = len(seq) - len(rows)
    logged = [int(r[col["index"]]) for r in rows]
    if m0 < 1 or seq[m0:] != logged:
        return [f"{view.dir.name}: acquisitions {logged} are not the training rows "
                f"after the first {m0}"]
    x, y = view.pool_x, view.pool_y
    r_all = pair_distances(x, x).sum(axis=1)
    labeled = list(seq[:m0])
    for step, r in enumerate(rows):
        pred = kernel_ridge_predict(x[labeled], y[labeled], x, view.ridge)
        d_x = pair_distances(x, x[labeled]).min(axis=1)
        d_y = np.abs(pred[:, None] - y[labeled][None, :]).min(axis=1)
        score = np.where(r_all > 0, d_x * d_y / np.where(r_all > 0, r_all, 1.0), 0.0)
        score[labeled] = -1.0
        best = int(np.argmax(score))
        got = logged[step]
        if got != best and not score[got] >= score[best] * (1.0 - 1e-9):
            errors.append(f"{view.dir.name}: acquisition {step} picked {got} "
                          f"(score {score[got]!r}), brute force picks {best} ({score[best]!r})")
        for name, want, rtol, atol in (("d_x", d_x[got], 1e-9, 0.0),
                                       ("d_y", d_y[got], 1e-6, 1e-9),
                                       ("r", r_all[got], 1e-9, 0.0),
                                       ("score", score[got], 1e-6, 1e-12)):
            value = float(r[col[name]])
            if not _close(value, float(want), rtol, atol):
                errors.append(f"{view.dir.name}: acquisition {step} {name} {value!r}, "
                              f"brute force gives {float(want)!r}")
        labeled.append(got)
    return errors


def check_generated_range(view: RunView) -> list[str]:
    """Generated rows lie inside the raw training range and match the batch."""
    head, gen = read_table(view.dir / "generated.csv")
    errors = []
    if gen.shape != view.selected.shape:
        return [f"{view.dir.name}: generated.csv is {gen.shape}, batch is {view.selected.shape}"]
    idx, bad = view.train_pool_indices()
    if bad:
        return bad
    train_raw = np.column_stack([view.pool_x, view.pool_y])[idx]
    lo, hi = train_raw.min(axis=0), train_raw.max(axis=0)
    slack = 1e-12 * np.maximum(hi - lo, 1.0)
    outside = np.sum((gen < lo - slack) | (gen > hi + slack))
    if outside:
        errors.append(f"{view.dir.name}: {int(outside)} generated values outside the "
                      f"training range")
    if not np.allclose(gen, view.raw(view.selected), rtol=1e-12, atol=1e-12 * float(np.max(hi - lo))):
        errors.append(f"{view.dir.name}: generated.csv differs from the selected batch")
    return errors


def check_trace(run_dir) -> list[str]:
    """One finite trace.csv row per GAN iteration, numbered from 0."""
    run_dir = Path(run_dir)
    want = read_config(run_dir).getint("gan", "iterations")
    head, body = read_table(run_dir / "trace.csv")
    errors = []
    if body.shape[0] != want:
        errors.append(f"{run_dir.name}: trace.csv has {body.shape[0]} rows for {want} iterations")
    elif not np.array_equal(body[:, head.index("iteration")], np.arange(want)):
        errors.append(f"{run_dir.name}: trace.csv iterations are not 0..{want - 1}")
    if not np.all(np.isfinite(body)):
        errors.append(f"{run_dir.name}: trace.csv holds non-finite values")
    return errors


def check_run(run_dir) -> list[str]:
    """Every per-directory check that the directory's artifacts allow."""
    run_dir = Path(run_dir)
    errors = check_trace(run_dir)
    view = RunView(run_dir)
    errors += check_data(view)
    errors += check_kernel_ridge_report(view)
    if (run_dir / "quality.csv").exists():
        errors += check_selected_mmd(view) + check_selected_flag(view)
    if (run_dir / "acquisition.csv").exists():
        errors += check_acquisitions(view)
    errors += check_generated_range(view)
    return errors


# ------------------------------------------------------- across operations

def _compared_files(op_dir: Path) -> dict[str, bytes]:
    files = sorted(p for p in op_dir.rglob("*")
                   if p.suffix == ".csv" or p.name == "checkpoint.bin")
    return {str(p.relative_to(op_dir)): p.read_bytes() for p in files}


def check_repeats(op_dirs) -> list[str]:
    """Every CSV and checkpoint is byte-identical across the repeats of a run."""
    op_dirs = [Path(d) for d in op_dirs]
    first = _compared_files(op_dirs[0])
    errors = []
    for d in op_dirs[1:]:
        other = _compared_files(d)
        if other.keys() != first.keys():
            errors.append(f"{d.name}: artifact set differs from {op_dirs[0].name}")
            continue
        for name in first:
            if other[name] != first[name]:
                errors.append(f"{d.name}/{name} differs from {op_dirs[0].name}")
    return errors


# run_ablation's arms in report order; the random-subset arms skip selection
ARMS = ("full", "no-shared-trunk", "no-dual-eval", "no-train-select", "no-batch-select")
ACTIVE_ARMS = ("full", "no-shared-trunk", "no-batch-select")
RANDOM_ARMS = ("no-dual-eval", "no-train-select")


def check_ablation(op_dir) -> list[str]:
    """Arms sharing selection inputs acquire identically; the report joins the arms."""
    op_dir = Path(op_dir)
    errors = []
    acq = [(op_dir / arm / "acquisition.csv") for arm in ACTIVE_ARMS]
    missing = [p.parent.name for p in acq if not p.exists()]
    if missing:
        return [f"{op_dir.name}: no acquisition log in {missing}"]
    first = acq[0].read_bytes()
    for p in acq[1:]:
        if p.read_bytes() != first:
            errors.append(f"{op_dir.name}: {p.parent.name} acquisitions differ from {ACTIVE_ARMS[0]}")
    for arm in RANDOM_ARMS:
        if (op_dir / arm / "acquisition.csv").exists():
            errors.append(f"{op_dir.name}: random-subset arm {arm} logged acquisitions")
    head, rows = read_rows(op_dir / "report.csv")
    want = []
    for arm in ARMS:
        _, arm_rows = read_rows(op_dir / arm / "report.csv")
        want += [[arm, m, mae, rmse, "ok"] for m, cond, mae, rmse in arm_rows
                 if cond == "augmented"]
    if rows != want:
        errors.append(f"{op_dir.name}: combined report.csv rows differ from the arms' "
                      f"augmented rows")
    return errors
