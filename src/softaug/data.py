"""Tabular datasets: CSV I/O, min-max normalization, splits, synthetic plants.

Conventions
-----------
* features are (m, d) float64, labels are (m,) float64; both are locked
  read-only after construction.
* normalization is min-max onto [0, 1], fitted on the real training split
  only; out-of-range values transform linearly without clipping.
* CSV files may carry leading '#' comment lines (provenance); the loader
  skips them and the writer emits one.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (BudgetError, CatalogError, ConfigError, ContractError, DataError,
                     ParseError, SchemaError, ShapeError)
from .rng import SeededRng

PROVENANCES = ("real", "generated", "mixed")


@dataclass
class TabularDataset:
    features: np.ndarray
    labels: np.ndarray
    columns: tuple[str, ...]
    label_name: str = "y"
    provenance: str = "real"

    def __post_init__(self):
        f = np.array(self.features, dtype=np.float64)
        y = np.array(self.labels, dtype=np.float64).reshape(-1)
        if f.ndim != 2:
            raise ShapeError(f"features must be 2-D, got ndim={f.ndim}")
        if f.shape[0] != y.shape[0]:
            raise ShapeError(
                f"{f.shape[0]} feature rows vs {y.shape[0]} labels")
        if len(self.columns) != f.shape[1]:
            raise SchemaError(
                f"{len(self.columns)} column names for {f.shape[1]} features")
        if self.provenance not in PROVENANCES:
            raise ContractError(f"unknown provenance {self.provenance!r}")
        if f.size and not np.all(np.isfinite(f)):
            raise ContractError("features contain non-finite values")
        if y.size and not np.all(np.isfinite(y)):
            raise ContractError("labels contain non-finite values")
        f.setflags(write=False)
        y.setflags(write=False)
        self.features = f
        self.labels = y
        self.columns = tuple(self.columns)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def joint(self) -> np.ndarray:
        """Rows as joint [x, y] vectors, shape (m, d+1)."""
        return np.hstack([self.features, self.labels.reshape(-1, 1)])

    def take(self, indices) -> "TabularDataset":
        idx = np.asarray(indices, dtype=int)
        return TabularDataset(self.features[idx], self.labels[idx],
                              self.columns, self.label_name, self.provenance)


# ------------------------------------------------------------------- loading

def _check_header(path: Path, row: list[str], label_column: str) -> tuple[list[str], int]:
    """The stripped header and the label's index, or a SchemaError naming the fault."""
    header = [c.strip() for c in row]
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise SchemaError(f"{path}: header repeats column(s) {', '.join(map(repr, repeated))}")
    if label_column not in header:
        raise SchemaError(f"{path}: label column {label_column!r} not in header {header}")
    if len(header) == 1:
        raise SchemaError(f"{path}: no feature column besides the label column "
                          f"{label_column!r}")
    return header, header.index(label_column)


def _parse_row(path: Path, rnum: int, row: list[str], header: list[str]) -> list[float]:
    """Row `rnum`'s cells as finite floats, or a ParseError naming the cell."""
    if len(row) != len(header):
        raise ParseError(f"{path}: row {rnum} has {len(row)} cells, expected {len(header)}")
    vals = []
    for name, cell in zip(header, row):
        text = cell.strip()
        if not text:
            raise ParseError(f"{path}: row {rnum}, column {name!r}: empty cell")
        try:
            v = float(text)
        except ValueError:
            raise ParseError(
                f"{path}: row {rnum}, column {name!r}: cannot parse {cell!r}") from None
        if not math.isfinite(v):
            raise ParseError(f"{path}: row {rnum}, column {name!r}: non-finite value")
        vals.append(v)
    return vals


def load_csv(path, label_column: str) -> TabularDataset:
    """Read a real-valued CSV with a header row; one column is the label.

    A header with no data rows reads as a 0-row dataset of its columns.
    The file is UTF-8 text; a leading byte-order mark is dropped. Rows
    are counted without blank and '#' rows, the header being row 1, and
    the first fault in file order is the one reported. Each row is parsed
    as it is read, into one float64 buffer shaped (rows, columns) at the end.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            kept = (row for row in reader if row and not row[0].lstrip().startswith("#"))
            header_row = next(kept, None)
            if header_row is None:
                raise SchemaError(f"{path}: no header row")
            header, label_idx = _check_header(path, header_row, label_column)
            cells = (v for rnum, row in enumerate(kept, start=2)
                     for v in _parse_row(path, rnum, row, header))
            table = np.fromiter(cells, dtype=np.float64)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text "
                         f"({err.reason} 0x{err.object[err.start]:02x})") from None
    except csv.Error as err:
        raise ParseError(f"{path}: line {reader.line_num}: {err}") from None
    table = table.reshape(-1, len(header))
    if len(table):
        # min-max normalization and the selection distances take max - min
        with np.errstate(over="ignore"):
            span = table.max(axis=0) - table.min(axis=0)
        wide = [c for c, s in zip(header, span) if not np.isfinite(s)]
        if wide:
            raise DataError(f"{path}: column(s) {', '.join(wide)} span more than the "
                            f"largest float; rescale them")
    feat_names = tuple(c for i, c in enumerate(header) if i != label_idx)
    return TabularDataset(np.delete(table, label_idx, axis=1), table[:, label_idx],
                          feat_names, label_name=label_column, provenance="real")


def save_csv(ds: TabularDataset, path) -> None:
    """Write the dataset with a provenance comment line and a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"# provenance={ds.provenance} rows={ds.n_rows}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(ds.columns) + [ds.label_name])
        for x, y in zip(ds.features, ds.labels):
            writer.writerow([f"{v:.17g}" for v in x] + [f"{y:.17g}"])


# -------------------------------------------------------------- normalization

@dataclass
class NormalizationSpec:
    """Per-column affine maps (x - lo) / (hi - lo); constant columns -> 0.5."""

    feature_lo: np.ndarray
    feature_hi: np.ndarray
    label_lo: float
    label_hi: float

    def to_dict(self) -> dict:
        return {"feature_lo": self.feature_lo.tolist(),
                "feature_hi": self.feature_hi.tolist(),
                "label_lo": self.label_lo, "label_hi": self.label_hi}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationSpec":
        return cls(np.asarray(d["feature_lo"], dtype=float),
                   np.asarray(d["feature_hi"], dtype=float),
                   float(d["label_lo"]), float(d["label_hi"]))


def fit_normalizer(ds: TabularDataset) -> NormalizationSpec:
    if ds.n_rows < 1:
        raise ContractError("cannot fit a normalizer on an empty dataset")
    return NormalizationSpec(ds.features.min(axis=0), ds.features.max(axis=0),
                             float(ds.labels.min()), float(ds.labels.max()))


def _forward(x: np.ndarray, lo, hi) -> np.ndarray:
    keep = ~np.less_equal(hi, lo)           # hi <= lo (a constant column) maps to 0.5
    out = np.subtract(x, lo, out=np.full_like(x, 0.5), where=keep)
    return np.divide(out, hi - lo, out=out, where=keep)


def _map_columns(ds: TabularDataset, spec: NormalizationSpec, col_map) -> TabularDataset:
    """Apply `col_map(values, lo, hi)` to the whole feature block and to the labels."""
    if ds.n_features != spec.feature_lo.shape[0]:
        raise ShapeError(
            f"dataset has {ds.n_features} features, normalizer expects "
            f"{spec.feature_lo.shape[0]}")
    return TabularDataset(col_map(ds.features, spec.feature_lo, spec.feature_hi),
                          col_map(ds.labels, spec.label_lo, spec.label_hi),
                          ds.columns, ds.label_name, ds.provenance)


def apply_normalizer(ds: TabularDataset, spec: NormalizationSpec) -> TabularDataset:
    return _map_columns(ds, spec, _forward)


def invert_normalizer(ds: TabularDataset, spec: NormalizationSpec) -> TabularDataset:
    return _map_columns(ds, spec, lambda x, lo, hi: x * (hi - lo) + lo)


# ------------------------------------------------------------------- splits

def split(ds: TabularDataset, train_count: int, test_count: int,
          seed: int) -> tuple[TabularDataset, TabularDataset]:
    """Disjoint (train, test) via a seeded permutation."""
    if train_count < 0 or test_count < 0:
        raise BudgetError("split counts must be non-negative")
    if train_count + test_count > ds.n_rows:
        raise BudgetError(
            f"split wants {train_count}+{test_count} rows, dataset has {ds.n_rows}")
    perm = SeededRng(seed).permutation(ds.n_rows)
    return ds.take(perm[:train_count]), ds.take(perm[train_count:train_count + test_count])


# ---------------------------------------------------------------- synthetics

def _friedman_truth(x: np.ndarray) -> np.ndarray:
    return (10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
            + 20.0 * (x[:, 2] - 0.5) ** 2 + 10.0 * x[:, 3] + 5.0 * x[:, 4])


def _sinusoid_truth(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * x[:, 0]) + 0.5 * np.cos(3.0 * np.pi * x[:, 1])


def _piecewise_truth(x: np.ndarray) -> np.ndarray:
    # two operating regimes switched by the first input
    low = 2.0 * x[:, 1] + x[:, 2]
    high = 1.0 + 0.5 * np.sin(4.0 * np.pi * x[:, 1]) + x[:, 2]
    return np.where(x[:, 0] < 0.5, low, high)


_CATALOG: dict[str, tuple[int, Callable[[np.ndarray], np.ndarray]]] = {
    # name -> (n_features, closed-form label function on U(0,1)^d inputs)
    "friedman-like": (10, _friedman_truth),
    "sinusoid-2d": (2, _sinusoid_truth),
    "piecewise-plant": (3, _piecewise_truth),
}


def synth_truth(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """The noise-free closed form behind a synthetic dataset."""
    if name not in _CATALOG:
        raise CatalogError(f"unknown synthetic dataset {name!r}; have {sorted(_CATALOG)}")
    return _CATALOG[name][1]


def synth_make(name: str, n: int, noise_sd: float, seed: int) -> TabularDataset:
    """Draw n rows with U(0,1) features and optional Gaussian label noise."""
    if name not in _CATALOG:
        raise CatalogError(f"unknown synthetic dataset {name!r}; have {sorted(_CATALOG)}")
    if n < 1:
        raise ContractError(f"need n >= 1 rows, got {n}")
    if noise_sd < 0:
        raise ContractError(f"noise_sd must be >= 0, got {noise_sd}")
    d, truth = _CATALOG[name]
    rng = SeededRng(seed)
    x = rng.uniform(n, d)
    y = truth(x)
    if noise_sd > 0:
        with np.errstate(over="ignore"):
            y = y + noise_sd * rng.normal(n, 1).ravel()
        if not np.all(np.isfinite(y)):
            raise ConfigError(f"noise_sd {noise_sd!r} drives labels past the largest float")
    cols = tuple(f"x{j + 1}" for j in range(d))
    return TabularDataset(x, y, cols, label_name="y", provenance="real")


# ------------------------------------------------------------------- concat

def concat(real: TabularDataset, generated: TabularDataset) -> TabularDataset:
    """Stack real rows on top of generated ones; provenance becomes mixed.

    An empty generated set returns the real dataset unchanged. Both inputs
    must live in the same normalization space; that is a caller contract
    the function can only check dimensionally.
    """
    if generated.n_rows == 0:
        return real
    if real.n_features != generated.n_features:
        raise ShapeError(
            f"feature widths differ: {real.n_features} vs {generated.n_features}")
    feats = np.vstack([real.features, generated.features])
    labels = np.concatenate([real.labels, generated.labels])
    return TabularDataset(feats, labels, real.columns, real.label_name, "mixed")
