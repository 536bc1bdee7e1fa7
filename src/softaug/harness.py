"""Experiment harness: config files, the end-to-end pipeline, sweeps.

A run is pinned by (config, master seed). The master seed expands into
per-phase sub-seeds through `derive_seed`, so phases stay decoupled:
changing the GAN iteration count never changes the data split. All CSV
outputs print floats with %.17g, which makes byte-identical reruns a
testable contract; wall-clock lives only in manifest.json.

`run_pipeline` is a chain of stage functions (`prepare`, `train_gan`,
`score_candidates`, `fit_downstream`) inside one `run_record`. Each CLI
command is one `run_*` function or sweep built from the same stages, so
each sub-seed label, artifact and manifest block is defined once.
"""
from __future__ import annotations

import configparser
import io
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace, asdict, astuple
from pathlib import Path

import numpy as np

from . import __version__
from .active import run_active_selection
from .data import (NormalizationSpec, TabularDataset,
                   apply_normalizer, concat, fit_normalizer, invert_normalizer,
                   load_csv, save_csv, split, synth_make)
from .errors import BudgetError, ConfigError, ContractError
from .quality import BatchQuality, select_best_batch
from .regress import (KernelRidgeRegressor, Metrics, MlpRegressor, Regressor,
                      check_bandwidth, evaluate, fit)
from .rgan import (GanConfig, RganModel, TrainTrace, check_finite, generate,
                   load_checkpoint, save_checkpoint, train)
from .rng import SeededRng, derive_seed

# --------------------------------------------------------------- the config

@dataclass(frozen=True)
class ExperimentConfig:
    # dataset
    source: str = "synthetic"           # synthetic | csv
    dataset_name: str = "sinusoid-2d"
    dataset_n: int = 1000
    noise_sd: float = 0.0
    csv_path: str = ""
    label_column: str = "y"
    # split
    test_count: int = 200
    train_count: int = 50
    # active selection
    active_enabled: bool = True
    initial_count: int = 0              # 0 = pick by silhouette
    # gan
    gan: GanConfig = field(default_factory=GanConfig)
    # quality
    candidate_batches: int = 5
    generated_count: int = 500
    bandwidth: str = "median"           # "median" or a positive finite number
    ds_folds: int = 5
    select_best: bool = True
    # downstream
    models: tuple[str, ...] = ("kernel-ridge", "mlp")
    mlp_epochs: int = 500
    mlp_learning_rate: float = 1e-3
    mlp_hidden: tuple[int, ...] = (32, 16)
    ridge: float = 1e-3
    metrics_denormalized: bool = False
    # run
    seed: int = 0
    out_dir: str = ""

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ConfigError(f"dataset source must be synthetic or csv, got {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("csv source needs dataset.path")
        for name in ("dataset_n", "test_count", "train_count", "candidate_batches"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.ds_folds < 2:
            raise ConfigError(f"ds_folds must be >= 2, got {self.ds_folds}")
        # the batch ranking cuts the real and each generated set into ds_folds folds
        for name in ("train_count", "generated_count"):
            rows = getattr(self, name)
            if self.select_best and 0 < rows < self.ds_folds:
                raise ConfigError(f"{name} {rows} is below ds_folds {self.ds_folds}; "
                                  f"the batch ranking needs a row per fold")
        for name in ("generated_count", "mlp_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.initial_count and not 2 <= self.initial_count <= self.train_count:
            raise ConfigError(f"initial_count must be 0 or within [2, train_count "
                              f"{self.train_count}], got {self.initial_count}")
        if any(h < 1 for h in self.mlp_hidden):
            raise ConfigError(f"mlp_hidden sizes must be >= 1, got {self.mlp_hidden}")
        check_finite("noise_sd", self.noise_sd)
        check_finite("ridge", self.ridge, positive=True)
        check_finite("mlp_learning_rate", self.mlp_learning_rate, positive=True)
        for m in self.models:
            if m not in ("kernel-ridge", "mlp"):
                raise ConfigError(f"unknown downstream model {m!r}")
            if self.models.count(m) > 1:
                raise ConfigError(f"downstream model {m!r} is listed more than once")
        try:
            check_bandwidth(self.bandwidth)
        except ContractError as err:
            raise ConfigError(str(err)) from None


def _bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def _int(text: str, where: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from None


def _float(text: str, where: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None


def _int_tuple(text: str, where: str) -> tuple[int, ...]:
    items = [t for t in (p.strip() for p in text.split(",")) if t]
    if not items:
        raise ConfigError(f"{where}: expected a comma-separated list of integers")
    return tuple(_int(t, where) for t in items)


def _str_tuple(text: str, where: str) -> tuple[str, ...]:
    items = [t for t in (p.strip() for p in text.split(",")) if t]
    if not items:
        raise ConfigError(f"{where}: expected a comma-separated list")
    return tuple(items)


# field annotation -> parser of its INI text; an empty optional float is None
_PARSERS = {
    "str": lambda text, where: text.strip(),
    "int": _int,
    "float": _float,
    "bool": _bool,
    "tuple[int, ...]": _int_tuple,
    "tuple[str, ...]": _str_tuple,
    "float | None": lambda text, where: _float(text, where) if text.strip() else None,
}

# section -> key -> field of GanConfig ([gan]) or ExperimentConfig (the rest)
_SCHEMA = {
    "dataset": {"source": "source", "name": "dataset_name", "n": "dataset_n",
                "noise_sd": "noise_sd", "path": "csv_path",
                "label_column": "label_column"},
    "split": {"test_count": "test_count", "train_count": "train_count"},
    "active": {"enabled": "active_enabled", "initial_count": "initial_count"},
    "gan": {f.name: f.name for f in fields(GanConfig)},
    "quality": {k: k for k in ("candidate_batches", "generated_count", "bandwidth",
                               "ds_folds", "select_best")},
    "downstream": {k: k for k in ("models", "mlp_epochs", "mlp_learning_rate",
                                  "mlp_hidden", "ridge", "metrics_denormalized")},
    "run": {"seed": "seed", "out_dir": "out_dir"},
}


def parse_config(path_or_text) -> ExperimentConfig:
    """Read an INI-style config; every key must be known (fail-fast).

    A config file is UTF-8 text; a leading byte-order mark is dropped.
    """
    # no header can name the empty section, so a [DEFAULT] header is an
    # ordinary (unknown) section rather than keys merged into every other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    if "\n" in str(path_or_text):
        text = path_or_text
    else:
        try:
            text = Path(path_or_text).read_text(encoding="utf-8-sig")
        except OSError as err:
            raise ConfigError(f"cannot read config {path_or_text}: {err.strerror}") from None
        except UnicodeDecodeError as err:
            raise ConfigError(f"cannot read config {path_or_text}: not UTF-8 text "
                              f"({err.reason} 0x{err.object[err.start]:02x})") from None
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}") from None
    kwargs: dict[type, dict[str, object]] = {GanConfig: {}, ExperimentConfig: {}}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        cls = GanConfig if section == "gan" else ExperimentConfig
        annotations = {f.name: f.type for f in fields(cls)}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name = _SCHEMA[section][key]
            kwargs[cls][name] = _PARSERS[annotations[name]](raw, f"[{section}] {key}")
    try:
        gan = GanConfig(**kwargs[GanConfig])
        return ExperimentConfig(gan=gan, **kwargs[ExperimentConfig])
    except TypeError as err:
        raise ConfigError(str(err)) from None


def _fmt(v) -> str:
    """A config value or CSV cell: true/false, %.17g, comma-joined tuples, "" for None."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Serialize a config so parse_config reads it back equivalently."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        source = cfg.gan if section == "gan" else cfg
        out.write(f"[{section}]\n")
        for key, name in keys.items():
            out.write(f"{key} = {_fmt(getattr(source, name))}\n")
        out.write("\n")
    return out.getvalue()


# ------------------------------------------------------------------ outputs

def write_csv(path, header: list[str], rows: list[tuple], comments: list[str] = ()) -> None:
    with Path(path).open("w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


TRACE_HEADER = ["iteration", "critic_loss", "generator_loss",
                "regression_loss", "wasserstein", "penalty"]
QUALITY_HEADER = ["batch", "mmd2", "ds", "mmd_rank", "ds_rank", "combined", "selected"]
ACQ_HEADER = ["step", "index", "d_x", "d_y", "r", "score"]
QUALITY_COMMENT = "mmd2 and ds are lower-is-better; ds is a cross-fit MAE surrogate"


def quality_rows(report: list[BatchQuality]) -> list[tuple]:
    return [(b.batch, b.mmd2, b.ds, b.mmd_rank, b.ds_rank, b.combined, b.selected)
            for b in report]


@dataclass
class RunManifest:
    seed: int
    seed_tag: str
    config_ini: str
    phases: list[dict] = field(default_factory=list)
    dataset: dict = field(default_factory=dict)
    selection: dict = field(default_factory=dict)
    gan: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    report_header: list[str] = field(default_factory=list)
    report: list[list] = field(default_factory=list)
    error: dict | None = None
    failures: list[dict] = field(default_factory=list)     # failed sweep arms
    toolkit_version: str = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=_json_default)


def _json_default(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v)}")


def make_out_dir(out: Path) -> None:
    """Create the output directory `out`; failing that, a ConfigError naming it."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out}: {err.strerror}") from None


@contextmanager
def run_record(cfg: ExperimentConfig, out: Path | None, seed_tag: str = ""):
    """The manifest of one run, written out however the run ends.

    Creates `out` when it is set, then yields a fresh manifest for the
    stages to fill. On leaving, writes config.echo.ini and manifest.json
    under `out`; a failure is first recorded against the last phase
    entered, then re-raised.
    """
    if out:
        make_out_dir(out)
    manifest = RunManifest(seed=cfg.seed, seed_tag=seed_tag,
                           config_ini=config_to_ini(cfg))
    try:
        yield manifest
    except BaseException as err:
        manifest.error = {"phase": manifest.phases[-1]["name"] if manifest.phases else None,
                          "type": type(err).__name__, "message": str(err)}
        raise
    finally:
        if out:
            (out / "config.echo.ini").write_text(manifest.config_ini)
            (out / "manifest.json").write_text(manifest.to_json())


@contextmanager
def _phase(manifest: RunManifest, name: str):
    entry = {"name": name, "seconds": None}
    manifest.phases.append(entry)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        entry["seconds"] = time.perf_counter() - t0


def _report(manifest: RunManifest, out: Path | None, header: list[str],
            rows: list[tuple]) -> None:
    """Record a run's report rows in its manifest and, with `out`, in report.csv."""
    manifest.report_header = list(header)
    manifest.report = [list(r) for r in rows]
    if out:
        write_csv(out / "report.csv", header, rows)


# ----------------------------------------------------------------- pipeline

REPORT_HEADER = ["model", "condition", "mae", "rmse"]
CONDITIONS = ("real-only", "augmented")


@dataclass
class PipelineResult:
    manifest: RunManifest
    model: RganModel
    trace: TrainTrace
    train_set: TabularDataset          # normalized
    test_set: TabularDataset           # normalized
    normalizer: NormalizationSpec
    selected_batch: TabularDataset     # normalized
    quality_report: list[BatchQuality]
    metrics: dict[tuple[str, str], Metrics]


@dataclass(frozen=True)
class Prepared:
    """The split, the selected training rows, raw and normalized, and the
    raw test rows, which only `run_pipeline` normalizes."""
    pool: TabularDataset
    train_raw: TabularDataset
    normalizer: NormalizationSpec      # fitted on train_raw, or a checkpoint's
    train_set: TabularDataset          # normalized
    test_raw: TabularDataset


def prepare(cfg: ExperimentConfig, manifest: RunManifest, out: Path | None = None,
            checkpoint: tuple[str | Path, NormalizationSpec] | None = None) -> Prepared:
    """Load -> split -> select -> normalize, the prelude of every command.

    Records the data, selection and normalize phases and the dataset and
    selection blocks in `manifest`; a failure leaves its phase last. With
    `out`, writes acquisition.csv when selecting actively. `checkpoint`, a
    checkpoint's path and normalizer, must match the dataset's width, and its
    normalizer is applied in place of one fitted on the training rows.
    """
    path, normalizer = checkpoint or (None, None)
    with _phase(manifest, "data"):
        if cfg.source == "csv":
            full = load_csv(cfg.csv_path, cfg.label_column)
        else:
            full = synth_make(cfg.dataset_name, cfg.dataset_n, cfg.noise_sd,
                              derive_seed(cfg.seed, "data"))
        manifest.dataset = {"rows": full.n_rows, "features": full.n_features,
                            "columns": list(full.columns)}
        if normalizer is not None and full.n_features != len(normalizer.feature_lo):
            raise ConfigError(f"the config's dataset has {full.n_features} features; "
                              f"checkpoint {path} was trained on {len(normalizer.feature_lo)}")
        pool_count = full.n_rows - cfg.test_count
        if pool_count < cfg.train_count:
            raise BudgetError(
                f"dataset of {full.n_rows} rows leaves a pool of {pool_count} "
                f"for a train budget of {cfg.train_count}")
        pool, test = split(full, pool_count, cfg.test_count, derive_seed(cfg.seed, "split"))
    with _phase(manifest, "selection"):
        if cfg.active_enabled:
            rows, acquisitions = run_active_selection(
                pool, cfg.train_count, derive_seed(cfg.seed, "active"), cfg.ridge,
                cfg.initial_count)
        else:
            rng = SeededRng(derive_seed(cfg.seed, "subset"))
            rows, acquisitions = rng.permutation(pool.n_rows)[:cfg.train_count], []
        train_raw = pool.take(rows)
        manifest.selection = {
            "method": "active" if cfg.active_enabled else "random",
            "acquisitions": [asdict(r) for r in acquisitions],
        }
        if out and acquisitions:
            write_csv(out / "acquisition.csv", ACQ_HEADER, [astuple(r) for r in acquisitions])
    with _phase(manifest, "normalize"):
        if normalizer is None:
            normalizer = fit_normalizer(train_raw)
        return Prepared(pool, train_raw, normalizer,
                        apply_normalizer(train_raw, normalizer), test)


def train_gan(cfg: ExperimentConfig, prep: Prepared, manifest: RunManifest,
              out: Path | None = None, seed_tag: str = "") -> tuple[RganModel, TrainTrace]:
    """Train the GAN on the normalized training rows; records the gan phase.

    With `out`, writes trace.csv and checkpoint.bin. The checkpoint carries
    the normalizer, the seed and the seed tag; `read_checkpoint` reads them.
    """
    gan_tag = f"gan:{seed_tag}" if seed_tag else "gan"
    with _phase(manifest, "gan"):
        model, trace = train(prep.train_set, cfg.gan, derive_seed(cfg.seed, gan_tag))
        manifest.gan = {
            "iterations": cfg.gan.iterations,
            "pretrain_final_mse": trace.pretrain_mse[-1] if trace.pretrain_mse else None,
            "final_wasserstein": trace.wasserstein[-1] if trace.wasserstein else None,
        }
        if out:
            write_csv(out / "trace.csv", TRACE_HEADER, trace.numeric_rows())
            save_checkpoint(model, out / "checkpoint.bin",
                            extra={"normalizer": prep.normalizer.to_dict(),
                                   "seed": cfg.seed, "seed_tag": seed_tag})
    return model, trace


def read_checkpoint(path) -> tuple[RganModel, NormalizationSpec | None, int | None]:
    """A `train_gan` checkpoint's model, normalizer and seed; None for one not stored.

    A normalizer that is unreadable or does not fit the model is a ContractError.
    """
    model, extra = load_checkpoint(path)
    if "normalizer" not in extra:
        return model, None, extra.get("seed")
    try:
        spec = NormalizationSpec.from_dict(extra["normalizer"])
    except (KeyError, TypeError, ValueError) as err:
        raise ContractError(f"{path}: malformed normalizer "
                            f"({type(err).__name__}: {err})") from None
    if spec.feature_lo.shape != spec.feature_hi.shape or \
            spec.feature_lo.shape != (model.n_features,):
        raise ContractError(f"{path}: normalizer does not fit the model's "
                            f"{model.n_features} features")
    return model, spec, extra.get("seed")


def generate_candidates(model: RganModel, count: int, seed: int,
                        batches: int) -> list[TabularDataset]:
    """`batches` candidate batches of `count` rows; batch i draws from sub-seed gen:i."""
    return [generate(model, count, derive_seed(seed, f"gen:{i}")) for i in range(batches)]


def choose_batch(cfg: ExperimentConfig, train_n: TabularDataset,
                 batches: list[TabularDataset]) -> tuple[int, list[BatchQuality]]:
    """The batch a run keeps and the ranking: with `select_best` on and rows to
    rank, the best by the dual data evaluation (MMD and diversity score), else 0."""
    if not (cfg.select_best and batches[0].n_rows):
        return 0, []
    return select_best_batch(train_n, batches, cfg.bandwidth, cfg.ds_folds,
                             seed=derive_seed(cfg.seed, "quality"))


def score_candidates(cfg: ExperimentConfig, model: RganModel, train_n: TabularDataset,
                     manifest: RunManifest, out: Path | None = None
                     ) -> tuple[list[TabularDataset], int, list[BatchQuality]]:
    """Generate the candidate batches, then choose one and record the ranking.

    Records the generate and quality phases and the quality block; with
    `out`, writes quality.csv when there is a ranking.
    """
    with _phase(manifest, "generate"):
        batches = generate_candidates(model, cfg.generated_count, cfg.seed,
                                      cfg.candidate_batches)
    with _phase(manifest, "quality"):
        best, report = choose_batch(cfg, train_n, batches)
        manifest.quality = {"selected_batch": best,
                            "batches": [asdict(b) for b in report]}
        if out and report:
            write_csv(out / "quality.csv", QUALITY_HEADER, quality_rows(report),
                      comments=[QUALITY_COMMENT])
    return batches, best, report


def _downstream_model(cfg: ExperimentConfig, kind: str) -> Regressor:
    """An unfitted downstream model of `kind`, one of `cfg.models`."""
    if kind == "kernel-ridge":
        return KernelRidgeRegressor(cfg.ridge)
    return MlpRegressor(cfg.mlp_hidden, cfg.mlp_epochs, cfg.mlp_learning_rate,
                        derive_seed(cfg.seed, "downstream:mlp"))


def fit_downstream(cfg: ExperimentConfig, train_n: TabularDataset, test_n: TabularDataset,
                   normalizer: NormalizationSpec, selected: TabularDataset,
                   conditions=CONDITIONS) -> dict[tuple[str, str], Metrics]:
    """Fit each downstream model per condition and score it on the test rows.

    "real-only" fits the training rows, "augmented" the training rows plus
    `selected`. Metrics are keyed (model, condition) in model-major order.
    """
    data = {"real-only": train_n, "augmented": concat(train_n, selected)}
    metrics: dict[tuple[str, str], Metrics] = {}
    for kind in cfg.models:
        for condition in conditions:
            m = evaluate(fit(_downstream_model(cfg, kind), data[condition]), test_n)
            if cfg.metrics_denormalized:
                scale_width = normalizer.label_hi - normalizer.label_lo
                m = Metrics(m.mae * scale_width, m.rmse * scale_width)
            metrics[(kind, condition)] = m
    return metrics


def run_pipeline(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                 seed_tag: str = "") -> PipelineResult:
    """Data -> selection -> GAN -> generation -> quality -> downstream.

    Writes manifest.json, config.echo.ini, trace.csv, quality.csv,
    report.csv, acquisition.csv (when selecting actively), generated.csv
    (selected batch, de-normalized) and checkpoint.bin under out_dir. On a
    phase failure the manifest is still persisted, with the error recorded
    and all completed phases' timings.
    """
    out = Path(out_dir) if out_dir else None
    with run_record(cfg, out, seed_tag) as manifest:
        prep = prepare(cfg, manifest, out)
        model, trace = train_gan(cfg, prep, manifest, out, seed_tag)
        batches, best, q_report = score_candidates(cfg, model, prep.train_set,
                                                   manifest, out)
        selected = batches[best]
        if out and selected.n_rows:
            save_csv(invert_normalizer(selected, prep.normalizer), out / "generated.csv")
        with _phase(manifest, "downstream"):
            test_set = apply_normalizer(prep.test_raw, prep.normalizer)
            metrics = fit_downstream(cfg, prep.train_set, test_set, prep.normalizer,
                                     selected)
            _report(manifest, out, REPORT_HEADER,
                    [(kind, condition, m.mae, m.rmse)
                     for (kind, condition), m in metrics.items()])
    return PipelineResult(manifest, model, trace, prep.train_set, test_set,
                          prep.normalizer, selected, q_report, metrics)


def run_select(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> Prepared:
    """The prelude alone; with `out_dir`, also selected_train.csv in raw units."""
    out = Path(out_dir) if out_dir else None
    with run_record(cfg, out) as manifest:
        prep = prepare(cfg, manifest, out)
        if out:
            save_csv(prep.train_raw, out / "selected_train.csv")
    return prep


def run_train(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> TrainTrace:
    """The prelude and the GAN; no acquisition log."""
    out = Path(out_dir) if out_dir else None
    with run_record(cfg, out) as manifest:
        _, trace = train_gan(cfg, prepare(cfg, manifest), manifest, out)
    return trace


def run_score(cfg: ExperimentConfig, checkpoint, out_dir: str | Path | None = None
              ) -> tuple[int, int, list[BatchQuality]]:
    """Rank every candidate batch of a checkpoint trained at `cfg.seed`.

    The ranking runs under `select_best = true` and its config rules,
    whatever `cfg` says. Returns the batch count, the best batch and the
    ranking.
    """
    if cfg.generated_count < 1:
        raise ConfigError(f"generated_count must be >= 1 to rank batches, "
                          f"got {cfg.generated_count}")
    ranking = replace(cfg, select_best=True)
    out = Path(out_dir) if out_dir else None
    with run_record(cfg, out) as manifest:
        model, normalizer, seed = read_checkpoint(checkpoint)
        for key, value in (("normalizer", normalizer), ("seed", seed)):
            if value is None:
                raise ContractError(f"checkpoint {checkpoint} records no {key}")
        if seed != cfg.seed:
            raise ConfigError(f"seed {cfg.seed} differs from seed {seed} "
                              f"that trained checkpoint {checkpoint}")
        train_n = prepare(cfg, manifest, checkpoint=(checkpoint, normalizer)).train_set
        batches, best, report = score_candidates(ranking, model, train_n, manifest, out)
    return len(batches), best, report


def run_generate(checkpoint, count: int, seed: int, out_dir: str | Path) -> Path:
    """Write `count` rows from a checkpoint to `out_dir`/generated.csv, returning
    that path; the rows are in raw units when the checkpoint stores a normalizer."""
    make_out_dir(Path(out_dir))
    model, normalizer, _ = read_checkpoint(checkpoint)
    batch = generate_candidates(model, count, seed, 1)[0]
    if normalizer is not None:
        batch = invert_normalizer(batch, normalizer)
    path = Path(out_dir) / "generated.csv"
    save_csv(batch, path)
    return path


# -------------------------------------------------------------- multi - arm

ABLATION_VARIANTS = (
    ("full", {}),
    ("no-shared-trunk", {"share_trunk": False}),
    ("no-dual-eval", {"active_enabled": False, "select_best": False}),
    ("no-train-select", {"active_enabled": False}),
    ("no-batch-select", {"select_best": False}),
)

ABLATE_HEADER = ["variant", "model", "mae", "rmse", "status"]
AMOUNT_HEADER = ["amount", "model", "mae", "rmse", "status"]
HYPER_HEADER = ["parameter", "value", "model", "mae", "rmse", "status"]
TIME_HEADER = ["variant", "seconds", "ratio"]

SWEEP_AMOUNTS = (100, 200, 300, 400, 500, 1000)
SWEEP_VALUES = (0.01, 0.1, 1.0, 10.0, 100.0)
SWEEP_PARAMETERS = ("gen_reg_weight", "gp_weight", "critic_reg_weight")


def _variant_config(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    gan_over = {k: v for k, v in overrides.items() if hasattr(cfg.gan, k)}
    top_over = {k: v for k, v in overrides.items() if not hasattr(cfg.gan, k)}
    gan = replace(cfg.gan, **gan_over) if gan_over else cfg.gan
    return replace(cfg, gan=gan, **top_over)


def _arm_rows(cfg: ExperimentConfig, arms, manifest: RunManifest) -> list[tuple]:
    """Run (key, callable) arms in order; one report row per model of each arm.

    `key` is the tuple of an arm's leading report columns and the callable
    returns metrics keyed (model, condition); rows read the augmented
    condition. An arm that raises anything gives one row with its status
    and NaN errors, and never aborts the others; its key, exception type
    and message go to `manifest.failures`.
    """
    rows = []
    for key, fn in arms:
        try:
            metrics = fn()
        except Exception as err:
            rows.append((*key, "-", float("nan"), float("nan"),
                         f"failed:{type(err).__name__}"))
            manifest.failures.append({"key": list(key), "type": type(err).__name__,
                                      "message": str(err)})
            continue
        for kind in cfg.models:
            m = metrics[(kind, "augmented")]
            rows.append((*key, kind, m.mae, m.rmse, "ok"))
    return rows


def run_ablation(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> list[tuple]:
    """One pipeline per variant; arms share the split but not GAN noise."""
    out = Path(out_dir) if out_dir else None
    arms = []
    for label, overrides in ABLATION_VARIANTS:
        arm_cfg = _variant_config(cfg, overrides)
        arm_out = out / label if out else None
        arms.append(((label,), lambda c=arm_cfg, o=arm_out, t=label:
                     run_pipeline(c, o, seed_tag=t).metrics))
    with run_record(cfg, out) as manifest:
        rows = _arm_rows(cfg, arms, manifest)
        _report(manifest, out, ABLATE_HEADER, rows)
    return rows


def sweep_amount(cfg: ExperimentConfig, amounts=SWEEP_AMOUNTS,
                 out_dir: str | Path | None = None) -> list[tuple]:
    """Reuse one trained GAN across generated-batch sizes.

    Generation seeds do not depend on the amount, so a larger batch extends
    a smaller one row-for-row (prefix sharing). Amount 0 reproduces the
    real-only baseline exactly. Each amount must be a valid `generated_count`.
    """
    for amount in amounts:
        try:
            replace(cfg, generated_count=amount)
        except ConfigError as err:
            raise ConfigError(f"amount {amount}: {err}") from None
    out = Path(out_dir) if out_dir else None
    with run_record(cfg, out) as manifest:
        base = run_pipeline(cfg, out / "base" if out else None)

        def amount_metrics(amount: int):
            batches = generate_candidates(base.model, amount, cfg.seed,
                                          cfg.candidate_batches)
            best, _ = choose_batch(cfg, base.train_set, batches)
            return fit_downstream(cfg, base.train_set, base.test_set, base.normalizer,
                                  batches[best], conditions=("augmented",))

        rows = _arm_rows(cfg, [((int(a),), lambda a=int(a): amount_metrics(a))
                               for a in amounts], manifest)
        _report(manifest, out, AMOUNT_HEADER, rows)
    return rows


def sweep_hyper(cfg: ExperimentConfig, parameters=SWEEP_PARAMETERS,
                values=SWEEP_VALUES, out_dir: str | Path | None = None) -> list[tuple]:
    """Vary one loss weight at a time with the others pinned at 1."""
    out = Path(out_dir) if out_dir else None
    base_gan = replace(cfg.gan, gen_reg_weight=1.0, gp_weight=1.0, critic_reg_weight=1.0)
    arms = []
    for pname in parameters:
        if pname not in SWEEP_PARAMETERS:
            raise ConfigError(f"unknown sweep parameter {pname!r}")
        for value in values:
            arm_cfg = replace(cfg, gan=replace(base_gan, **{pname: float(value)}))
            arm_out = out / f"{pname}_{value:g}" if out else None
            arms.append(((pname, float(value)), lambda c=arm_cfg, o=arm_out:
                         run_pipeline(c, o).metrics))
    with run_record(cfg, out) as manifest:
        rows = _arm_rows(cfg, arms, manifest)
        _report(manifest, out, HYPER_HEADER, rows)
    return rows


def time_variants(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> list[tuple]:
    """Wall-clock of full training vs the WGAN-GP baseline, same data/seed.

    The manifest records the prelude phases, then one gan phase per arm
    (wgan-gp, full), and the report.
    """
    out = Path(out_dir) if out_dir else None
    with run_record(cfg, out) as manifest:
        prep = prepare(cfg, manifest)
        timings = {}
        for label, gan_cfg in (("wgan-gp", cfg.gan.wgan_gp_mode()), ("full", cfg.gan)):
            train_gan(replace(cfg, gan=gan_cfg), prep, manifest)
            timings[label] = manifest.phases[-1]["seconds"]
        ratio = timings["full"] / timings["wgan-gp"] if timings["wgan-gp"] > 0 else float("inf")
        rows = [("wgan-gp", timings["wgan-gp"], 1.0), ("full", timings["full"], ratio)]
        _report(manifest, out, TIME_HEADER, rows)
    return rows
