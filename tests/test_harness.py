"""Harness and CLI: config parsing, pipeline artifacts, sweeps, exit codes."""
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import resign_checkpoint

from softaug import (ExperimentConfig, GanConfig, config_to_ini,
                     load_checkpoint, parse_config, run_ablation, run_pipeline,
                     save_checkpoint, sweep_amount, sweep_hyper, time_variants)
from softaug.cli import main
from softaug.data import TabularDataset, load_csv
from softaug.errors import ConfigError, ContractError, DataError
from softaug.harness import (ABLATE_HEADER, ABLATION_VARIANTS, AMOUNT_HEADER,
                             HYPER_HEADER, SWEEP_PARAMETERS, SWEEP_VALUES, _PARSERS,
                             _SCHEMA, RunManifest, _arm_rows, choose_batch, generate,
                             write_csv)
from softaug.quality import mmd2
from softaug.regress import Metrics
from softaug.rgan import RganModel
from softaug.rng import SeededRng, derive_seed

PHASES = ["data", "selection", "normalize", "gan", "generate", "quality",
          "downstream"]


def _lean(**overrides):
    gan = GanConfig(noise_dim=4, n_critic=2, batch_size=8, iterations=4,
                    pretrain_epochs=3, trunk_width=8, gen_hidden=(8,),
                    critic_hidden=8, regressor_hidden=4)
    base = dict(dataset_n=80, test_count=30, train_count=16, initial_count=3,
                candidate_batches=2, generated_count=24, ds_folds=3,
                models=("kernel-ridge",), gan=gan)
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------- config

def test_empty_config_text_gives_defaults():
    assert parse_config("\n") == ExperimentConfig()


def test_readme_config_block_parses_to_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config(block) == ExperimentConfig()


def test_parse_covers_every_section():
    cfg = parse_config("""
[dataset]
name = friedman-like
n = 300
noise_sd = 0.25

[split]
test_count = 40
train_count = 30

[active]
enabled = false
initial_count = 4

[gan]
iterations = 7
gp_weight = 0.25
share_trunk = no
gen_hidden = 16, 8
pretrain_lr =

[quality]
candidate_batches = 3
bandwidth = 0.9
select_best = off

[downstream]
models = mlp
mlp_hidden = 8,4
metrics_denormalized = yes

[run]
seed = 11
""")
    assert cfg.dataset_name == "friedman-like" and cfg.dataset_n == 300
    assert cfg.noise_sd == 0.25
    assert cfg.test_count == 40 and cfg.train_count == 30
    assert cfg.active_enabled is False and cfg.initial_count == 4
    assert cfg.gan.iterations == 7 and cfg.gan.gp_weight == 0.25
    assert cfg.gan.share_trunk is False and cfg.gan.gen_hidden == (16, 8)
    assert cfg.gan.pretrain_lr is None
    assert cfg.candidate_batches == 3 and cfg.bandwidth == "0.9"
    assert cfg.select_best is False
    assert cfg.models == ("mlp",) and cfg.mlp_hidden == (8, 4)
    assert cfg.metrics_denormalized is True
    assert cfg.seed == 11


def test_parse_rejects_unknown_names_and_bad_values():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config("[gibberish]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[gan]\nmomentum = 0.9\n")
    with pytest.raises(ConfigError, match="unknown key 'workers'"):
        parse_config("[run]\nworkers = 2\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("[split]\ntest_count = many\n")
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_config("[active]\nenabled = maybe\n")
    with pytest.raises(ConfigError, match="cannot parse config"):
        parse_config("just some words\nwithout structure\n")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 3\n",
    "[DEFAULT]\nseed = 3\n[run]\nout_dir = x\n",
    "[DEFAULT]\nseed = 3\n[split]\ntest_count = 100\n",
    "[DEFAULT]\n[run]\nseed = 3\n",
], ids=["alone", "next-to-run", "next-to-split", "empty"])
def test_parse_rejects_a_default_section(text, tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
        parse_config(text)
    path = tmp_path / "default.ini"
    path.write_text(text)
    assert main(["pipeline", "--config", str(path)]) == 2
    assert "[DEFAULT]" in capsys.readouterr().err


def test_parse_reads_a_file_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 9\n")
    assert parse_config(str(path)).seed == 9
    with pytest.raises(ConfigError, match="cannot read config .*absent.ini"):
        parse_config(str(tmp_path / "absent.ini"))


def test_parse_drops_a_byte_order_mark(tmp_path):
    text = config_to_ini(_lean(seed=9)).encode()
    plain, marked = tmp_path / "plain.ini", tmp_path / "bom.ini"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert parse_config(str(marked)) == parse_config(str(plain)) == _lean(seed=9)


def test_config_roundtrips_through_ini():
    cfg = _lean(noise_sd=0.125, bandwidth="0.7", models=("kernel-ridge", "mlp"),
                metrics_denormalized=True,
                gan=GanConfig(pretrain_lr=0.01, gen_hidden=(16, 8)))
    assert parse_config(config_to_ini(cfg)) == cfg
    # None pretrain_lr serializes to empty and parses back to None
    assert parse_config(config_to_ini(ExperimentConfig())) == ExperimentConfig()


def test_config_with_every_field_changed_roundtrips_through_ini():
    gan = GanConfig(noise_dim=3, n_critic=2, gp_weight=0.25, gen_reg_weight=2.0,
                    critic_reg_weight=0.0, learning_rate=3e-3, batch_size=9,
                    iterations=11, pretrain_epochs=0, pretrain_lr=0.01,
                    share_trunk=False, trunk_width=5, gen_hidden=(4, 3),
                    critic_hidden=6, regressor_hidden=2)
    cfg = ExperimentConfig(
        source="csv", dataset_name="friedman-like", dataset_n=321, noise_sd=0.3,
        csv_path="data/plant.csv", label_column="target", test_count=17,
        train_count=19, active_enabled=False, initial_count=4, gan=gan,
        candidate_batches=3, generated_count=77, bandwidth="0.7", ds_folds=4,
        select_best=False, models=("mlp",), mlp_epochs=12, mlp_learning_rate=0.02,
        mlp_hidden=(5, 6, 7), ridge=0.5, metrics_denormalized=True, seed=99,
        out_dir="runs/all")
    # every field holds a valid value other than its default
    for cls, value, default in ((ExperimentConfig, cfg, ExperimentConfig()),
                                (GanConfig, gan, GanConfig())):
        for f in fields(cls):
            if f.name != "gan":
                assert getattr(value, f.name) != getattr(default, f.name), f.name
    assert parse_config(config_to_ini(cfg)) == cfg


def test_ini_schema_and_config_fields_match_one_to_one():
    targets = [(section == "gan", name) for section, keys in _SCHEMA.items()
               for name in keys.values()]
    fields_ = [(False, f.name) for f in fields(ExperimentConfig) if f.name != "gan"]
    fields_ += [(True, f.name) for f in fields(GanConfig)]
    assert sorted(targets) == sorted(fields_)
    assert len(set(targets)) == len(targets)
    assert len(_SCHEMA["gan"]) == len(fields(GanConfig)) == 15
    # every field's annotation has a parser, so a field of a new type fails here
    for cls in (ExperimentConfig, GanConfig):
        for f in fields(cls):
            if f.name != "gan":
                assert f.type in _PARSERS, (cls.__name__, f.name, f.type)


def test_config_validation():
    nan, inf = float("nan"), float("inf")
    # (overrides, fragment the error names)
    for bad, fragment in (({"source": "excel"}, "excel"),
                          ({"source": "csv"}, "dataset.path"),
                          ({"test_count": 0}, "test_count"),
                          ({"models": ("forest",)}, "forest"),
                          ({"models": ("mlp", "mlp", "kernel-ridge")},
                           "downstream model 'mlp' is listed more than once"),
                          ({"bandwidth": "-2"}, "bandwidth"),
                          ({"bandwidth": "0"}, "bandwidth"),
                          ({"bandwidth": "nan"}, "bandwidth"),
                          ({"bandwidth": "inf"}, "bandwidth"),
                          ({"bandwidth": "wide"}, "bandwidth"),
                          ({"bandwidth": "1e-300"}, "bandwidth"),
                          ({"bandwidth": "1e155"}, "bandwidth"),
                          ({"generated_count": -1}, "generated_count"),
                          ({"initial_count": -1}, r"initial_count must be 0 or within \[2, "),
                          ({"initial_count": 1}, r"train_count 50\], got 1"),
                          ({"initial_count": 51}, r"train_count 50\], got 51"),
                          ({"dataset_n": 0}, "dataset_n"),
                          ({"noise_sd": -1.0}, "noise_sd"),
                          ({"noise_sd": nan}, "noise_sd"),
                          ({"noise_sd": inf}, "noise_sd"),
                          ({"ridge": nan}, "ridge"),
                          ({"ridge": -1.0}, "ridge"),
                          ({"ridge": 0.0}, "ridge must be finite and > 0, got 0.0"),
                          ({"mlp_learning_rate": 0.0}, "mlp_learning_rate"),
                          ({"mlp_learning_rate": nan}, "mlp_learning_rate"),
                          ({"mlp_hidden": (16, 0)}, "mlp_hidden"),
                          ({"mlp_epochs": -1}, "mlp_epochs"),
                          ({"ds_folds": 1}, "ds_folds must be >= 2, got 1"),
                          ({"ds_folds": 0}, "ds_folds must be >= 2, got 0"),
                          ({"generated_count": 3}, "generated_count 3 is below ds_folds 5"),
                          ({"train_count": 16, "ds_folds": 20},
                           "train_count 16 is below ds_folds 20")):
        with pytest.raises(ConfigError, match=fragment):
            ExperimentConfig(**bad)
    # the rows-per-fold rule binds only the sets a ranking cuts into folds
    for good in ({"generated_count": 0},
                 {"generated_count": 3, "select_best": False},
                 {"train_count": 4, "ds_folds": 5, "select_best": False},
                 {"train_count": 5, "generated_count": 5},
                 {"initial_count": 2}, {"initial_count": 50}):
        ExperimentConfig(**good)


def test_ranking_reads_the_config_bandwidth():
    rng = np.random.default_rng(3)
    train_n, *batches = [TabularDataset(rng.uniform(size=(9, 2)), rng.uniform(size=9),
                                        ("x1", "x2")) for _ in range(3)]
    seen = []
    for text, bandwidth in (("median", "median"), ("0.5", 0.5)):
        _, report = choose_batch(_lean(bandwidth=text), train_n, batches)
        seen.append([q.mmd2 for q in report])
        assert seen[-1] == [max(mmd2(train_n, b, bandwidth), 0.0) for b in batches]
    assert seen[0] != seen[1]


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b", "c"], [(1, 0.1, True), (2, 2.0 / 3.0, False)],
              comments=["note"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# note"
    assert lines[1] == "a,b,c"
    assert lines[2] == f"1,{0.1:.17g},true"
    assert lines[3] == f"2,{2.0 / 3.0:.17g},false"


def test_manifest_serializes_numpy_values():
    manifest = RunManifest(seed=0, seed_tag="", config_ini="",
                           dataset={"n": np.int64(4), "mu": np.float64(0.5),
                                    "v": np.arange(2)})
    parsed = json.loads(manifest.to_json())
    assert parsed["dataset"] == {"n": 4, "mu": 0.5, "v": [0, 1]}


# ----------------------------------------------------------------- pipeline

def test_pipeline_artifacts_and_metrics(tmp_path):
    cfg = _lean()
    result = run_pipeline(cfg, tmp_path)
    for name in ("manifest.json", "config.echo.ini", "trace.csv",
                 "checkpoint.bin", "acquisition.csv", "quality.csv",
                 "generated.csv", "report.csv"):
        assert (tmp_path / name).exists(), name

    assert set(result.metrics) == {("kernel-ridge", "real-only"),
                                   ("kernel-ridge", "augmented")}
    assert len(result.quality_report) == cfg.candidate_batches
    assert sum(q.selected for q in result.quality_report) == 1
    assert result.selected_batch.n_rows == cfg.generated_count
    assert result.train_set.n_rows == cfg.train_count

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [p["name"] for p in manifest["phases"]] == PHASES
    assert all(p["seconds"] >= 0 for p in manifest["phases"])
    assert manifest["error"] is None
    assert manifest["selection"]["method"] == "active"
    assert len(manifest["selection"]["acquisitions"]) == 16 - 3

    trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == ("iteration,critic_loss,generator_loss,regression_loss,"
                              "wasserstein,penalty")
    assert len(trace_lines) == 1 + 4
    assert [float(line.split(",")[-1]) for line in trace_lines[1:]] == result.trace.penalty
    assert len((tmp_path / "quality.csv").read_text().splitlines()) == 2 + 2
    assert parse_config((tmp_path / "config.echo.ini").read_text()) == cfg
    gen_text = (tmp_path / "generated.csv").read_text()
    assert gen_text.startswith("# provenance=generated")
    assert load_csv(tmp_path / "generated.csv", "y").n_rows == cfg.generated_count
    _, extra = load_checkpoint(tmp_path / "checkpoint.bin")
    assert extra["seed"] == cfg.seed and "normalizer" in extra

    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert rows[0] == "model,condition,mae,rmse"
    assert len(rows) == 1 + 2 * len(cfg.models)


def test_pipeline_reruns_are_bit_identical(tmp_path):
    cfg = _lean()
    run_pipeline(cfg, tmp_path / "a")
    run_pipeline(cfg, tmp_path / "b")
    for name in ("report.csv", "trace.csv", "quality.csv", "generated.csv",
                 "checkpoint.bin", "config.echo.ini"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_pipeline_failure_still_writes_the_manifest(tmp_path):
    cfg = _lean(source="csv", csv_path=str(tmp_path / "missing.csv"))
    with pytest.raises(DataError):
        run_pipeline(cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["error"]["phase"] == "data"
    assert manifest["error"]["type"] == "ParseError"
    assert manifest["phases"][0]["seconds"] is not None


def test_pipeline_random_subset_mode(tmp_path):
    result = run_pipeline(_lean(active_enabled=False), tmp_path)
    assert result.manifest.selection["method"] == "random"
    assert result.manifest.selection["acquisitions"] == []
    assert not (tmp_path / "acquisition.csv").exists()
    assert result.train_set.n_rows == 16


def test_pipeline_without_batch_gating_takes_the_first_batch():
    cfg = _lean(select_best=False)
    result = run_pipeline(cfg)
    assert result.quality_report == []
    first = generate(result.model, cfg.generated_count,
                     derive_seed(cfg.seed, "gen:0"))
    assert np.array_equal(result.selected_batch.features, first.features)


def test_pipeline_with_zero_generated_rows_matches_real_only(tmp_path):
    result = run_pipeline(_lean(generated_count=0), tmp_path)
    real = result.metrics[("kernel-ridge", "real-only")]
    aug = result.metrics[("kernel-ridge", "augmented")]
    assert real == aug
    assert not (tmp_path / "generated.csv").exists()
    assert not (tmp_path / "quality.csv").exists()


# --------------------------------------------------------------- multi - arm

def test_run_arms_isolates_toolkit_failures():
    def boom():
        raise ContractError("broken arm")

    def singular():
        return np.linalg.solve(np.zeros((2, 2)), np.ones(2))

    metrics = {("kernel-ridge", "augmented"): Metrics(0.25, 0.5)}
    manifest = RunManifest(seed=0, seed_tag="", config_ini="")
    rows = _arm_rows(_lean(), [(("good",), lambda: metrics), (("bad",), boom),
                               (("linalg",), singular), (("after",), lambda: metrics)],
                     manifest)
    assert rows[0] == ("good", "kernel-ridge", 0.25, 0.5, "ok")
    assert rows[3] == ("after", "kernel-ridge", 0.25, 0.5, "ok")
    for row, key, status in ((rows[1], "bad", "failed:ContractError"),
                             (rows[2], "linalg", "failed:LinAlgError")):
        assert (row[0], row[1], row[4]) == (key, "-", status)
        assert np.isnan(row[2]) and np.isnan(row[3])
    assert manifest.failures == [
        {"key": ["bad"], "type": "ContractError", "message": "broken arm"},
        {"key": ["linalg"], "type": "LinAlgError", "message": "Singular matrix"}]


def _assert_sweep_record(out, cfg, header, rows):
    """The sweep's top directory holds its manifest, report and config echo."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] is None
    assert manifest["report_header"] == header
    assert manifest["report"] == [list(r) for r in rows]
    assert (out / "report.csv").read_text().splitlines()[0] == ",".join(header)
    assert parse_config((out / "config.echo.ini").read_text()) == cfg


def test_ablation_covers_every_variant(tmp_path):
    cfg = _lean()
    rows = run_ablation(cfg, tmp_path)
    labels = [label for label, _ in ABLATION_VARIANTS]
    assert [r[0] for r in rows] == labels
    assert all(r[4] == "ok" for r in rows)
    _assert_sweep_record(tmp_path, cfg, ABLATE_HEADER, rows)
    for label in labels:
        manifest = json.loads((tmp_path / label / "manifest.json").read_text())
        assert manifest["error"] is None
        assert manifest["seed_tag"] == label
    random_arm = json.loads(
        (tmp_path / "no-train-select" / "manifest.json").read_text())
    assert random_arm["selection"]["method"] == "random"
    full_arm = json.loads((tmp_path / "full" / "manifest.json").read_text())
    assert full_arm["selection"]["method"] == "active"


def test_sweep_amount_zero_reproduces_the_real_only_baseline(tmp_path):
    cfg = _lean()
    baseline = run_pipeline(cfg).metrics[("kernel-ridge", "real-only")]
    rows = sweep_amount(cfg, amounts=(0, 12), out_dir=tmp_path)
    assert [r[0] for r in rows] == [0, 12]
    zero = rows[0]
    assert zero[1] == "kernel-ridge" and zero[4] == "ok"
    assert zero[2] == baseline.mae and zero[3] == baseline.rmse
    assert rows[1][4] == "ok"
    assert (tmp_path / "base" / "report.csv").exists()
    _assert_sweep_record(tmp_path, cfg, AMOUNT_HEADER, rows)


def test_sweep_amount_isolates_a_failed_amount(monkeypatch, tmp_path):
    import softaug.harness as harness
    real_generate = harness.generate

    def generate_failing_at_12(model, n, seed):
        if n == 12:
            raise np.linalg.LinAlgError("singular matrix")
        return real_generate(model, n, seed)

    monkeypatch.setattr(harness, "generate", generate_failing_at_12)
    rows = sweep_amount(_lean(), amounts=(0, 12, 18), out_dir=tmp_path)
    assert [(r[0], r[1], r[4]) for r in rows] == [
        (0, "kernel-ridge", "ok"), (12, "-", "failed:LinAlgError"),
        (18, "kernel-ridge", "ok")]
    assert np.isnan(rows[1][2]) and np.isnan(rows[1][3])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failures"] == [
        {"key": [12], "type": "LinAlgError", "message": "singular matrix"}]


def test_sweep_amount_reports_denormalized_metrics_like_the_pipeline():
    cfg = _lean(metrics_denormalized=True)
    pipe = run_pipeline(cfg)
    rows = sweep_amount(cfg, amounts=(0, cfg.generated_count))
    for row, condition in zip(rows, ("real-only", "augmented")):
        m = pipe.metrics[("kernel-ridge", condition)]
        assert (row[2], row[3], row[4]) == (m.mae, m.rmse, "ok")
    # the same sweep in normalized units, scaled by the label range
    width = pipe.normalizer.label_hi - pipe.normalizer.label_lo
    assert width != 1.0
    for row, plain in zip(rows, sweep_amount(_lean(), amounts=(0, cfg.generated_count))):
        assert row[2] == pytest.approx(plain[2] * width, rel=1e-12)
        assert row[3] == pytest.approx(plain[3] * width, rel=1e-12)


def test_sweep_hyper_single_point_matches_a_direct_run():
    cfg = _lean()
    pinned = _lean(gan=GanConfig(
        noise_dim=4, n_critic=2, batch_size=8, iterations=4, pretrain_epochs=3,
        trunk_width=8, gen_hidden=(8,), critic_hidden=8, regressor_hidden=4,
        gp_weight=1.0, gen_reg_weight=1.0, critic_reg_weight=1.0))
    direct = run_pipeline(pinned).metrics[("kernel-ridge", "augmented")]
    rows = sweep_hyper(cfg, parameters=("gp_weight",), values=(1.0,))
    assert rows == [("gp_weight", 1.0, "kernel-ridge", direct.mae,
                     direct.rmse, "ok")]


def test_sweep_hyper_row_structure_and_extremes(tmp_path):
    rows = sweep_hyper(_lean(), parameters=("critic_reg_weight",),
                       values=(0.01, 100.0), out_dir=tmp_path)
    assert [(r[0], r[1], r[5]) for r in rows] == [
        ("critic_reg_weight", 0.01, "ok"), ("critic_reg_weight", 100.0, "ok")]
    _assert_sweep_record(tmp_path, _lean(), HYPER_HEADER, rows)
    with pytest.raises(ConfigError):
        sweep_hyper(_lean(), parameters=("slope",), values=(0.1,))


def test_time_variants_reports_both_arms(tmp_path):
    rows = time_variants(_lean(), tmp_path)
    assert [r[0] for r in rows] == ["wgan-gp", "full"]
    wgan, full = rows
    assert wgan[1] > 0 and full[1] > 0
    assert wgan[2] == 1.0
    assert full[2] == pytest.approx(full[1] / wgan[1])
    assert (tmp_path / "report.csv").exists()


# ---------------------------------------------------------------------- cli

def _ini(tmp_path, cfg):
    path = tmp_path / "config.ini"
    path.write_text(config_to_ini(cfg))
    return str(path)


def test_cli_select_train_generate_score(tmp_path):
    ini = _ini(tmp_path, _lean())

    sel = tmp_path / "sel"
    assert main(["select", "--config", ini, "--out", str(sel)]) == 0
    assert (sel / "selected_train.csv").exists()
    assert (sel / "acquisition.csv").exists()

    trn = tmp_path / "trn"
    assert main(["train", "--config", ini, "--out", str(trn)]) == 0
    ckpt = trn / "checkpoint.bin"
    assert ckpt.exists() and (trn / "trace.csv").exists()

    gen = tmp_path / "gen"
    assert main(["generate", "--checkpoint", str(ckpt), "--count", "7",
                 "--seed", "3", "--out", str(gen)]) == 0
    assert load_csv(gen / "generated.csv", "y").n_rows == 7
    empty = tmp_path / "gen0"
    assert main(["generate", "--checkpoint", str(ckpt), "--count", "0",
                 "--out", str(empty)]) == 0
    assert (empty / "generated.csv").read_text().splitlines() == [
        "# provenance=generated rows=0", "x1,x2,y"]
    back = load_csv(empty / "generated.csv", "y")
    assert back.n_rows == 0 and back.columns == ("x1", "x2")

    sc = tmp_path / "sc"
    assert main(["score", "--config", ini, "--checkpoint", str(ckpt),
                 "--out", str(sc)]) == 0

    # the stage commands share the pipeline's prelude and sub-seeds
    pipe = tmp_path / "pipe"
    run_pipeline(_lean(), pipe)
    for stage, name in ((sel, "acquisition.csv"), (trn, "trace.csv"),
                        (trn, "checkpoint.bin"), (sc, "quality.csv")):
        assert (stage / name).read_bytes() == (pipe / name).read_bytes(), name
    for stage, phases in ((sel, PHASES[:3]), (trn, PHASES[:4]),
                          (sc, PHASES[:3] + ["generate", "quality"])):
        manifest = json.loads((stage / "manifest.json").read_text())
        assert [p["name"] for p in manifest["phases"]] == phases
        assert manifest["error"] is None
        echo = parse_config((stage / "config.echo.ini").read_text())
        assert echo == replace(_lean(), out_dir=str(stage))
    pipe_manifest = json.loads((pipe / "manifest.json").read_text())
    trn_manifest = json.loads((trn / "manifest.json").read_text())
    assert trn_manifest["gan"] == pipe_manifest["gan"]
    assert trn_manifest["gan"]["pretrain_final_mse"] is not None
    sc_manifest = json.loads((sc / "manifest.json").read_text())
    assert sc_manifest["quality"] == pipe_manifest["quality"]
    assert sum(b["selected"] for b in sc_manifest["quality"]["batches"]) == 1
    assert _csvs_with_cr(tmp_path) == []


def _csvs_with_cr(out):
    """The CSVs under `out` that hold a carriage return; every line should end in \\n."""
    csvs = sorted(out.rglob("*.csv"))
    assert csvs
    return [str(p.relative_to(out)) for p in csvs if b"\r" in p.read_bytes()]


def test_cli_pipeline_writes_report(tmp_path):
    ini = _ini(tmp_path, _lean())
    out = tmp_path / "run"
    assert main(["pipeline", "--config", ini, "--out", str(out)]) == 0
    assert (out / "report.csv").exists()
    assert _csvs_with_cr(out) == []


def test_cli_checkpoint_normalizer_loads_or_raises_contract_error(tmp_path):
    # a plain seeded loop of single-bit flips inside the JSON header, each
    # re-signed so the digest passes: each file loads with a normalizer that
    # fits the model, or is a ContractError
    from softaug.harness import read_checkpoint
    from softaug.data import NormalizationSpec

    model = RganModel(2, replace(_lean().gan, noise_dim=2, trunk_width=3,
                                 gen_hidden=(3,), critic_hidden=3,
                                 regressor_hidden=2), SeededRng(5))
    spec = NormalizationSpec(np.array([0.125, -2.5]), np.array([3.25, 4.0]), -1.5, 7.75)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, extra={"seed": 3, "seed_tag": "",
                                        "normalizer": spec.to_dict()})
    raw = path.read_bytes()
    header_end = 16 + int.from_bytes(raw[12:16], "little")
    start = raw.index(b'"normalizer"')
    end = raw.index(b'"seed"', start)
    assert start < end < header_end
    rng = np.random.default_rng(20250207)
    bad = tmp_path / "bad.bin"
    outcomes = {"loaded": 0, "rejected": 0}
    for pos, bit in zip(rng.integers(start, end, 1000), rng.integers(0, 8, 1000)):
        flipped = bytearray(raw)
        flipped[pos] ^= 1 << bit
        bad.write_bytes(resign_checkpoint(bytes(flipped)))
        try:
            _, got, _ = read_checkpoint(bad)
        except ContractError as err:
            assert str(bad) in str(err)
            outcomes["rejected"] += 1
        else:
            assert got is None or got.feature_lo.shape == got.feature_hi.shape == (2,)
            outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    from softaug.errors import DivergenceError, SoftaugError

    def ini_file(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    bad = ini_file("bad.ini", "[nope]\nx = 1\n")
    missing_csv = ini_file("csv.ini", config_to_ini(ExperimentConfig(
        source="csv", csv_path=str(tmp_path / "absent.csv"))))
    no_pool = ini_file("no_pool.ini", config_to_ini(_lean(test_count=80)))
    ini = ini_file("lean.ini", config_to_ini(_lean()))
    neg_width = ini_file("neg_width.ini", "[gan]\ncritic_hidden = -1\n")
    nan_weight = ini_file("nan_weight.ini", "[gan]\ngp_weight = nan\n")
    nan_ridge = ini_file("nan_ridge.ini", "[downstream]\nridge = nan\n")
    one_fold = ini_file("one_fold.ini", "[quality]\nds_folds = 1\n")
    few_rows = ini_file("few_rows.ini", "[quality]\ngenerated_count = 3\n")
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("x1,x2,y\n")
    header_only_ini = ini_file("header_only.ini", config_to_ini(ExperimentConfig(
        source="csv", csv_path=str(header_only))))
    ckpt = tmp_path / "trn" / "checkpoint.bin"
    assert main(["train", "--config", ini, "--out", str(ckpt.parent)]) == 0
    model, extra = load_checkpoint(ckpt)
    seedless = tmp_path / "seedless.bin"
    save_checkpoint(model, seedless, extra={"normalizer": extra["normalizer"]})
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(ckpt.read_bytes()[:40])
    # a renamed normalizer key keeps the header valid JSON of the same length
    renamed = tmp_path / "renamed.bin"
    renamed.write_bytes(resign_checkpoint(
        ckpt.read_bytes().replace(b'"feature_lo"', b'"feature_mo"')))

    def raising(err):
        def run(*a, **k):
            raise err
        return run

    # (argv, patched run_pipeline, exit code, stderr fragment)
    table = [
        (["pipeline", "--config", bad], None, 2, "unknown config section [nope]"),
        (["pipeline", "--config", str(tmp_path / "absent.ini")], None, 2,
         "cannot read config"),
        (["pipeline", "--config", neg_width], None, 2, "critic_hidden must be >= 1, got -1"),
        (["pipeline", "--config", nan_weight], None, 2, "gp_weight must be finite"),
        (["pipeline", "--config", nan_ridge], None, 2, "ridge must be finite"),
        (["pipeline", "--config", one_fold], None, 2, "ds_folds must be >= 2, got 1"),
        (["pipeline", "--config", few_rows], None, 2,
         "generated_count 3 is below ds_folds 5"),
        (["select", "--config", missing_csv], None, 3, "absent.csv"),
        (["select", "--config", no_pool], None, 3, "leaves a pool of 0"),
        (["pipeline", "--config", header_only_ini], None, 3, "dataset of 0 rows"),
        (["score", "--config", ini, "--checkpoint", str(ckpt), "--seed", "5"], None, 2,
         "seed 5 differs from seed 0"),
        (["score", "--config", ini, "--checkpoint", str(seedless)], None, 1,
         "seedless.bin records no seed"),
        (["generate", "--checkpoint", str(truncated), "--count", "3"], None, 1,
         "truncated.bin: malformed checkpoint header"),
        (["generate", "--checkpoint", str(tmp_path / "absent.bin"), "--count", "3"], None, 1,
         "absent.bin: cannot read checkpoint"),
        (["generate", "--checkpoint", str(ckpt), "--count", "-3"], None, 2,
         "--count: row count must be >= 0, got -3"),
        (["generate", "--checkpoint", str(renamed), "--count", "3"], None, 1,
         "renamed.bin: malformed normalizer (KeyError"),
        (["score", "--config", ini, "--checkpoint", str(renamed)], None, 1,
         "renamed.bin: malformed normalizer (KeyError"),
        (["ablate", "--workers", "2"], None, 2, "unrecognized arguments: --workers 2"),
        (["sweep-amount", "--config", ini, "--amounts", "10,abc"], None, 2,
         "--amounts: expected an integer, got 'abc'"),
        (["sweep-amount", "--config", ini, "--amounts", "10,-5"], None, 2,
         "amount -5: generated_count must be >= 0, got -5"),
        (["sweep-amount", "--config", ini, "--amounts", ","], None, 2,
         "--amounts: expected a comma-separated list of integers"),
        (["sweep-amount", "--config", ini, "--amounts", ""], None, 2,
         "--amounts: expected a comma-separated list of integers"),
        (["pipeline"], DivergenceError("no convergence"), 4, "no convergence"),
        (["pipeline"], SoftaugError("other failure"), 1, "other failure"),
    ]
    for argv, err, code, fragment in table:
        if err is not None:
            monkeypatch.setattr("softaug.cli.run_pipeline", raising(err))
        try:
            got = main(argv)
        except SystemExit as exit_:
            got = exit_.code
        stderr = capsys.readouterr().err
        # one line per error; argparse adds its usage line
        one_line = len(stderr.splitlines()) == 1 or "unrecognized arguments" in stderr
        assert (got, fragment in stderr, one_line) == (code, True, True), (argv, stderr)


def test_unusable_out_dir_is_refused_before_any_phase(tmp_path, monkeypatch, capsys):
    occupied = tmp_path / "occupied"
    occupied.write_text("")

    def no_phase(*args, **kwargs):
        raise AssertionError("a phase ran")

    monkeypatch.setattr("softaug.harness.prepare", no_phase)
    monkeypatch.setattr("softaug.harness.read_checkpoint", no_phase)
    for command in (["select"], ["train"], ["pipeline"], ["ablate"], ["sweep-amount"],
                    ["sweep-hyper"], ["time"], ["score", "--checkpoint", "absent.bin"],
                    ["generate", "--checkpoint", "absent.bin", "--count", "1"]):
        assert main([*command, "--out", str(occupied)]) == 2, command
        assert capsys.readouterr().err == (
            f"config error: cannot create output directory {occupied}: File exists\n")


def test_cli_sweep_hyper_prints_a_row_per_arm(tmp_path, capsys):
    assert main(["sweep-hyper", "--config", _ini(tmp_path, _lean())]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == HYPER_HEADER
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], float(r[1]), r[2], r[5]) for r in rows] == [
        (p, v, "kernel-ridge", "ok") for p in SWEEP_PARAMETERS for v in SWEEP_VALUES]


def _csv_cells_finite(out):
    """Every number in every CSV under `out` is finite; text cells are skipped."""
    for path in sorted(out.rglob("*.csv")):
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                continue
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not np.isfinite(value):
                    return f"{path.relative_to(out)}: {line}"
    return None


# values every probed key is set to; the keys left out name files and folders
PROBE_VALUES = ("0", "-1", "nan", "x")
UNPROBED_KEYS = ("source", "path", "out_dir")


def _with_value(ini: str, section: str, key: str, value: str) -> str:
    """`ini` with `key` of `[section]` set to `value`."""
    lines, current = [], None
    for line in ini.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
        elif current == section and line.startswith(f"{key} = "):
            line = f"{key} = {value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_cli_boundary_probes_refuse_early_or_finish_finite(tmp_path, capsys, recwarn):
    # each probe exits 2 or 3 with one line and no gan phase on record,
    # exits 4 with one line, or exits 0 with every CSV value finite; none
    # warns (pytest records a warning instead of printing it, so the
    # one-line check cannot see it)
    rng = np.random.default_rng(11)

    def pool_csv(name, x, y=None, header="x1,x2,y", **overrides):
        path = tmp_path / f"{name}.csv"
        y = rng.uniform(size=len(x)) if y is None else y
        path.write_text(f"{header}\n" + "".join(f"{a:.17g},{b:.17g},{c:.17g}\n"
                                                for (a, b), c in zip(x, y)))
        return _lean(source="csv", csv_path=str(path), **{"initial_count": 0, **overrides})

    u = rng.uniform(size=(120, 2))
    huge = pool_csv("huge", u * [1e160, 1.0])
    one_row = pool_csv("one_row", np.repeat(u[:1], 120, axis=0))
    few_rows = pool_csv("few_rows", u[np.arange(120) % 3])
    twenty_rows = pool_csv("twenty_rows", u[np.arange(120) % 20])
    repeated_label = pool_csv("repeated_label", u, header="x1,y,y")
    # each label is finite, but max - min is beyond the largest float
    huge_labels = 1.26e308 * np.sin(np.arange(120))
    wide_labels = pool_csv("wide_labels", u, huge_labels)
    wide_labels_random = pool_csv("wide_labels_random", u, huge_labels, active_enabled=False)
    few_rows_k5 = pool_csv("few_rows_k5", u[np.arange(120) % 3], initial_count=5)
    label_only = tmp_path / "label_only.csv"
    label_only.write_text("y\n" + "".join(f"{v:.17g}\n" for v in rng.uniform(size=120)))
    label_only_active = _lean(source="csv", csv_path=str(label_only), initial_count=0)
    label_only_random = replace(label_only_active, active_enabled=False)
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"x1,x2,y\n0.5,0.25,0.125\n0.\xff,0.5,1\n")
    latin1_csv = _lean(source="csv", csv_path=str(latin1))
    latin1_ini = config_to_ini(_lean()).encode() + b"# caf\xe9\n"
    # the csv module refuses a field over 131,072 characters
    long_field = tmp_path / "long_field.csv"
    long_field.write_text("x1,x2,y\n" + "1" * 200_000 + ",0.5,0.25\n")
    long_field_csv = _lean(source="csv", csv_path=str(long_field), select_best=False,
                           active_enabled=False)
    # a file where an output directory should go
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    ckpt = tmp_path / "trn" / "checkpoint.bin"
    assert main(["train", "--config", _ini(tmp_path, _lean()),
                 "--out", str(ckpt.parent)]) == 0
    score = ["score", "--checkpoint", str(ckpt)]

    def lean_gan(**overrides):
        return _lean(gan=replace(_lean().gan, **overrides))

    def refused(section, key, value):
        # a lean config with one value its dataclass would refuse to hold
        return _with_value(config_to_ini(_lean()), section, key, value)

    # (name, command, config or None, extra flags, exit code, stderr fragment);
    # a config is written to <name>.ini and the run goes to --out <name>
    # unless `outs` names another output path
    outs = {name: occupied for name in ("out-is-file-pipeline", "out-is-file-train",
                                        "out-is-file-ablate", "out-is-file-generate")}
    outs["out-below-file"] = occupied / "run"
    no_dir = f"cannot create output directory {occupied}"
    table = [
        ("tiny-width", ["pipeline"], refused("quality", "bandwidth", "1e-300"), [], 2,
         "2*bandwidth**2 is positive and finite, got '1e-300'"),
        ("huge-width", ["pipeline"], refused("quality", "bandwidth", "1e155"), [], 2,
         "2*bandwidth**2 is positive and finite, got '1e155'"),
        ("zero-ridge", ["pipeline"], refused("downstream", "ridge", "0"), [], 2,
         "ridge must be finite and > 0, got 0.0"),
        ("huge-features", ["pipeline"], huge, [], 3, "column(s) x1 reach"),
        ("huge-features-select", ["select"], huge, [], 3, "column(s) x1 reach"),
        ("one-distinct-row", ["pipeline"], one_row, [], 3, "pool has 1 distinct row(s)"),
        ("three-distinct-rows", ["pipeline"], few_rows, [], 0, ""),
        ("three-distinct-rows-initial-5", ["pipeline"], few_rows_k5, [], 3,
         "k=5 exceeds 3 distinct points"),
        ("twenty-distinct-rows", ["pipeline"], twenty_rows, [], 0, ""),
        ("repeated-header", ["pipeline"], repeated_label, [], 3,
         "header repeats column(s) 'y'"),
        ("wide-labels", ["pipeline"], wide_labels, [], 3,
         "column(s) y span more than the largest float"),
        ("wide-labels-random", ["pipeline"], wide_labels_random, [], 3,
         "column(s) y span more than the largest float"),
        ("label-only", ["pipeline"], label_only_active, [], 3,
         "label_only.csv: no feature column besides the label column 'y'"),
        ("label-only-random", ["pipeline"], label_only_random, [], 3,
         "label_only.csv: no feature column besides the label column 'y'"),
        ("repeated-model", ["pipeline"],
         refused("downstream", "models", "mlp, mlp, kernel-ridge"), [], 2,
         "downstream model 'mlp' is listed more than once"),
        ("initial-one", ["pipeline"], refused("active", "initial_count", "1"), [], 2,
         "initial_count must be 0 or within [2, train_count 16], got 1"),
        ("initial-above-budget", ["pipeline"], refused("active", "initial_count", "17"), [], 2,
         "initial_count must be 0 or within [2, train_count 16], got 17"),
        ("amount-below-folds", ["sweep-amount"], _lean(), ["--amounts", "0,2,24"], 2,
         "amount 2: generated_count 2 is below ds_folds 3"),
        ("score-no-rows", score, _lean(generated_count=0), [], 2,
         "generated_count must be >= 1 to rank batches, got 0"),
        ("score-rows-below-folds", score, _lean(generated_count=2, select_best=False), [],
         2, "generated_count 2 is below ds_folds 3"),
        ("non-utf8-config", ["pipeline"], latin1_ini, [], 2,
         "non-utf8-config.ini: not UTF-8 text (invalid continuation byte 0xe9)"),
        ("non-utf8-csv", ["pipeline"], latin1_csv, [], 3,
         "latin1.csv: not UTF-8 text (invalid start byte 0xff)"),
        ("long-field", ["select"], long_field_csv, [], 3,
         "long_field.csv: line 2: field larger than field limit (131072)"),
        ("huge-noise", ["pipeline"], refused("dataset", "noise_sd", "1e308"), [], 2,
         "noise_sd 1e+308 drives labels past the largest float"),
        # the sigmoid's exp overflows to inf, and 1 / (1 + inf) is exactly 0.0
        ("huge-learning-rate", ["pipeline"], refused("gan", "learning_rate", "1e6"), [], 0, ""),
        # training overflows on its way to a finite end or to divergence
        ("huge-gen-reg-weight", ["pipeline"], lean_gan(gen_reg_weight=1e308), [], 0, ""),
        ("huge-gp-weight", ["pipeline"], lean_gan(gp_weight=1e308), [], 4,
         "non-finite gradient at optimizer step"),
        ("huge-critic-reg-weight", ["pipeline"], lean_gan(critic_reg_weight=1e308), [], 0, ""),
        ("huge-gan-learning-rate", ["pipeline"], lean_gan(learning_rate=1e308), [], 4,
         "non-finite gradient at optimizer step"),
        ("huge-pretrain-lr", ["pipeline"], lean_gan(pretrain_lr=1e308), [], 4,
         "non-finite gradient at optimizer step"),
        ("huge-mlp-learning-rate", ["pipeline"],
         _lean(models=("kernel-ridge", "mlp"), mlp_learning_rate=1e308), [], 4,
         "non-finite gradient at optimizer step"),
        ("score-other-width", score, _lean(dataset_name="friedman-like"), [], 2,
         f"the config's dataset has 10 features; checkpoint {ckpt} was trained on 2"),
        ("out-is-file-pipeline", ["pipeline"], _lean(), [], 2, f"{no_dir}: File exists"),
        ("out-is-file-train", ["train"], _lean(), [], 2, f"{no_dir}: File exists"),
        ("out-is-file-ablate", ["ablate"], _lean(), [], 2, f"{no_dir}: File exists"),
        ("out-is-file-generate", ["generate", "--checkpoint", str(ckpt)], None,
         ["--count", "3"], 2, f"{no_dir}: File exists"),
        ("out-below-file", ["pipeline"], _lean(), [], 2, f"{no_dir}/run: Not a directory"),
    ]
    for name, command, cfg, extra, code, fragment in table:
        config = []
        if cfg is not None:
            text = cfg if isinstance(cfg, (str, bytes)) else config_to_ini(cfg)
            path = tmp_path / f"{name}.ini"
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
            config = ["--config", str(path)]
        out = outs.get(name, tmp_path / name)
        got = main([*command, *config, "--out", str(out), *extra])
        stderr = capsys.readouterr().err
        assert (got, fragment in stderr) == (code, True), (name, stderr)
        assert not recwarn.list, (name, [str(w.message) for w in recwarn.list])
        if code:
            assert len(stderr.splitlines()) == 1, (name, stderr)
        if code in (2, 3):
            manifest = out / "manifest.json"
            if manifest.exists():
                phases = [p["name"] for p in json.loads(manifest.read_text())["phases"]]
                assert "gan" not in phases, (name, phases)
            assert not (out / "base").exists(), name
        elif code == 0:
            assert _csv_cells_finite(out) is None, (name, _csv_cells_finite(out))
    # a width mismatch is refused in the data phase, before selection runs
    manifest = json.loads((tmp_path / "score-other-width" / "manifest.json").read_text())
    assert [p["name"] for p in manifest["phases"]] == ["data"]


def test_every_schema_key_refuses_or_runs_finite(tmp_path, capsys, recwarn):
    # each probe exits 2, 3 or 4 with one stderr line, or exits 0 with an
    # empty stderr and every CSV value finite; none warns. The one NaN
    # allowed: critic_reg_weight = 0 turns the critic's regression term off,
    # and trace.csv's regression_loss column reads NaN for it. Both models
    # run, so the [downstream] mlp keys reach a fit
    base = config_to_ini(_lean(models=("kernel-ridge", "mlp")))
    probes = [(section, key, value) for section, keys in _SCHEMA.items()
              for key in keys if key not in UNPROBED_KEYS for value in PROBE_VALUES]
    assert len(probes) == 4 * (sum(map(len, _SCHEMA.values())) - len(UNPROBED_KEYS))
    for section, key, value in probes:
        name = f"{section}.{key}={value}"
        path = tmp_path / f"{name}.ini"
        path.write_text(_with_value(base, section, key, value))
        out = tmp_path / name
        got = main(["pipeline", "--config", str(path), "--out", str(out)])
        stderr = capsys.readouterr().err
        assert got in (0, 2, 3, 4), (name, got, stderr)
        assert not recwarn.list, (name, [str(w.message) for w in recwarn.list])
        assert len(stderr.splitlines()) == (1 if got else 0), (name, stderr)
        if got:
            continue
        if (key, value) == ("critic_reg_weight", "0"):
            trace = out / "trace.csv"
            lines = trace.read_text().splitlines()
            column = lines[0].split(",").index("regression_loss")
            cells = [line.split(",") for line in lines[1:]]
            assert all(np.isnan(float(c[column])) for c in cells), name
            trace.write_text("\n".join(",".join(c[:column] + c[column + 1:])
                                       for c in cells) + "\n")
        assert _csv_cells_finite(out) is None, (name, _csv_cells_finite(out))
