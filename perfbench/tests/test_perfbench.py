"""The benchmark's own tests: checks catch corrupted outputs, counts repeat.

Outputs come from seconds-long variants of the workloads. Each corruption
test damages one artifact of a copy and asserts that the check guarding it
reports a failure, after the same check passed on the untouched copy.
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import softaug  # noqa: E402
from softaug import ExperimentConfig, GanConfig  # noqa: E402
from perfbench import checks, tracer  # noqa: E402
from perfbench.worker import Capture, save_arrays  # noqa: E402
from perfbench.workloads import write_wide_table  # noqa: E402

SMALL = dict(test_count=60, train_count=16, generated_count=40, candidate_batches=3,
             mlp_epochs=5, gan=GanConfig(iterations=3, pretrain_epochs=3))


def _pipeline(cfg, out):
    save_arrays(out, softaug.run_pipeline(cfg, out_dir=out))
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("perfbench")
    synth = ExperimentConfig(dataset_n=160, seed=3, **SMALL)
    table = base / "wide.csv"
    write_wide_table(3, table, rows=180)
    wide = ExperimentConfig(source="csv", csv_path=str(table), seed=3, **SMALL)
    out = {"pipeline": _pipeline(synth, base / "op0"),
           "repeat": _pipeline(synth, base / "op1"),
           "wide": _pipeline(wide, base / "wide")}
    from softaug import harness
    with Capture(harness) as cap:
        softaug.run_ablation(synth, out_dir=base / "ablate")
    for run_dir, result in cap.results:
        save_arrays(run_dir, result)
    out["ablate"] = base / "ablate"
    return out


def test_checks_pass_on_untouched_outputs(outputs):
    assert checks.check_run(outputs["pipeline"]) == []
    assert checks.check_run(outputs["wide"]) == []
    assert checks.check_repeats([outputs["pipeline"], outputs["repeat"]]) == []
    assert checks.check_ablation(outputs["ablate"]) == []
    for arm in checks.ARMS:
        assert checks.check_run(outputs["ablate"] / arm) == [], arm


def _edit_csv(path, edit):
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    head = lines[start].split(",")
    rows = [line.split(",") for line in lines[start + 1:]]
    edit(head, rows)
    path.write_text("\n".join(lines[:start] + [",".join(head)]
                              + [",".join(r) for r in rows]) + "\n")


def _scale(rows, row, col, factor):
    rows[row][col] = repr(float(rows[row][col]) * factor)


def _report_mae(head, rows):
    row = next(i for i, r in enumerate(rows) if r[:2] == ["kernel-ridge", "augmented"])
    _scale(rows, row, head.index("mae"), 1.0001)


def _selected_mmd(head, rows):
    row = next(i for i, r in enumerate(rows) if r[head.index("selected")] == "true")
    _scale(rows, row, head.index("mmd2"), 1.01)


def _move_flag(head, rows):
    col = head.index("selected")
    row = next(i for i, r in enumerate(rows) if r[col] == "true")
    rows[row][col], rows[(row + 1) % len(rows)][col] = "false", "true"


def _acq_d_x(head, rows):
    _scale(rows, len(rows) // 2, head.index("d_x"), 1.001)


def _acq_swap(head, rows):
    col = head.index("index")
    rows[0][col], rows[1][col] = rows[1][col], rows[0][col]


def _generated_outside(head, rows):
    rows[0][0] = repr(float(max(float(r[0]) for r in rows)) + 1.0)


def _trace_drop(head, rows):
    rows.pop()


def _trace_nan(head, rows):
    rows[1][head.index("wasserstein")] = "nan"


CORRUPTIONS = [
    ("report.csv", _report_mae, lambda d: checks.check_kernel_ridge_report(checks.RunView(d))),
    ("quality.csv", _selected_mmd, lambda d: checks.check_selected_mmd(checks.RunView(d))),
    ("quality.csv", _move_flag, lambda d: checks.check_selected_flag(checks.RunView(d))),
    ("acquisition.csv", _acq_d_x, lambda d: checks.check_acquisitions(checks.RunView(d))),
    ("acquisition.csv", _acq_swap, lambda d: checks.check_acquisitions(checks.RunView(d))),
    ("generated.csv", _generated_outside, lambda d: checks.check_generated_range(checks.RunView(d))),
    ("trace.csv", _trace_drop, checks.check_trace),
    ("trace.csv", _trace_nan, checks.check_trace),
]


@pytest.mark.parametrize("source", ["pipeline", "wide"])
@pytest.mark.parametrize("name, edit, check", CORRUPTIONS,
                         ids=[f"{c[0]}-{c[1].__name__}" for c in CORRUPTIONS])
def test_each_check_fails_on_a_corrupted_output(outputs, tmp_path, source, name, edit, check):
    copy = tmp_path / "run"
    shutil.copytree(outputs[source], copy)
    assert check(copy) == []
    _edit_csv(copy / name, edit)
    assert check(copy) != []


def test_data_check_fails_on_shifted_test_rows(outputs, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(outputs["pipeline"], copy)
    arrays = dict(np.load(copy / "arrays.npz"))
    arrays["test"] = arrays["test"] + 1e-9
    np.savez(copy / "arrays.npz", **arrays)
    assert checks.check_data(checks.RunView(copy)) != []


def test_repeat_check_fails_on_one_changed_byte(outputs, tmp_path):
    copy = tmp_path / "op1"
    shutil.copytree(outputs["repeat"], copy)
    _edit_csv(copy / "report.csv", _report_mae)
    assert checks.check_repeats([outputs["pipeline"], copy]) != []


def test_ablation_check_fails_when_an_arm_acquires_differently(outputs, tmp_path):
    copy = tmp_path / "ablate"
    shutil.copytree(outputs["ablate"], copy)
    _edit_csv(copy / "no-batch-select" / "acquisition.csv", _acq_swap)
    assert checks.check_ablation(copy) != []


def test_node_counts_repeat_exactly():
    cfg = GanConfig()
    first = tracer.node_counts(cfg, 2)
    assert first == tracer.node_counts(cfg, 2) == tracer.node_counts(cfg, 10)
    assert first["autodiff.nodes_per_iteration"] > cfg.n_critic * first["autodiff.nodes_per_critic_step"]


def test_traced_counts_repeat_across_operations(tmp_path):
    cfg = ExperimentConfig(dataset_n=160, seed=5, **SMALL)
    t = tracer.Tracer()
    t.install()
    try:
        ops = []
        for i in range(2):
            softaug.run_ablation(cfg, out_dir=tmp_path / f"op{i}")
            ops.append(tracer.op_metrics(t.next_op()))
    finally:
        t.uninstall()
    metrics, errors = tracer.layer_metrics(ops)
    assert errors == []
    assert metrics["active.select_calls"] == 3
    assert metrics["data.prepare_calls"] == 5
    assert softaug.run_pipeline is softaug.harness.run_pipeline
    assert not hasattr(softaug.harness.run_pipeline, "__wrapped__")


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = set(tracer.op_metrics(tracer.OpRecord()))
    layer_names |= set(tracer.node_counts(GanConfig(iterations=1, n_critic=1), 2))
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
