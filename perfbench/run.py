"""softaug benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {pipeline,select-wide,ablate}
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it uses the checkout's `src/` and
writes only under `.perfbench_out/` there, which it removes again.

--trace 0 measures the end-to-end metrics. Set-up (`setup_s`) is timed in
fresh processes, from start to the workload's inputs being ready, and the
median of several is reported. One more fresh process then runs whole
operations for about --seconds; `run_s` is their median wall time and
`peak_rss_mb` that process's peak resident memory.

--trace 1 runs the same loop with the layer tracer installed and reports
the per-layer metrics instead (perfbench/tracer.py).

Outside the timed region every run checks the outputs (perfbench/checks.py).
The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
the line before it holds the environment and the raw samples.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0
# one BLAS thread per process: the work is small matrices, and the machine
# may be shared, so extra threads add noise rather than speed
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Worker:
    """A perfbench/worker.py process that is killed if it outlives its deadline."""

    def __init__(self, argv: list[str], deadline: float):
        env = {**os.environ, **THREAD_ENV}
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), self.proc.kill)
        self.timer.start()

    def wait_ready(self) -> float:
        """Seconds from process start to its `ready` line."""
        for line in self.proc.stdout:
            if line.strip() == "ready":
                return time.perf_counter() - self.started
        raise RuntimeError("worker ended before it was ready")

    def finish(self) -> str:
        """Remaining stdout once the process has ended successfully."""
        rest = self.proc.stdout.read()
        code = self.proc.wait()
        self.timer.cancel()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return rest

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    worker = Worker(argv, deadline)
    try:
        ready = worker.wait_ready()
        return ready, worker.finish()
    finally:
        worker.stop()


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def check_outputs(workload: str, report: dict) -> list[str]:
    from perfbench import checks
    errors = []
    for run_dir in report["checked_dirs"]:
        errors += checks.check_run(run_dir)
    if len(report["ok_dirs"]) > 1:
        errors += checks.check_repeats(report["ok_dirs"])
    if workload == "ablate" and report["ok_dirs"]:
        errors += checks.check_ablation(report["ok_dirs"][0])
    if not report["checked_dirs"]:
        errors.append("no operation produced outputs to check")
    return errors + report.get("layer_errors", [])


def downstream_report(report: dict) -> list[list[str]]:
    """report.csv of the first operation: the quality numbers, recorded but not metrics."""
    if not report["ok_dirs"]:
        return []
    from perfbench import checks
    header, rows = checks.read_rows(Path(report["ok_dirs"][0]) / "report.csv")
    return [header, *rows]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pipeline", "select-wide", "ablate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "softaug" / "__init__.py").is_file():
        print(f"perfbench: no softaug sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    units = metric_units()

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                ready, _ = run_worker([*common, "--out", str(run_dir / f"setup{k}"),
                                       "--setup-only"], deadline)
                setups.append(ready)
        ready, text = run_worker([*common, "--out", str(run_dir / "timed")], deadline)
        setups.append(ready)
        report = json.loads(text.strip().splitlines()[-1])
        errors = check_outputs(args.workload, report)
        report["report"] = downstream_report(report)
    except (RuntimeError, ValueError, IndexError) as err:
        print(f"perfbench: {args.workload} seed {args.seed}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    if not report["op_seconds"]:
        print("perfbench: every operation failed", file=sys.stderr)
        return 1
    if args.trace:
        values = report["layers"]
        kind = "per_layer"
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(report["op_seconds"]),
                  "peak_rss_mb": report["peak_rss_mb"]}
        kind = "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units[kind].items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "op_seconds": report["op_seconds"], "setup_seconds": setups,
                      "report": report["report"], "check_failures": errors,
                      "environment": report["environment"]}))
    print(json.dumps({"correct": not errors, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
