"""One fresh benchmark process: set up a workload, then time its operations.

Started by run.py; not meant to be run by hand. It imports softaug from
the checkout's `src/`, builds the workload's inputs and prints `ready`,
which ends the set-up that run.py times. With --setup-only it stops there.
Otherwise it runs whole operations back to back (closed loop, one at a
time) until the next one would end past --seconds (at least MIN_OPS while
they fit in 1.5 x --seconds), then prints one JSON
line: per-operation wall times, failures, peak RSS, the environment and,
with --trace 1, the per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_softaug():
    """softaug from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "softaug" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no softaug sources under {src}")
    sys.path[:0] = [str(ROOT), str(src)]
    import softaug
    if Path(softaug.__file__).resolve().parent != (src / "softaug").resolve():
        raise SystemExit(f"perfbench: imported softaug from {softaug.__file__}, not {src}")
    return softaug


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def save_arrays(run_dir: Path, result) -> None:
    """The returned normalized sets, for the independent checks."""
    import numpy as np
    norm = result.normalizer
    np.savez(run_dir / "arrays.npz", train=result.train_set.joint(),
             test=result.test_set.joint(), selected=result.selected_batch.joint(),
             feature_lo=norm.feature_lo, feature_hi=norm.feature_hi,
             label_lo=norm.label_lo, label_hi=norm.label_hi)


class Capture:
    """Keeps (out_dir, result) of every run_pipeline call while installed."""

    def __init__(self, harness):
        self.harness = harness
        self.results = []

    def __enter__(self):
        self.orig = self.harness.run_pipeline

        def capture(cfg, out_dir=None, seed_tag=""):
            result = self.orig(cfg, out_dir, seed_tag=seed_tag)
            self.results.append((Path(out_dir), result))
            return result

        self.harness.run_pipeline = capture
        return self

    def __exit__(self, *exc):
        self.harness.run_pipeline = self.orig
        return False


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_softaug()
    from softaug import harness
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    cfg = workload.build(args.seed, args.out / "inputs")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from perfbench import tracer as tr
        tracer = tr.Tracer()
        tracer.install()

    times, failed, op_dirs, ok_dirs, layer_ops, captured = [], 0, [], [], [], []
    start = time.perf_counter()
    while True:
        op_dir = args.out / f"op{len(op_dirs)}"
        op_dirs.append(op_dir)
        first = len(op_dirs) == 1
        try:
            # the first operation's pipeline results feed the output checks
            with Capture(harness) if first else contextlib.nullcontext() as cap:
                t0 = time.perf_counter()
                workload.operation(cfg, op_dir)
                dt = time.perf_counter() - t0
            if first:
                captured = cap.results
            times.append(dt)
            ok_dirs.append(op_dir)
        except Exception:
            failed += 1
            traceback.print_exc()
        if tracer:
            layer_ops.append(tr.op_metrics(tracer.next_op()))
        elapsed = time.perf_counter() - start
        typical = statistics.median(times) if times else elapsed / len(op_dirs)
        # stop before an operation that would end past --seconds; allow up
        # to half as long again to reach MIN_OPS samples for the median
        limit = args.seconds if len(op_dirs) >= MIN_OPS else 1.5 * args.seconds
        if elapsed + typical > limit:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"op_seconds": times, "attempted": len(op_dirs), "failed": failed,
           "peak_rss_mb": peak_rss_mb, "ok_dirs": [str(d) for d in ok_dirs],
           "checked_dirs": [str(d) for d, _ in captured],
           "environment": environment()}
    for run_dir, result in captured:
        save_arrays(run_dir, result)
    if tracer:
        tracer.uninstall()
        layers, count_errors = tr.layer_metrics(layer_ops)
        n_features = captured[0][1].train_set.n_features if captured else 2
        nodes = [tr.node_counts(cfg.gan, n_features) for _ in range(2)]
        if nodes[0] != nodes[1]:
            count_errors.append(f"node counts differ between passes: {nodes}")
        layers.update(nodes[0])
        out["layers"] = layers
        out["layer_errors"] = count_errors
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
