"""Command-line entry points.

Exit codes: 0 success, 2 configuration problems, 3 data problems,
4 training divergence, 1 any other toolkit error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, DataError, DivergenceError, SoftaugError
from .harness import (AMOUNT_HEADER, ABLATE_HEADER, HYPER_HEADER, QUALITY_HEADER,
                      REPORT_HEADER, SWEEP_AMOUNTS, TIME_HEADER, ExperimentConfig,
                      _int_tuple, parse_config, quality_rows, run_ablation, run_generate,
                      run_pipeline, run_score, run_select, run_train, sweep_amount,
                      sweep_hyper, time_variants)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softaug",
        description="Regression-aware data augmentation: train, generate, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, config=True):
        if config:
            p.add_argument("--config", help="INI config file (defaults used if omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory (overrides [run] out_dir)")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="model checkpoint path")

    common(sub.add_parser("select", help="pick an informative training subset"))
    common(sub.add_parser("train", help="train the generator on the selected subset"))
    gen = sub.add_parser("generate", help="sample rows from a trained checkpoint")
    common(gen, checkpoint=True, config=False)
    gen.add_argument("--count", type=int, required=True, help="rows to generate")
    score = sub.add_parser("score", help="rank candidate batches from a checkpoint")
    common(score, checkpoint=True)
    common(sub.add_parser("pipeline", help="full run: select, train, generate, evaluate"))
    common(sub.add_parser("ablate", help="compare the full method against reduced variants"))
    amt = sub.add_parser("sweep-amount", help="vary how many generated rows are added")
    common(amt)
    amt.add_argument("--amounts", help="comma-separated row counts")
    common(sub.add_parser("sweep-hyper", help="vary one loss weight at a time"))
    common(sub.add_parser("time", help="wall-clock of full training vs plain WGAN-GP"))
    return parser


def _effective_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _select(cfg, args):
    prep = run_select(cfg, cfg.out_dir)
    return f"selected {prep.train_raw.n_rows} of {prep.pool.n_rows} pool rows", []


def _train(cfg, args):
    trace = run_train(cfg, cfg.out_dir)
    last_w = trace.wasserstein[-1] if trace.wasserstein else float("nan")
    return f"trained {cfg.gan.iterations} iterations; last wasserstein estimate {last_w:.6g}", []


def _generate(cfg, args):
    if args.count < 0:
        raise ConfigError(f"--count: row count must be >= 0, got {args.count}")
    path = run_generate(args.checkpoint, args.count, cfg.seed, cfg.out_dir or ".")
    return f"wrote {args.count} generated rows to {path}", []


def _score(cfg, args):
    batches, best, report = run_score(cfg, args.checkpoint, cfg.out_dir)
    return f"best batch: {best} of {batches}", quality_rows(report)


def _sweep_amount(cfg, args):
    amounts = SWEEP_AMOUNTS if args.amounts is None else _int_tuple(args.amounts, "--amounts")
    return None, sweep_amount(cfg, amounts, cfg.out_dir)


# command -> (header of the table it prints, or None; run(cfg, args) -> (line, rows))
COMMANDS = {
    "select": (None, _select),
    "train": (None, _train),
    "generate": (None, _generate),
    "score": (QUALITY_HEADER, _score),
    "pipeline": (REPORT_HEADER, lambda cfg, args: (
        None, [tuple(r) for r in run_pipeline(cfg, cfg.out_dir).manifest.report])),
    "ablate": (ABLATE_HEADER, lambda cfg, args: (None, run_ablation(cfg, cfg.out_dir))),
    "sweep-amount": (AMOUNT_HEADER, _sweep_amount),
    "sweep-hyper": (HYPER_HEADER, lambda cfg, args: (
        None, sweep_hyper(cfg, out_dir=cfg.out_dir))),
    "time": (TIME_HEADER, lambda cfg, args: (None, time_variants(cfg, cfg.out_dir))),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    header, run = COMMANDS[args.command]
    try:
        line, rows = run(_effective_config(args), args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except DivergenceError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 4
    except SoftaugError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if line:
        print(line)
    if header:
        print("  ".join(header))
        for row in rows:
            print("  ".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
