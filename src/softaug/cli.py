"""Command-line entry points.

Exit codes: 0 success, 2 configuration problems, 3 data problems,
4 training divergence, 1 any other toolkit error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .data import NormalizationSpec, apply_normalizer, invert_normalizer, save_csv
from .errors import ConfigError, ContractError, DataError, DivergenceError, SoftaugError
from .harness import (ACQ_HEADER, AMOUNT_HEADER, ABLATE_HEADER, HYPER_HEADER,
                      QUALITY_HEADER, SWEEP_AMOUNTS, TIME_HEADER, ExperimentConfig,
                      _int_tuple, acquisition_rows, generate_candidates, parse_config,
                      prepare, quality_rows, rank_candidates, run_ablation, run_pipeline,
                      run_record, score_candidates, sweep_amount, sweep_hyper,
                      time_variants, train_gan, write_csv)
from .rgan import RganModel, load_checkpoint


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


def _amounts(text: str) -> tuple[int, ...]:
    """The --amounts list: at least one integer, none negative."""
    amounts = _int_tuple(text, "--amounts")
    for amount in amounts:
        if amount < 0:
            raise ConfigError(f"--amounts: row counts must be >= 0, got {amount}")
    return amounts


def _out_dir(cfg: ExperimentConfig) -> Path | None:
    return Path(cfg.out_dir) if cfg.out_dir else None


def _print_rows(header, rows) -> None:
    print("  ".join(header))
    for row in rows:
        print("  ".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row))


def _cmd_select(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    with run_record(cfg, out) as manifest:
        prep = prepare(cfg, manifest)
        print(f"selected {prep.train_raw.n_rows} of {prep.pool.n_rows} pool rows")
        if out:
            save_csv(prep.train_raw, out / "selected_train.csv")
            if prep.acquisitions:
                write_csv(out / "acquisition.csv", ACQ_HEADER,
                          acquisition_rows(prep.acquisitions))
    return 0


def _cmd_train(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    with run_record(cfg, out) as manifest:
        _, trace = train_gan(cfg, prepare(cfg, manifest), manifest, out)
    last_w = trace.wasserstein[-1] if trace.wasserstein else float("nan")
    print(f"trained {cfg.gan.iterations} iterations; last wasserstein estimate {last_w:.6g}")
    return 0


def _load_checkpoint(path) -> tuple[RganModel, dict, NormalizationSpec | None]:
    """`load_checkpoint` plus the stored normalizer, None when there is none.

    A normalizer that cannot be read, or that does not fit the model's
    features, is a ContractError naming the checkpoint.
    """
    model, extra = load_checkpoint(path)
    if "normalizer" not in extra:
        return model, extra, None
    try:
        spec = NormalizationSpec.from_dict(extra["normalizer"])
    except (KeyError, TypeError, ValueError) as err:
        raise ContractError(f"{path}: malformed normalizer "
                            f"({type(err).__name__}: {err})") from None
    if spec.feature_lo.shape != spec.feature_hi.shape or \
            spec.feature_lo.shape != (model.n_features,):
        raise ContractError(f"{path}: normalizer does not fit the model's "
                            f"{model.n_features} features")
    return model, extra, spec


def _cmd_generate(args) -> int:
    if args.count < 0:
        raise ConfigError(f"--count: row count must be >= 0, got {args.count}")
    model, _, normalizer = _load_checkpoint(args.checkpoint)
    seed = args.seed if args.seed is not None else 0
    batch = generate_candidates(model, args.count, seed, 1)[0]
    if normalizer is not None:
        batch = invert_normalizer(batch, normalizer)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    save_csv(batch, out / "generated.csv")
    print(f"wrote {batch.n_rows} generated rows to {out / 'generated.csv'}")
    return 0


def _cmd_score(cfg: ExperimentConfig, checkpoint: str) -> int:
    """Rank every candidate batch, whatever `select_best` says."""
    out = _out_dir(cfg)
    with run_record(cfg, out) as manifest:
        model, extra, normalizer = _load_checkpoint(checkpoint)
        for key in ("normalizer", "seed"):
            if key not in extra:
                raise ContractError(f"checkpoint {checkpoint} records no {key}")
        if extra["seed"] != cfg.seed:
            raise ConfigError(f"seed {cfg.seed} differs from seed {extra['seed']} "
                              f"that trained checkpoint {checkpoint}")
        train_n = apply_normalizer(prepare(cfg, manifest).train_raw, normalizer)
        batches, best, report = score_candidates(cfg, model, train_n, manifest, out,
                                                 pick=rank_candidates)
    print(f"best batch: {best} of {len(batches)}")
    _print_rows(QUALITY_HEADER, quality_rows(report))
    return 0


def _cmd_pipeline(cfg: ExperimentConfig) -> int:
    result = run_pipeline(cfg, _out_dir(cfg))
    _print_rows(result.manifest.report_header, [tuple(r) for r in result.manifest.report])
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        cfg = _effective_config(args)
        if args.command == "select":
            return _cmd_select(cfg)
        if args.command == "train":
            return _cmd_train(cfg)
        if args.command == "score":
            return _cmd_score(cfg, args.checkpoint)
        if args.command == "pipeline":
            return _cmd_pipeline(cfg)
        if args.command == "ablate":
            rows = run_ablation(cfg, _out_dir(cfg))
            _print_rows(ABLATE_HEADER, rows)
            return 0
        if args.command == "sweep-amount":
            amounts = SWEEP_AMOUNTS if args.amounts is None else _amounts(args.amounts)
            rows = sweep_amount(cfg, amounts, _out_dir(cfg))
            _print_rows(AMOUNT_HEADER, rows)
            return 0
        if args.command == "sweep-hyper":
            rows = sweep_hyper(cfg, out_dir=_out_dir(cfg))
            _print_rows(HYPER_HEADER, rows)
            return 0
        if args.command == "time":
            rows = time_variants(cfg, _out_dir(cfg))
            _print_rows(TIME_HEADER, rows)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
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


if __name__ == "__main__":
    sys.exit(main())
