"""Command-line entry point.

Subcommands: synth | train | eval | ablate | overlap. Flags take precedence
over a --config JSON file, which takes precedence over built-in defaults;
the M2SM_SEED environment variable overrides the seed from any source.
All failures exit nonzero with a machine-readable JSON error on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import checkpoint, data, evaluation, training
from .config import (ATTENTION_MODES, FUSION_MODES, RunConfig, config_from_dict,
                     resolve_config)
from .data import SynthConfig
from .errors import CliError, MMSumError
from .model import SummarizerModel

RATIO_SWEEP = (1.0, 2.0, 3.33, 5.0)
BETA_SWEEP = (0.0, 0.1, 0.3, 0.5, 1.0)
ABLATE_STRATEGIES = ("ce", "+video-loss", "+weighted")


def _add_model_flags(p: argparse.ArgumentParser):
    """Every flag's dest is the RunConfig field it overrides."""
    p.add_argument("--config", help="JSON config file mirroring RunConfig fields")
    p.add_argument("--seed", type=int)
    p.add_argument("--attention", choices=ATTENTION_MODES)
    p.add_argument("--fusion", choices=FUSION_MODES)
    p.add_argument("--beta", type=float)
    p.add_argument("--alpha-ts", dest="alpha_ts", type=float)
    p.add_argument("--alpha-vs", dest="alpha_vs", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--attn-dim", dest="attn_dim", type=int)
    p.add_argument("--fusion-dim", dest="fusion_dim", type=int)
    p.add_argument("--feature-dim", dest="feature_dim", type=int)
    p.add_argument("--fps-group", dest="fps_group", type=int)
    p.add_argument("--k-sentences", dest="k_sentences", type=int)
    p.add_argument("--k-frames", dest="k_frames", type=int)
    p.add_argument("--label-cap", dest="label_cap", type=int)
    p.add_argument("--min-frames", dest="min_frames", type=int)
    p.add_argument("--no-frames", dest="use_frames", action="store_false", default=None)
    p.add_argument("--no-transcript", dest="use_transcript", action="store_false",
                   default=None)
    p.add_argument("--no-bistream", dest="use_bistream", action="store_false",
                   default=None)
    p.add_argument("--sum-pool", dest="sum_pool", action="store_true", default=None)
    p.add_argument("--late-plus-prose", dest="late_plus_prose", action="store_true",
                   default=None)


def _given_fields(args, cls) -> dict:
    """The fields of dataclass ``cls`` whose flags were given on the command line."""
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    return {name: val for name, val in values.items() if val is not None}


def _overrides_from_args(args) -> dict:
    """The RunConfig fields given on the command line; --out sets out_dir."""
    overrides = _given_fields(args, RunConfig)
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    return overrides


def _load_split(cfg: RunConfig):
    if not cfg.manifest:
        raise CliError("a dataset manifest is required (--manifest)")
    manifest = data.load_manifest(cfg.manifest)
    if not manifest.split:
        manifest = data.split_dataset(
            manifest, (cfg.train_frac, cfg.val_frac, cfg.test_frac), cfg.seed)
    samples, vocab = data.load_dataset(manifest, min_frames=cfg.min_frames)
    by_id = {s.document.id: s for s in samples}
    splits = {name: [by_id[e.id] for e in manifest.entries_for(name)]
              for name in ("train", "val", "test")}
    return manifest, splits, vocab


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    cfg = resolve_config(args.config, {"seed": args.seed} if args.seed is not None
                         else {})
    out = Path(args.out)
    if out.exists() and not args.force:
        raise CliError(f"output directory {out} exists; pass --force to overwrite")
    manifest = data.synth_generate(SynthConfig(**_given_fields(args, SynthConfig)),
                                   cfg.seed, out)
    print(f"wrote {len(manifest.entries)} samples to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args.config, _overrides_from_args(args))
    if not cfg.out_dir:
        raise CliError("an output directory is required (--out)")
    manifest, splits, vocab = _load_split(cfg)
    result = training.train_model(splits["train"], splits["val"], cfg, len(vocab))

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint.save_checkpoint(out / "checkpoint", result.best_params, cfg, vocab,
                               extra={"best_val_loss": result.best_val_loss,
                                      "epochs_run": result.epochs_run})
    with open(out / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for rec in result.metrics:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"trained {result.epochs_run} epochs; best val loss "
          f"{result.best_val_loss:.6f}; checkpoint in {out / 'checkpoint'}")
    return 0


def _model_from_checkpoint(ckpt_dir, args):
    params, cfg, vocab = checkpoint.load_checkpoint(ckpt_dir)
    overrides = _overrides_from_args(args)
    overrides.pop("manifest", None)
    overrides.pop("out_dir", None)
    if overrides:
        cfg = config_from_dict({**dataclasses.asdict(cfg), **overrides})
    model = SummarizerModel(params, cfg, len(vocab))
    return model, cfg, vocab


def cmd_eval(args) -> int:
    model, cfg, vocab = _model_from_checkpoint(args.checkpoint, args)
    manifest_path = args.manifest or cfg.manifest
    if not manifest_path:
        raise CliError("a dataset manifest is required (--manifest)")
    manifest = data.load_manifest(manifest_path)
    entries = manifest.entries_for(args.split) if manifest.split else manifest.entries
    if not entries:
        raise CliError(f"no samples in split '{args.split}'")
    samples = [data.load_sample(manifest, e, vocab, cfg.min_frames) for e in entries]
    prepared = [data.prepare_for_model(s, cfg.fps_group, cfg.seed) for s in samples]

    report = evaluation.evaluate_dataset(prepared, model)
    out_base = Path(args.out) / f"report_{args.split}" if args.out else \
        Path(args.checkpoint).parent / f"report_{args.split}"
    out_base.parent.mkdir(parents=True, exist_ok=True)
    written = evaluation.write_report(report, out_base, fmt=args.format)
    mean = report["corpus_mean"]
    cos_txt = f" cos={mean['cos']:.2f}" if mean["cos"] is not None else ""
    print(f"{args.split}: r1={mean['r1']:.4f} r2={mean['r2']:.4f} "
          f"rl={mean['rl']:.4f}{cos_txt} ({', '.join(str(w) for w in written)})")
    return 0


_CELL_DATASET_CACHE: dict = {}


def _cell_dataset(manifest_path: str, cfg_dict: dict):
    key = (manifest_path, cfg_dict["seed"], cfg_dict["min_frames"])
    if key not in _CELL_DATASET_CACHE:
        cfg = config_from_dict(cfg_dict)
        _CELL_DATASET_CACHE[key] = _load_split(cfg)
    return _CELL_DATASET_CACHE[key]


def run_ablate_cell(manifest_path: str, cfg_dict: dict, cell: dict) -> dict:
    """Train and score one ablation cell; failures are recorded, not raised."""
    row = dict(cell)
    try:
        _, splits, vocab = _cell_dataset(manifest_path, cfg_dict)
        cfg = config_from_dict({**cfg_dict, **cell["config"]})
        result = training.train_model(splits["train"], splits["val"], cfg, len(vocab))
        model = SummarizerModel(result.best_params, cfg, len(vocab))
        val_prepared = [data.prepare_for_model(s, cfg.fps_group, cfg.seed)
                        for s in splits["val"]]
        report = evaluation.evaluate_dataset(val_prepared, model)
        mean = report["corpus_mean"]
        row.update(status="ok",
                   train_loss=result.metrics[-1]["train_loss"],
                   val_loss=result.best_val_loss,
                   val_r1=mean["r1"], val_r2=mean["r2"], val_rl=mean["rl"])
    except Exception as exc:  # cell failures must not kill the matrix
        row.update(status="error", error=f"{type(exc).__name__}: {exc}")
    row.pop("config", None)
    return row


def _strategy_config(strategy: str, base: RunConfig) -> dict:
    if strategy == "ce":
        return {"alpha_ts": 1.0, "alpha_vs": 0.0, "use_bistream": False}
    if strategy == "+video-loss":
        return {"alpha_ts": 1.0, "alpha_vs": 1.0, "use_bistream": True}
    if strategy == "+weighted":
        return {"alpha_ts": base.alpha_ts, "alpha_vs": base.alpha_vs or 1.0,
                "use_bistream": True}
    raise CliError(f"unknown ablation strategy '{strategy}'")


def cmd_ablate(args) -> int:
    cfg = resolve_config(args.config, _overrides_from_args(args))
    if not cfg.manifest:
        raise CliError("a dataset manifest is required (--manifest)")
    epochs = args.epochs if args.epochs is not None else cfg.ablate_epochs
    base = dataclasses.asdict(cfg)

    cells = [{"fusion": fusion_mode, "attention": attention_mode, "strategy": strategy,
              "config": {**_strategy_config(strategy, cfg), "fusion": fusion_mode,
                         "attention": attention_mode}}
             for fusion_mode in FUSION_MODES for attention_mode in ATTENTION_MODES
             for strategy in ABLATE_STRATEGIES]
    if args.sweep_ratio:
        cells += [{"fusion": cfg.fusion, "attention": cfg.attention,
                   "strategy": "+weighted", "sweep": "ratio", "alpha_ts": ratio,
                   "config": {"alpha_ts": ratio, "alpha_vs": 1.0, "use_bistream": True}}
                  for ratio in RATIO_SWEEP]
    if args.sweep_beta:
        cells += [{"fusion": "late_plus", "attention": cfg.attention,
                   "strategy": "+weighted", "sweep": "beta", "beta": beta,
                   "config": {"fusion": "late_plus", "beta": beta, "use_bistream": True}}
                  for beta in BETA_SWEEP]
    for idx, cell in enumerate(cells):
        cell["config"].update(epochs=epochs, patience=epochs, seed=cfg.seed * 10007 + idx)

    if args.workers and args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(run_ablate_cell, [cfg.manifest] * len(cells),
                                 [base] * len(cells), cells))
    else:
        rows = [run_ablate_cell(cfg.manifest, base, cell) for cell in cells]

    for i, row in enumerate(rows):
        tag = f"{row['fusion']:>9s} | {row['attention']:>14s} | {row['strategy']:>11s}"
        if row["status"] == "ok":
            print(f"[{i + 1:2d}/{len(rows)}] {tag}  val_r1={row['val_r1']:.4f} "
                  f"val_loss={row['val_loss']:.4f}")
        else:
            print(f"[{i + 1:2d}/{len(rows)}] {tag}  FAILED: {row['error']}")

    n_failed = sum(1 for r in rows if r["status"] != "ok")
    report = {"epochs": epochs, "cells": rows, "n_failed": n_failed}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out / 'ablation.json'}")
    return 0 if n_failed == 0 else 1


def cmd_overlap(args) -> int:
    cfg = resolve_config(args.config, _overrides_from_args(args))
    if not cfg.manifest:
        raise CliError("a dataset manifest is required (--manifest)")
    manifest = data.load_manifest(cfg.manifest)
    samples, _ = data.load_dataset(manifest, min_frames=cfg.min_frames)
    if all(len(s.transcript.tokens) == 0 for s in samples):
        raise CliError("dataset has no transcripts; nothing to report")
    report = evaluation.overlap_report(samples)
    print(f"{'':12s}{'R-1':>8s}{'R-2':>8s}{'R-L':>8s}")
    for key in ("article", "reference"):
        r = report[key]
        print(f"{key:12s}{r['r1']:8.2f}{r['r2']:8.2f}{r['rl']:8.2f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "overlap.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out / 'overlap.json'}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsum",
        description="Joint extractive text / video-frame summarization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--config", help="JSON config file (seed only)")
    p.add_argument("--seed", type=int)
    # every other flag's dest is the SynthConfig field it overrides
    p.add_argument("--samples", dest="n_samples", type=int)
    p.add_argument("--sentences", dest="n_sentences", type=int)
    p.add_argument("--sentence-len", dest="sentence_len", type=int)
    p.add_argument("--frames", dest="n_frames", type=int)
    p.add_argument("--feature-dim", dest="feature_dim", type=int)
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--salience", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--transcript-len", dest="transcript_len", type=int)
    p.add_argument("--no-refs", dest="with_refs", action="store_false", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a manifest")
    p.add_argument("--manifest")
    p.add_argument("--out")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_model_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the fusion x attention x training matrix")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--sweep-ratio", dest="sweep_ratio", action="store_true")
    p.add_argument("--sweep-beta", dest="sweep_beta", action="store_true")
    _add_model_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("overlap", help="transcript overlap statistics")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--min-frames", dest="min_frames", type=int)
    p.set_defaults(func=cmd_overlap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MMSumError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
