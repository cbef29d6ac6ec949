"""Command-line entry point.

Subcommands: synth | train | eval | ablate | overlap. The flags that set a
``RunConfig`` or ``SynthConfig`` field are built from the field itself
(``_add_fields``); only the command-specific flags (--out, --config,
--checkpoint, --workers, ...) are written here. Flags take precedence over a
--config JSON file, which takes precedence over built-in defaults; the
M2SM_SEED environment variable overrides the seed from any source. train,
eval and ablate read the one split ``_split_manifest`` gives; eval gives it
the config saved in the checkpoint, before any flag. All failures exit
nonzero with a machine-readable JSON error on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import checkpoint, data, evaluation, training
from .config import (ATTENTION_MODES, FUSION_MODES, RunConfig, config_from_dict,
                     field_types, resolve_config)
from .data import SynthConfig
from .errors import CliError, ConfigError, MMSumError, write_json, write_json_lines
from .model import SummarizerModel

RATIO_SWEEP = (1.0, 2.0, 3.33, 5.0)
BETA_SWEEP = (0.0, 0.1, 0.3, 0.5, 1.0)


def _add_fields(p: argparse.ArgumentParser, cls, names=None):
    """One flag per field of dataclass ``cls`` (of ``names`` only, if given) whose
    ``setting`` has one. The flag is ``--<field>`` with ``_`` as ``-`` and a
    leading ``n_`` dropped; a bool that defaults on is ``--no-<field>`` without
    its ``use_``/``with_`` prefix. The dest is the field, the type and choices
    come from it, and the default is None, so a flag left out overrides nothing."""
    for f in dataclasses.fields(cls):
        if not f.metadata.get("flag", True) or (names and f.name not in names):
            continue
        hint, name = field_types(cls)[f.name], f.name.removeprefix("n_")
        if hint is bool:
            if f.default:
                name = "no_" + name.removeprefix("use_").removeprefix("with_")
            kind = {"action": "store_false" if f.default else "store_true"}
        else:
            kind = {"type": next(t for t in typing.get_args(hint) or (hint,)
                                 if t is not type(None)),
                    "choices": f.metadata.get("choices")}
        p.add_argument("--" + name.replace("_", "-"), dest=f.name, default=None, **kind)


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file mirroring RunConfig fields")
    _add_fields(p, RunConfig)


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


def _manifest(path):
    if not path:
        raise CliError("a dataset manifest is required (--manifest)")
    return data.load_manifest(path)


def _split_manifest(path, cfg: RunConfig):
    """The manifest at ``path`` with its own split, or else the seeded ``cfg`` one."""
    manifest = _manifest(path)
    if manifest.split:
        return manifest
    return data.split_dataset(
        manifest, (cfg.train_frac, cfg.val_frac, cfg.test_frac), cfg.seed)


def _load_split(cfg: RunConfig):
    manifest = _split_manifest(cfg.manifest, cfg)
    samples, vocab = data.load_dataset(manifest, min_frames=cfg.min_frames)
    _check_feature_dim(cfg, samples)
    by_id = {s.document.id: s for s in samples}
    splits = {name: [by_id[e.id] for e in manifest.entries_for(name)]
              for name in ("train", "val", "test")}
    return manifest, splits, vocab


def _check_feature_dim(cfg: RunConfig, samples) -> None:
    """Fail before any training or scoring when the frames the model will read
    are not ``cfg.feature_dim`` wide."""
    if not cfg.use_frames:
        return
    for s in samples:
        width = s.frames.shape[1]
        if width != cfg.feature_dim:
            raise ConfigError(f"feature_dim is {cfg.feature_dim} but sample "
                              f"{s.document.id} has {width}-d frame features")


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    cfg = resolve_config(args.config, {"seed": args.seed})
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
    checkpoint.save_checkpoint(out / "checkpoint", result.best_params, cfg, vocab,
                               extra={"best_val_loss": result.best_val_loss,
                                      "epochs_run": result.epochs_run})
    write_json_lines(out / "metrics.jsonl", result.metrics)
    print(f"trained {result.epochs_run} epochs; best val loss "
          f"{result.best_val_loss:.6f}; checkpoint in {out / 'checkpoint'}")
    return 0


def _model_from_checkpoint(ckpt_dir, args):
    """The checkpoint's model under the RunConfig flags given on the command
    line, that config, the vocabulary, and the config the checkpoint saved."""
    params, saved, vocab = checkpoint.load_checkpoint(ckpt_dir)
    overrides = {k: v for k, v in _overrides_from_args(args).items()
                 if k not in ("manifest", "out_dir")}
    cfg = config_from_dict({**dataclasses.asdict(saved), **overrides})
    return SummarizerModel(params, cfg, len(vocab)), cfg, vocab, saved


def cmd_eval(args) -> int:
    model, cfg, vocab, saved = _model_from_checkpoint(args.checkpoint, args)
    # an unsplit manifest is split as train split it, whatever --seed eval gets
    manifest = _split_manifest(args.manifest or cfg.manifest, saved)
    entries = manifest.entries_for(args.split)
    if not entries:
        raise CliError(f"no samples in split '{args.split}'")
    samples = [data.load_sample(manifest, e, vocab, cfg.min_frames) for e in entries]
    _check_feature_dim(cfg, samples)
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


def run_ablate_cell(splits: dict, vocab_size: int, cfg_dict: dict, cell: dict) -> dict:
    """Train and score one ablation cell on the loaded ``splits``; failures are
    recorded, not raised."""
    row = dict(cell)
    try:
        cfg = config_from_dict({**cfg_dict, **cell["config"]})
        result = training.train_model(splits["train"], splits["val"], cfg, vocab_size)
        # the best epoch's validation pass already ran the val forwards
        val_prepared = [data.prepare_for_model(s, cfg.fps_group, cfg.seed)
                        for s in splits["val"]]
        report = evaluation.score_summaries(val_prepared, [
            evaluation.select(sent, frame, cfg.k_sentences, cfg.k_frames)
            for sent, frame in result.best_val_probs])
        mean = report["corpus_mean"]
        row.update(status="ok",
                   train_loss=result.metrics[-1]["train_loss"],
                   val_loss=result.best_val_loss,
                   val_r1=mean["r1"], val_r2=mean["r2"], val_rl=mean["rl"])
    except Exception as exc:  # cell failures must not kill the matrix
        row.update(status="error", error=f"{type(exc).__name__}: {exc}")
    row.pop("config", None)
    return row


def cmd_ablate(args) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    cfg = resolve_config(args.config, _overrides_from_args(args))
    epochs = args.epochs if args.epochs is not None else cfg.ablate_epochs
    base = dataclasses.asdict(cfg)
    _, splits, vocab = _load_split(cfg)   # a data or feature_dim error ends the run here

    strategies = {   # training strategy -> the loss settings of its cells
        "ce": {"alpha_ts": 1.0, "alpha_vs": 0.0, "use_bistream": False},
        "+video-loss": {"alpha_ts": 1.0, "alpha_vs": 1.0, "use_bistream": True},
        "+weighted": {"alpha_ts": cfg.alpha_ts, "alpha_vs": cfg.alpha_vs or 1.0,
                      "use_bistream": True},
    }
    cells = [{"fusion": fusion_mode, "attention": attention_mode, "strategy": strategy,
              "config": {**losses, "fusion": fusion_mode, "attention": attention_mode}}
             for fusion_mode in FUSION_MODES for attention_mode in ATTENTION_MODES
             for strategy, losses in strategies.items()]
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

    workers = min(args.workers, len(cells))
    if workers > 1:     # each chunk of cells carries the data once
        cell_fn = functools.partial(run_ablate_cell, splits, len(vocab), base)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(cell_fn, cells,
                                 chunksize=math.ceil(len(cells) / workers)))
    else:
        rows = [run_ablate_cell(splits, len(vocab), base, cell) for cell in cells]

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
        write_json(out / "ablation.json", report)
        print(f"wrote {out / 'ablation.json'}")
    return 0 if n_failed == 0 else 1


def cmd_overlap(args) -> int:
    cfg = resolve_config(args.config, _overrides_from_args(args))
    manifest = _manifest(cfg.manifest)
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
        write_json(out / "overlap.json", report)
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
    _add_fields(p, RunConfig, ("seed",))
    _add_fields(p, SynthConfig)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a manifest")
    p.add_argument("--out")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_model_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the fusion x attention x training matrix")
    p.add_argument("--out")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--sweep-ratio", dest="sweep_ratio", action="store_true")
    p.add_argument("--sweep-beta", dest="sweep_beta", action="store_true")
    _add_model_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("overlap", help="transcript overlap statistics")
    p.add_argument("--out")
    p.add_argument("--config")
    _add_fields(p, RunConfig, ("manifest", "seed", "min_frames"))
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
