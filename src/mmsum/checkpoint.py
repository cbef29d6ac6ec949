"""Checkpoints: a directory of the config snapshot, the vocabulary, an index
``{"format": 2, "extra": {...}}`` and ``params.bin``, one 1 x n feature file
of every parameter laid out by ``model.parameter_views``. Every value in
``params.bin`` is finite: a NaN or infinite float32 value is refused, naming
its parameter, when saved and when read. A save refuses a checkpoint path, or
a ``.tmp`` or ``.old`` sibling of it, that exists and is not a directory."""
from __future__ import annotations

import dataclasses
import os
import shutil
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict
from .data import UNK_TOKEN, read_feature_file, write_feature_file
from .errors import CheckpointError, FormatError, read_json, write_json
from .model import check_parameters, parameter_spec, parameter_views

FORMAT = 2
INDEX_FILE = "index.json"
CONFIG_FILE = "config.json"
VOCAB_FILE = "vocab.json"
PARAMS_FILE = "params.bin"


def _sibling(directory: Path, suffix: str) -> Path:
    return directory.with_name(directory.name + suffix)


def check_target(directory) -> tuple[Path, Path, Path]:
    """``directory`` and its ``.tmp`` and ``.old`` siblings, or a CheckpointError
    if one exists and is not a directory, which a save would rename or fail on."""
    directory = Path(directory)
    paths = (directory, _sibling(directory, ".tmp"), _sibling(directory, ".old"))
    for path in paths:
        if path.exists() and not path.is_dir():
            raise CheckpointError(f"cannot save checkpoint {directory}: {path} exists "
                                  f"and is not a directory")
    return paths


def _check_finite(views: dict[str, np.ndarray], describe) -> None:
    """A CheckpointError naming the first parameter that holds a NaN or inf."""
    for name, values in views.items():
        if not np.isfinite(values).all():
            raise CheckpointError(f"{describe(name)} holds a NaN or infinite value")


def save_checkpoint(directory, params: dict[str, np.ndarray], cfg: RunConfig,
                    vocab: dict[str, int], extra: dict | None = None) -> Path:
    """Write the checkpoint into a sibling ``<directory>.tmp``, then swap that
    in for ``directory``, the old one moved aside to ``<directory>.old`` until
    the new one is in place: a checkpoint is replaced whole or left as it was,
    and a process killed between the two renames leaves the old one whole in
    ``<directory>.old``, where ``load_checkpoint`` finds it."""
    spec = check_parameters(params, cfg, len(vocab))
    directory, tmp, old = check_target(directory)
    with np.errstate(over="ignore"):    # a float32 overflow is inf
        values = np.concatenate([np.ravel(params[name]) for name in spec], dtype="<f4")
    _check_finite(parameter_views(values, spec),
                  lambda name: f"cannot save checkpoint {directory}: parameter {name}")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.mkdir(parents=True)
        write_feature_file(tmp / PARAMS_FILE, values[None])
        write_json(tmp / INDEX_FILE, {"format": FORMAT, "extra": extra or {}})
        write_json(tmp / CONFIG_FILE, dataclasses.asdict(cfg))
        write_json(tmp / VOCAB_FILE, sorted(vocab, key=vocab.get))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if directory.exists():
        shutil.rmtree(old, ignore_errors=True)
        os.rename(directory, old)
    os.rename(tmp, directory)
    shutil.rmtree(old, ignore_errors=True)
    return directory


def load_checkpoint(directory):
    """Read a checkpoint; with no ``directory``, read the ``<directory>.old``
    that a save killed between its two renames leaves."""
    directory = Path(directory)
    if not directory.exists() and _sibling(directory, ".old").exists():
        directory = _sibling(directory, ".old")
    index = read_json(directory / INDEX_FILE, dict, "checkpoint index", CheckpointError)
    if index.get("format") != FORMAT:
        raise CheckpointError(f"checkpoint {directory} is not in format {FORMAT}; "
                              f"retrain to write one")
    cfg = config_from_dict(read_json(directory / CONFIG_FILE, dict, "checkpoint config",
                                     CheckpointError))
    tokens = read_json(directory / VOCAB_FILE, list, "checkpoint vocabulary",
                       CheckpointError)
    if not all(isinstance(tok, str) for tok in tokens) or tokens[:1] != [UNK_TOKEN] \
            or len(set(tokens)) != len(tokens):
        raise CheckpointError(f"checkpoint vocabulary {directory / VOCAB_FILE} must be "
                              f"distinct strings, {UNK_TOKEN} first")
    spec, path = parameter_spec(cfg, len(tokens)), directory / PARAMS_FILE
    try:
        values = read_feature_file(path)
        if values.shape[0] != 1:
            raise FormatError(f"{values.shape[0]} rows, not 1")
        stored = parameter_views(values[0], spec)
    except (OSError, FormatError, CheckpointError) as exc:
        raise CheckpointError(f"cannot read checkpoint parameters {path}: {exc}") from exc
    _check_finite(stored, lambda name: f"checkpoint parameter {name} in {path}")
    params = parameter_views(values[0].astype(np.float64), spec)
    return params, cfg, {tok: i for i, tok in enumerate(tokens)}
