"""Checkpoints: a directory of the config snapshot, the vocabulary, an index
``{"format": 2, "extra": {...}}`` and ``params.bin``, one 1 x n feature file
of every parameter, flattened, in ``model.parameter_spec`` order. Every value
in ``params.bin`` is finite: a NaN or infinite float32 value is refused when
saved and when read."""
from __future__ import annotations

import dataclasses
import math
import os
import shutil
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict
from .data import UNK_TOKEN, read_feature_header, write_feature_header
from .errors import CheckpointError, FormatError, read_json, write_json
from .model import check_parameters, parameter_spec

FORMAT = 2
INDEX_FILE = "index.json"
CONFIG_FILE = "config.json"
VOCAB_FILE = "vocab.json"
PARAMS_FILE = "params.bin"


def _sibling(directory: Path, suffix: str) -> Path:
    return directory.with_name(directory.name + suffix)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, or a CheckpointError naming ``what`` if one is NaN or inf."""
    if not np.isfinite(values).all():
        raise CheckpointError(f"{what} holds a NaN or infinite value")
    return values


def save_checkpoint(directory, params: dict[str, np.ndarray], cfg: RunConfig,
                    vocab: dict[str, int], extra: dict | None = None) -> Path:
    """Write the checkpoint into a sibling ``<directory>.tmp``, then swap that
    in for ``directory``, the old one moved aside to ``<directory>.old`` until
    the new one is in place: a checkpoint is replaced whole or left as it was,
    and a process killed between the two renames leaves the old one whole in
    ``<directory>.old``, where ``load_checkpoint`` finds it."""
    directory = Path(directory)
    spec = check_parameters(params, cfg, len(vocab))
    tmp, old = _sibling(directory, ".tmp"), _sibling(directory, ".old")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.mkdir(parents=True)
        with open(tmp / PARAMS_FILE, "wb") as fh:
            write_feature_header(fh, 1, sum(math.prod(s) for s in spec.values()))
            for name in spec:
                with np.errstate(over="ignore"):    # a float32 overflow is inf
                    values = np.asarray(params[name], dtype="<f4")
                _finite(values, f"cannot save checkpoint {directory}: parameter {name}"
                        ).tofile(fh)
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
    n = sum(math.prod(s) for s in spec.values())
    try:
        with open(path, "rb") as fh:
            if read_feature_header(fh, path) != (1, n):
                raise FormatError(f"{path} does not hold 1x{n} values")
            params = {name: _finite(np.fromfile(fh, "<f4", math.prod(s)),
                                    f"checkpoint parameter {name} in {path}")
                      .astype(np.float64).reshape(s) for name, s in spec.items()}
    except (OSError, FormatError) as exc:
        raise CheckpointError(f"cannot read checkpoint parameters: {exc}") from exc
    return params, cfg, {tok: i for i, tok in enumerate(tokens)}
