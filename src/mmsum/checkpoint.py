"""Checkpoints: a directory of per-tensor files in the binary feature format,
keyed by a JSON index, plus the config snapshot and the vocabulary."""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict
from .data import read_feature_file, write_feature_file
from .errors import CheckpointError, read_json, write_json

INDEX_FILE = "index.json"
CONFIG_FILE = "config.json"
VOCAB_FILE = "vocab.json"


def _tensor_filename(name: str) -> str:
    return name.replace("/", "__") + ".bin"


def save_checkpoint(directory, params: dict[str, np.ndarray], cfg: RunConfig,
                    vocab: dict[str, int], extra: dict | None = None) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = {"tensors": {}, "sections": {}}
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        fname = _tensor_filename(name)
        write_feature_file(directory / fname,
                           arr if arr.ndim == 2 else arr.reshape(1, -1))
        index["tensors"][name] = {"file": fname, "shape": list(arr.shape)}
        section = name.split("/", 1)[0]
        index["sections"].setdefault(section, []).append(name)
    if extra:
        index["extra"] = extra
    write_json(directory / INDEX_FILE, index)
    write_json(directory / CONFIG_FILE, dataclasses.asdict(cfg))
    write_json(directory / VOCAB_FILE, sorted(vocab, key=vocab.get))
    return directory


def load_checkpoint(directory):
    directory = Path(directory)
    index_path = directory / INDEX_FILE
    index = read_json(index_path, dict, "checkpoint index", CheckpointError)
    tensors = index.get("tensors")
    if not isinstance(tensors, dict):
        raise CheckpointError(f"checkpoint index {index_path} has no 'tensors' table")
    params = {}
    for name, meta in tensors.items():
        try:
            arr = read_feature_file(directory / meta["file"]).astype(np.float64)
            shape = tuple(meta["shape"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            # ValueError: a NUL byte in the file name
            raise CheckpointError(f"cannot read checkpoint tensor '{name}': "
                                  f"{exc!r}") from exc
        if not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(f"checkpoint tensor '{name}' shape {list(shape)} "
                                  f"must hold non-negative ints")
        if math.prod(shape) != arr.size:
            raise CheckpointError(f"tensor '{name}' shape {shape} does not "
                                  f"match stored size {arr.size}")
        params[name] = arr.reshape(shape)
    cfg = config_from_dict(read_json(directory / CONFIG_FILE, dict, "checkpoint config",
                                     CheckpointError))
    tokens = read_json(directory / VOCAB_FILE, list, "checkpoint vocabulary",
                       CheckpointError)
    if not all(isinstance(tok, str) for tok in tokens):
        raise CheckpointError(f"checkpoint vocabulary {directory / VOCAB_FILE} "
                              f"holds a token that is not a string")
    vocab = {tok: i for i, tok in enumerate(tokens)}
    return params, cfg, vocab
