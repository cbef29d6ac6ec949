"""Checkpoints: a directory of per-tensor files in the binary feature format,
keyed by a JSON index, plus the config snapshot and the vocabulary."""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict
from .data import read_feature_file, write_feature_file
from .errors import CheckpointError

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
    (directory / INDEX_FILE).write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (directory / CONFIG_FILE).write_text(
        json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    tokens = [None] * len(vocab)
    for tok, idx in vocab.items():
        tokens[idx] = tok
    (directory / VOCAB_FILE).write_text(
        json.dumps(tokens, indent=2) + "\n", encoding="utf-8")
    return directory


def _read_json(path: Path, expect: type, what: str):
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {what} {path}: {exc}") from exc
    if not isinstance(value, expect):
        raise CheckpointError(f"checkpoint {what} {path} holds a JSON "
                              f"{type(value).__name__}, not a {expect.__name__}")
    return value


def load_checkpoint(directory):
    directory = Path(directory)
    index_path = directory / INDEX_FILE
    if not index_path.is_file():
        raise CheckpointError(f"no checkpoint index at {index_path}")
    tensors = _read_json(index_path, dict, "index").get("tensors")
    if not isinstance(tensors, dict):
        raise CheckpointError(f"checkpoint index {index_path} has no 'tensors' table")
    params = {}
    for name, meta in tensors.items():
        try:
            arr = read_feature_file(directory / meta["file"]).astype(np.float64)
            shape = tuple(meta["shape"])
            size = int(np.prod(shape))
        except (OSError, KeyError, TypeError) as exc:
            raise CheckpointError(f"cannot read checkpoint tensor '{name}': "
                                  f"{exc!r}") from exc
        if size != arr.size:
            raise CheckpointError(f"tensor '{name}' shape {shape} does not "
                                  f"match stored size {arr.size}")
        params[name] = arr.reshape(shape)
    cfg = config_from_dict(_read_json(directory / CONFIG_FILE, dict, "config"))
    tokens = _read_json(directory / VOCAB_FILE, list, "vocabulary")
    if not all(isinstance(tok, str) for tok in tokens):
        raise CheckpointError(f"checkpoint vocabulary {directory / VOCAB_FILE} "
                              f"holds a token that is not a string")
    vocab = {tok: i for i, tok in enumerate(tokens)}
    return params, cfg, vocab
