"""Run configuration: model dims, strategy selection, training knobs.

Precedence when resolving a run: built-in defaults < config file (JSON
mirroring the field names) < explicit overrides (CLI flags). The environment
variable M2SM_SEED, when set, overrides the seed from any source.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import os
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, read_json

ATTENTION_MODES = ("none", "concat_product", "bilinear", "bihop")
FUSION_MODES = ("early", "tensor", "late", "late_plus")
SEED_ENV_VAR = "M2SM_SEED"


@dataclass
class RunConfig:
    manifest: str | None = None
    out_dir: str | None = None

    # model dimensions
    embed_dim: int = 32
    hidden: int = 64
    attn_dim: int = 64
    fusion_dim: int = 32
    feature_dim: int = 2048

    # strategy selection
    attention: str = "bihop"
    fusion: str = "late_plus"
    beta: float = 0.3

    # loss mixing and optimization
    alpha_ts: float = 3.33
    alpha_vs: float = 1.0
    lr: float = 1e-4
    epochs: int = 50
    patience: int = 3
    seed: int = 0

    # inference / preprocessing
    k_sentences: int = 3
    k_frames: int = 5
    fps_group: int = 5
    min_frames: int = 1
    label_cap: int = 4

    # ablation switches
    use_frames: bool = True
    use_transcript: bool = True
    use_bistream: bool = True
    sum_pool: bool = False
    late_plus_prose: bool = False

    # dataset split
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2

    ablate_epochs: int = 10


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _type_ok(value, hint) -> bool:
    """Whether `value` fits the annotation `hint`: an int is a float, a bool
    is not an int."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    numeric = {int: numbers.Integral, float: numbers.Real}
    return isinstance(value, tuple(numeric.get(t, t) for t in allowed))


def validate_config(cfg: RunConfig) -> RunConfig:
    if cfg.seed is None:
        raise ConfigError("seed must be set; unseeded runs are not allowed")
    for name, hint in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        if not _type_ok(value, hint):
            raise ConfigError(f"{name} must be of type "
                              f"{getattr(hint, '__name__', hint)}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if cfg.attention not in ATTENTION_MODES:
        raise ConfigError(f"attention must be one of {ATTENTION_MODES}, "
                          f"got '{cfg.attention}'")
    if cfg.fusion not in FUSION_MODES:
        raise ConfigError(f"fusion must be one of {FUSION_MODES}, got '{cfg.fusion}'")
    if cfg.beta < 0:
        raise ConfigError(f"beta must be >= 0, got {cfg.beta}")
    if cfg.alpha_ts < 0 or cfg.alpha_vs < 0:
        raise ConfigError("alpha_ts and alpha_vs must be >= 0")
    if cfg.lr < 0:
        raise ConfigError(f"lr must be >= 0, got {cfg.lr}")
    if cfg.patience < 0:
        raise ConfigError(f"patience must be >= 0, got {cfg.patience}")
    for name in ("embed_dim", "hidden", "attn_dim", "fusion_dim", "feature_dim",
                 "fps_group", "k_sentences", "k_frames", "label_cap", "epochs",
                 "ablate_epochs"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    return cfg


def resolve_config(config_file=None, overrides: dict | None = None) -> RunConfig:
    values = dataclasses.asdict(RunConfig())
    if config_file is not None:
        path = Path(config_file)
        for key, val in read_json(path, dict, "config file", ConfigError).items():
            if key not in values:
                raise ConfigError(f"unknown config key '{key}' in {path}")
            values[key] = val
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in values:
            raise ConfigError(f"unknown config override '{key}'")
        values[key] = val
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, "
                              f"got '{env_seed}'") from exc
    return validate_config(RunConfig(**values))


def config_from_dict(d: dict) -> RunConfig:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return validate_config(RunConfig(**d))
