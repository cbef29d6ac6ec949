"""Run configuration: model dims, strategy selection, training knobs.

``RunConfig`` (and ``data.SynthConfig``) are the one table of run settings.
Each field states its type, its default and, in its ``setting`` metadata, its
bounds, its choices and whether it has a CLI flag; ``check_fields`` enforces
the first three and ``cli`` builds the flags from the same fields.

Precedence when resolving a run: built-in defaults < config file (JSON
mirroring the field names) < explicit overrides (CLI flags). The environment
variable M2SM_SEED, when set, overrides the seed from any source.
"""
from __future__ import annotations

import dataclasses
import functools
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


def setting(default, *, minimum=None, maximum=None, strict=False, choices=None,
            flag=True):
    """A dataclass field with its bounds (inclusive, or exclusive if ``strict``),
    its choices and whether the CLI gives it a flag."""
    return dataclasses.field(default=default, metadata={
        "minimum": minimum, "maximum": maximum, "strict": strict, "choices": choices,
        "flag": flag})


@dataclass
class RunConfig:
    manifest: str | None = None
    out_dir: str | None = setting(None, flag=False)

    # model dimensions
    embed_dim: int = setting(32, minimum=1)
    hidden: int = setting(64, minimum=1)
    attn_dim: int = setting(64, minimum=1)
    fusion_dim: int = setting(32, minimum=1)
    feature_dim: int = setting(2048, minimum=1)

    # strategy selection
    attention: str = setting("bihop", choices=ATTENTION_MODES)
    fusion: str = setting("late_plus", choices=FUSION_MODES)
    beta: float = setting(0.3, minimum=0)

    # loss mixing and optimization
    alpha_ts: float = setting(3.33, minimum=0)
    alpha_vs: float = setting(1.0, minimum=0)
    lr: float = setting(1e-4, minimum=0)
    epochs: int = setting(50, minimum=1)
    patience: int = setting(3, minimum=0)
    seed: int = setting(0, minimum=0)

    # inference / preprocessing
    k_sentences: int = setting(3, minimum=1)
    k_frames: int = setting(5, minimum=1)
    fps_group: int = setting(5, minimum=1)
    min_frames: int = 1
    label_cap: int = setting(4, minimum=1)

    # ablation switches
    use_frames: bool = True
    use_transcript: bool = True
    use_bistream: bool = True
    sum_pool: bool = False
    late_plus_prose: bool = False

    # dataset split (data.split_dataset checks the fractions)
    train_frac: float = setting(0.7, flag=False)
    val_frac: float = setting(0.1, flag=False)
    test_frac: float = setting(0.2, flag=False)

    ablate_epochs: int = setting(10, minimum=1, flag=False)


@functools.cache
def field_types(cls) -> dict:
    """The resolved annotation of every field of dataclass ``cls``."""
    return typing.get_type_hints(cls)


def _type_ok(value, hint) -> bool:
    """Whether `value` fits the annotation `hint`: an int is a float, a bool
    is not an int."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    numeric = {int: numbers.Integral, float: numbers.Real}
    return isinstance(value, tuple(numeric.get(t, t) for t in allowed))


def _in_bounds(value, lo, hi, strict) -> bool:
    if strict:
        return (lo is None or value > lo) and (hi is None or value < hi)
    return (lo is None or value >= lo) and (hi is None or value <= hi)


def _bounds_text(lo, hi, strict) -> str:
    if hi is None:
        return f"{'>' if strict else '>='} {lo}"
    return f"in {'(' if strict else '['}{lo}, {hi}{')' if strict else ']'}"


def check_fields(obj):
    """Return dataclass ``obj`` if every field has its annotated type, is finite
    when a float, and keeps the bounds and choices stated on it; otherwise raise
    ``ConfigError`` naming the first field that does not."""
    hints = field_types(type(obj))
    for f in dataclasses.fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        if not _type_ok(value, hint):
            raise ConfigError(f"{f.name} must be of type "
                              f"{getattr(hint, '__name__', hint)}, got {value!r}")
        if value is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
        lo, hi, strict = (f.metadata.get(k) for k in ("minimum", "maximum", "strict"))
        if not _in_bounds(value, lo, hi, strict):
            raise ConfigError(f"{f.name} must be {_bounds_text(lo, hi, strict)}, "
                              f"got {value!r}")
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ConfigError(f"{f.name} must be one of {choices}, got {value!r}")
    return obj


def resolve_config(config_file=None, overrides: dict | None = None) -> RunConfig:
    values = {}
    if config_file is not None:
        values.update(read_json(Path(config_file), dict, "config file", ConfigError))
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, "
                              f"got '{env_seed}'") from exc
    return config_from_dict(values)


def config_from_dict(d: dict) -> RunConfig:
    unknown = set(d) - set(field_types(RunConfig))
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return check_fields(RunConfig(**d))
