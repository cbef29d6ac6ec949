"""Exception taxonomy. Every error carries a machine-readable code that the
CLI echoes on stderr, so callers can branch on failures without parsing
messages. ``read_json`` reads every JSON input file into one of them, and
``write_json``/``write_json_lines`` write every JSON artifact atomically."""

import json
import os
from pathlib import Path


class MMSumError(Exception):
    code = "ERROR"


class IngestionError(MMSumError):
    code = "INGESTION"


class SchemaError(MMSumError):
    code = "SCHEMA"


class FormatError(MMSumError):
    code = "FORMAT"


class SplitError(MMSumError):
    code = "SPLIT"


class ConfigError(MMSumError):
    code = "CONFIG"


class EncodeError(MMSumError):
    code = "ENCODE"


class AttentionError(MMSumError):
    code = "ATTENTION"


class BiHopUnavailable(MMSumError):
    """Bi-hop attention requested but the transcript bridge is empty."""

    code = "BIHOP_UNAVAILABLE"


class FusionError(MMSumError):
    code = "FUSION"


class LabelError(MMSumError):
    code = "LABEL"


class LossError(MMSumError):
    code = "LOSS"


class RewardError(MMSumError):
    code = "REWARD"


class TrainingError(MMSumError):
    code = "TRAINING"


class EvalError(MMSumError):
    code = "EVAL"


class CheckpointError(MMSumError):
    code = "CHECKPOINT"


class CliError(MMSumError):
    code = "CLI"


def read_json(path, expect: type, what: str, error: type[MMSumError]):
    """The value of JSON file ``path``, which must be of type ``expect``. A file
    that cannot be read, is not UTF-8 or not JSON (too deep or too long a number
    included), or holds another type raises ``error``; ``what`` names the file."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(value, expect):
        raise error(f"{what} {path} holds a JSON {type(value).__name__}, "
                    f"not a {expect.__name__}")
    return value


def write_json(path, obj) -> None:
    """Write ``obj`` as strict JSON (NaN/inf raise ValueError), indent 2, keys sorted."""
    _replace(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_json_lines(path, records) -> None:
    """Write one compact line of strict JSON, keys sorted, per record."""
    _replace(path, "".join(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n"
                           for rec in records))


def _replace(path, text: str) -> None:
    """Write a sibling ``<name>.tmp`` and move it onto ``path``, never torn."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
