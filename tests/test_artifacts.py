"""The JSON artifact pair ``errors.write_json``/``read_json``: strict, atomic
and byte-stable; and fuzzed manifests and checkpoints (index and params.bin),
which load or end in an ``MMSumError``."""
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from mmsum import checkpoint, data, errors
from mmsum.data import SynthConfig, synth_generate
from mmsum.errors import (CheckpointError, MMSumError, read_json, write_json,
                          write_json_lines)
from mmsum.model import SummarizerModel, build_parameters

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_write_json_round_trip_and_format(tmp_path):
    obj = {"b": [1, 2.5, None, True], "a": {"z": "é", "y": []}}
    path = tmp_path / "x.json"
    write_json(path, obj)
    assert read_json(path, dict, "artifact", MMSumError) == obj
    assert path.read_text(encoding="utf-8") == \
        json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert list(tmp_path.iterdir()) == [path]


def test_write_json_lines_writes_one_compact_line_per_record(tmp_path):
    path = tmp_path / "m.jsonl"
    write_json_lines(path, [{"b": 1, "a": 2}, {"c": [0, 1]}])
    assert path.read_text(encoding="utf-8") == '{"a": 2, "b": 1}\n{"c": [0, 1]}\n'


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("write", [
    lambda p, v: write_json(p, {"loss": [1.0, v]}),
    lambda p, v: write_json_lines(p, [{"a": 0}, {"a": v}]),
], ids=["write_json", "write_json_lines"])
def test_non_finite_value_raises_before_the_target_is_touched(tmp_path, value, write):
    path = tmp_path / "x.json"
    path.write_bytes(b"previous\n")
    with pytest.raises(ValueError):
        write(path, value)
    assert path.read_bytes() == b"previous\n"
    assert list(tmp_path.iterdir()) == [path]


def _torn_write_text(self, text, encoding=None):
    with open(self, "w", encoding=encoding) as fh:
        fh.write(text[: len(text) // 2])
    raise OSError("disk full")


def _failed_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("fail", [
    lambda mp: mp.setattr(Path, "write_text", _torn_write_text),
    lambda mp: mp.setattr(errors.os, "replace", _failed_replace),
], ids=["torn-write", "failed-replace"])
def test_failed_write_keeps_previous_file_and_leaves_no_tmp(tmp_path, monkeypatch, fail):
    path = tmp_path / "x.json"
    write_json(path, {"version": 1, "rows": list(range(50))})
    before = path.read_bytes()
    fail(monkeypatch)
    with pytest.raises(OSError):
        write_json(path, {"version": 2, "rows": list(range(100))})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8),
                                                             kids, max_size=4),
    max_leaves=16)


@PROPERTY
@given(tree=json_trees)
def test_round_trip_holds_over_finite_json_trees(tmp_path, tree):
    path = tmp_path / "tree.json"
    write_json(path, tree)
    assert read_json(path, object, "artifact", MMSumError) == tree
    assert not list(tmp_path.glob("*.tmp"))


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_corpus")
    synth_generate(SynthConfig(n_samples=3, n_sentences=3, sentence_len=4, n_frames=3,
                               feature_dim=4, vocab_size=30, transcript_len=6),
                   seed=1, out_dir=out)
    return out


# A fuzzed entry points each field at a corpus file, of the right kind or of
# any kind (a document may be a feature file), and then may have one field
# replaced by a path that does not resolve or by any JSON value.
_KINDS = {"document": "doc.txt", "features": "features.bin",
          "transcript": "transcript.txt", "summary": "summary.txt",
          "ref_features": "refs.bin"}
_IDS = ["s000", "s001", "s002"]
_any_file = st.sampled_from([f"samples/{sid}.{kind}" for sid in _IDS
                             for kind in [*_KINDS.values(), "masks.json"]])
_junk = st.sampled_from(["", ".", "samples", "../x", "nope"]) | json_trees


def _with_junk(entry, junk):
    if junk is not None:
        entry[junk[0]] = junk[1]
    return entry


_entries = st.builds(
    _with_junk,
    st.fixed_dictionaries(
        {"id": st.sampled_from(_IDS),
         **{name: st.sampled_from([f"samples/{sid}.{kind}" for sid in _IDS]) | _any_file
            for name, kind in _KINDS.items()}}),
    st.none() | st.tuples(st.sampled_from(["id", *_KINDS]), _junk))
_manifests = st.fixed_dictionaries(
    {"samples": st.lists(_entries, min_size=1, max_size=3,
                         unique_by=lambda e: str(e["id"]))},
    optional={"split": st.dictionaries(st.sampled_from(_IDS + ["x"]),
                                       st.sampled_from(["train", "val", "test"]) | _junk,
                                       max_size=3)})


@PROPERTY
@given(doc=_manifests | _junk | st.binary(max_size=64))
def test_fuzzed_manifest_loads_or_raises_mmsum_error(fuzz_corpus, doc):
    path = fuzz_corpus / "fuzz.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    try:
        manifest = data.load_manifest(path)
        data.load_dataset(manifest)
    except MMSumError:
        pass


def _splice(text, data_):
    """``text`` with one span of up to 8 characters replaced by a short JSON
    fragment or any text: the edits a hand-edited file or a torn copy make."""
    i = data_.draw(st.integers(0, len(text)))
    j = data_.draw(st.integers(i, min(len(text), i + 8)))
    piece = data_.draw(st.sampled_from(['"', "{", "}", "[", "]", ",", ":", "null", "-1",
                                        "1e999", "NaN", '"x"', '""', "0.5", "\\u0000"])
                       | st.text(max_size=4))
    return text[:i] + piece + text[j:]


@PROPERTY
@given(data_=st.data())
def test_spliced_manifest_text_loads_or_raises_mmsum_error(fuzz_corpus, data_):
    text = (fuzz_corpus / "manifest.json").read_text(encoding="utf-8")
    path = fuzz_corpus / "spliced.json"
    path.write_text(_splice(text, data_), encoding="utf-8")
    try:
        data.load_dataset(data.load_manifest(path))
    except MMSumError:
        pass


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """A saved checkpoint, and the bytes of its index and params.bin as written."""
    cfg = tiny_config(attention="bihop")
    vocab = {"<unk>": 0, **{f"w{i}": i for i in range(1, 5)}}
    directory = tmp_path_factory.mktemp("fuzz_checkpoint")
    params = build_parameters(cfg, len(vocab), np.random.default_rng(0))
    checkpoint.save_checkpoint(directory, params, cfg, vocab)
    return directory, {name: (directory / name).read_bytes()
                       for name in (checkpoint.INDEX_FILE, checkpoint.PARAMS_FILE)}


def _fuzz_index(index, data_):
    """``index`` with its format or extra replaced by any JSON value, or dropped."""
    key = data_.draw(st.sampled_from(["format", "extra"]))
    if data_.draw(st.booleans()):
        index[key] = data_.draw(st.sampled_from([1, 2, 2.0, 3, "2", True]) | json_trees)
    else:
        del index[key]
    return index


def _fuzz_params(blob, data_):
    """``blob``, a params.bin, truncated, extended, with another magic, or with
    another row or column count in its header."""
    edit = data_.draw(st.sampled_from(["truncate", "extend", "magic", "rows", "cols"]))
    if edit == "truncate":
        return blob[:data_.draw(st.integers(0, len(blob) - 1))]
    if edit == "extend":
        return blob + data_.draw(st.binary(min_size=1, max_size=12))
    if edit == "magic":
        return data_.draw(st.binary(min_size=8, max_size=8)
                          .filter(lambda magic: magic != data.FEATURE_MAGIC)) + blob[8:]
    at = 8 if edit == "rows" else 12
    return blob[:at] + struct.pack("<I", data_.draw(st.integers(0, 2**32 - 1))) + blob[at + 4:]


def _write_checkpoint_files(directory, index: bytes, params: bytes):
    (directory / checkpoint.INDEX_FILE).write_bytes(index)
    (directory / checkpoint.PARAMS_FILE).write_bytes(params)


@PROPERTY
@given(data_=st.data())
def test_fuzzed_checkpoint_index_loads_or_raises_mmsum_error(fuzz_checkpoint, data_):
    directory, written = fuzz_checkpoint
    text = written[checkpoint.INDEX_FILE].decode("utf-8")
    if data_.draw(st.booleans()):
        text = json.dumps(_fuzz_index(json.loads(text), data_))
    else:
        text = _splice(text, data_)
    _write_checkpoint_files(directory, text.encode("utf-8"),
                            written[checkpoint.PARAMS_FILE])
    try:
        params, cfg, vocab = checkpoint.load_checkpoint(directory)
        SummarizerModel(params, cfg, len(vocab))
    except MMSumError:
        pass


@PROPERTY
@given(data_=st.data())
def test_fuzzed_checkpoint_params_file_is_checkpoint_error(fuzz_checkpoint, data_):
    """Every edit of params.bin that changes its bytes leaves a file whose
    header or size is wrong for the configuration."""
    directory, written = fuzz_checkpoint
    blob = _fuzz_params(written[checkpoint.PARAMS_FILE], data_)
    assume(blob != written[checkpoint.PARAMS_FILE])
    _write_checkpoint_files(directory, written[checkpoint.INDEX_FILE], blob)
    with pytest.raises(CheckpointError, match="cannot read checkpoint parameters"):
        checkpoint.load_checkpoint(directory)
