import json
import math
import struct
import tempfile
import unicodedata
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmsum import data
from mmsum.data import (FEATURE_MAGIC, DatasetManifest, SynthConfig, load_manifest,
                        read_feature_file, split_dataset, subsample_frames,
                        synth_generate, tokenize, write_feature_file)
from mmsum.errors import ConfigError, FormatError, IngestionError, SchemaError, SplitError
from mmsum.training import greedy_labels

PROPERTY = settings(max_examples=50, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# ---------------------------------------------------------------------------
# tokenizer

def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize('The cat, "sat" down-town!') == ["the", "cat", "sat", "down-town"]


def test_tokenize_unicode_whitespace_and_empty_tokens():
    assert tokenize("a b\t...\nc") == ["a", "b", "c"]


def _is_punctuation(ch):
    return unicodedata.category(ch).startswith("P")


# any text, weighted towards whitespace, punctuation and case changes
_SEPARATORS = " \t\n\u00a0\u2003.,!?\"'-()\u2026\u00ab\u00bb\u00bf"
_texts = st.text(st.sampled_from(list(_SEPARATORS + "Ab\u0130")) | st.characters())


@PROPERTY
@given(_texts)
def test_tokenize_is_idempotent_and_yields_clean_tokens(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens
    for tok in tokens:
        assert tok and len(tok.split()) == 1 and tok == tok.strip()
        assert not _is_punctuation(tok[0]) and not _is_punctuation(tok[-1])


# ---------------------------------------------------------------------------
# feature files

def test_feature_file_round_trip_bit_exact(tmp_path, rng):
    m = rng.normal(size=(4, 5)).astype(np.float32)
    m[0, 0] = -0.0
    m[1, 2] = np.float32(1e-40)  # subnormal
    path = tmp_path / "m.bin"
    write_feature_file(path, m)
    back = read_feature_file(path)
    assert back.dtype == np.float32
    assert m.tobytes() == back.tobytes()


@PROPERTY
@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                               max_side=5)))
def test_feature_file_round_trips_any_float32_matrix(tmp_path, m):
    path = tmp_path / "m.bin"
    write_feature_file(path, m)
    back = read_feature_file(path)
    assert back.shape == m.shape and back.dtype == np.float32
    assert back.tobytes() == m.tobytes()


# bytes that often carry the magic and a header, so reads get past the first check
_feature_blobs = st.binary(max_size=40) | st.builds(
    lambda rows, cols, payload: FEATURE_MAGIC + struct.pack("<II", rows, cols) + payload,
    st.integers(0, 3), st.integers(0, 3), st.binary(max_size=40))


@PROPERTY
@given(_feature_blobs)
def test_feature_file_of_any_bytes_reads_or_raises_format_error(tmp_path, blob):
    path = tmp_path / "m.bin"
    path.write_bytes(blob)
    try:
        m = read_feature_file(path)
    except FormatError:
        return
    assert m.dtype == np.float32 and m.ndim == 2
    assert len(blob) == 16 + 4 * m.size


def test_feature_file_declared_shape(tmp_path):
    m = np.zeros((4, 2048), dtype=np.float32)
    path = tmp_path / "m.bin"
    write_feature_file(path, m)
    assert read_feature_file(path).shape == (4, 2048)


def test_feature_file_single_value(tmp_path):
    path = tmp_path / "m.bin"
    write_feature_file(path, [[0.5]])
    npt.assert_array_equal(read_feature_file(path), [[0.5]])


def test_feature_file_truncated_payload(tmp_path):
    path = tmp_path / "m.bin"
    write_feature_file(path, np.zeros((4, 2048), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        read_feature_file(path)


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    write_feature_file(path, [[1.0]])
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_feature_file(path)


def test_feature_file_trailing_bytes(tmp_path):
    path = tmp_path / "m.bin"
    write_feature_file(path, [[1.0]])
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError):
        read_feature_file(path)


# ---------------------------------------------------------------------------
# manifest

def _write_sample_files(root, sid):
    (root / f"{sid}.doc.txt").write_text("one sentence here\n")
    (root / f"{sid}.tr.txt").write_text("one two\n")
    (root / f"{sid}.sum.txt").write_text("one sentence here\n")
    write_feature_file(root / f"{sid}.feat.bin", np.ones((2, 3), dtype=np.float32))
    return {"id": sid, "document": f"{sid}.doc.txt", "features": f"{sid}.feat.bin",
            "transcript": f"{sid}.tr.txt", "summary": f"{sid}.sum.txt"}


def test_load_manifest_well_formed(tmp_path):
    entries = [_write_sample_files(tmp_path, f"s{i}") for i in range(3)]
    (tmp_path / "manifest.json").write_text(json.dumps({"samples": entries}))
    manifest = load_manifest(tmp_path / "manifest.json")
    assert len(manifest.entries) == 3
    assert manifest.ids() == ["s0", "s1", "s2"]


def test_load_manifest_missing_referenced_file(tmp_path):
    entry = _write_sample_files(tmp_path, "s0")
    entry["features"] = "absent.bin"
    (tmp_path / "manifest.json").write_text(json.dumps({"samples": [entry]}))
    with pytest.raises(IngestionError, match="absent.bin"):
        load_manifest(tmp_path / "manifest.json")


def test_path_too_long_for_the_file_system_is_ingestion_error(tmp_path):
    entry = _write_sample_files(tmp_path, "s0")
    entry["features"] = "x" * 300 + ".bin"
    (tmp_path / "manifest.json").write_text(json.dumps({"samples": [entry]}))
    with pytest.raises(IngestionError, match="missing file"):
        load_manifest(tmp_path / "manifest.json")
    with pytest.raises(IngestionError, match="not found"):
        load_manifest(tmp_path / ("m" * 300 + ".json"))


def test_load_manifest_duplicate_id(tmp_path):
    entry = _write_sample_files(tmp_path, "s0")
    (tmp_path / "manifest.json").write_text(json.dumps({"samples": [entry, entry]}))
    with pytest.raises(SchemaError, match="duplicate"):
        load_manifest(tmp_path / "manifest.json")


def test_load_manifest_missing_manifest(tmp_path):
    with pytest.raises(IngestionError):
        load_manifest(tmp_path / "nope.json")


@pytest.mark.parametrize("part", ["document", "transcript", "summary"])
def test_non_utf8_sample_text_is_ingestion_error(tmp_path, part):
    entry = _write_sample_files(tmp_path, "s0")
    (tmp_path / entry[part]).write_bytes(b"caf\xe9 au lait\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"samples": [entry]}))
    manifest = load_manifest(tmp_path / "manifest.json")
    with pytest.raises(IngestionError, match="UTF-8"):
        data.load_dataset(manifest)


def test_min_frames_filter(tmp_path):
    entry = _write_sample_files(tmp_path, "s0")
    (tmp_path / "manifest.json").write_text(json.dumps({"samples": [entry]}))
    manifest = load_manifest(tmp_path / "manifest.json")
    with pytest.raises(IngestionError, match="below minimum"):
        data.load_dataset(manifest, min_frames=5)


# ---------------------------------------------------------------------------
# frame subsampling

def test_subsample_one_per_block_of_five(rng):
    out = subsample_frames(np.arange(10)[:, None].astype(float), 5, seed=4)
    assert out.shape == (2, 1)
    assert 0 <= out[0, 0] < 5
    assert 5 <= out[1, 0] < 10


def test_subsample_group_one_is_identity(rng):
    frames = rng.normal(size=(7, 3))
    out = subsample_frames(frames, 1, seed=0)
    npt.assert_array_equal(out, frames)
    assert not np.shares_memory(out, frames)


@pytest.mark.parametrize("group", [0, -2])
def test_subsample_group_below_one_is_config_error(group):
    with pytest.raises(ConfigError, match="fps_group"):
        subsample_frames(np.zeros((4, 2)), group, seed=0)


@pytest.mark.parametrize("group", [0, -2])
def test_prepare_for_model_group_below_one_is_config_error(group):
    sample = data.Sample(document=data.Document([np.array([1])], ["a"], "x"),
                         frames=np.zeros((4, 2)),
                         transcript=data.Transcript(np.zeros(0, dtype=np.int64), ""),
                         gold_summary=["a"])
    with pytest.raises(ConfigError, match="fps_group"):
        data.prepare_for_model(sample, group, 0)


def test_subsample_deterministic():
    frames = np.arange(23)[:, None].astype(float)
    a = subsample_frames(frames, 5, seed=9)
    b = subsample_frames(frames, 5, seed=9)
    npt.assert_array_equal(a, b)


def test_subsample_count_is_ceil_for_all_sizes():
    for n in range(1, 101):
        frames = np.zeros((n, 1))
        for g in range(1, 11):
            out = subsample_frames(frames, g, seed=1)
            assert out.shape[0] == math.ceil(n / g), (n, g)


# ---------------------------------------------------------------------------
# splitting

def _manifest_of(n):
    entries = [data.ManifestEntry(id=f"s{i}", document="d", features="f",
                                  transcript="t", summary="s") for i in range(n)]
    return DatasetManifest(entries=entries)


def test_split_ten_samples():
    m = split_dataset(_manifest_of(10), (0.7, 0.1, 0.2), seed=0)
    sizes = {name: len(m.entries_for(name)) for name in ("train", "val", "test")}
    assert sizes == {"train": 7, "val": 1, "test": 2}


def test_split_three_samples_keeps_val_and_test_nonempty():
    m = split_dataset(_manifest_of(3), (0.7, 0.1, 0.2), seed=0)
    sizes = {name: len(m.entries_for(name)) for name in ("train", "val", "test")}
    assert sizes == {"train": 1, "val": 1, "test": 1}


def test_split_deterministic_and_partitions():
    a = split_dataset(_manifest_of(29), seed=5)
    b = split_dataset(_manifest_of(29), seed=5)
    assert a.split == b.split
    groups = [set(e.id for e in a.entries_for(n)) for n in ("train", "val", "test")]
    assert set.union(*groups) == set(a.ids())
    assert sum(len(g) for g in groups) == 29  # disjoint


def test_split_rejects_tiny_and_bad_fractions():
    with pytest.raises(SplitError):
        split_dataset(_manifest_of(2), seed=0)
    with pytest.raises(SplitError):
        split_dataset(_manifest_of(10), (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(SplitError):
        split_dataset(_manifest_of(10), (0.9, -0.1, 0.2), seed=0)


# ---------------------------------------------------------------------------
# synthetic corpus

def test_synth_plants_expected_salience(tmp_path):
    cfg = SynthConfig(n_samples=4, n_sentences=10, salience=0.3)
    manifest = synth_generate(cfg, seed=0, out_dir=tmp_path / "d")
    for entry in manifest.entries:
        masks = data.load_masks(manifest, entry.id)
        assert sum(masks["salient_sentences"]) == 3


def test_synth_zero_noise_frames_equal_latent(tmp_path):
    cfg = SynthConfig(n_samples=3, noise=0.0)
    manifest = synth_generate(cfg, seed=3, out_dir=tmp_path / "d")
    samples, _ = data.load_dataset(manifest)
    for s in samples:
        masks = data.load_masks(manifest, s.document.id)
        sal = np.flatnonzero(masks["salient_frames"])
        sal_frames = s.frames[sal]
        # all salient frames share one latent direction, bit-for-bit
        for row in sal_frames[1:]:
            npt.assert_array_equal(row, sal_frames[0])
        npt.assert_allclose(np.linalg.norm(sal_frames[0]), 1.0, atol=1e-6)


def test_synth_greedy_labels_recover_planted_mask(tmp_path):
    manifest = synth_generate(SynthConfig(n_samples=6), seed=21, out_dir=tmp_path / "d")
    samples, _ = data.load_dataset(manifest)
    for s in samples:
        masks = data.load_masks(manifest, s.document.id)
        labels = greedy_labels(s.document, s.gold_summary)
        npt.assert_array_equal(labels.labels, masks["salient_sentences"])


def test_synth_byte_reproducible(tmp_path):
    cfg = SynthConfig(n_samples=3)
    synth_generate(cfg, seed=7, out_dir=tmp_path / "a")
    synth_generate(cfg, seed=7, out_dir=tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


@pytest.mark.parametrize("field,value", [
    ("salience", 1.5), ("salience", 0.0), ("salience", math.nan),
    ("n_samples", -1), ("n_samples", 2), ("n_sentences", 1), ("sentence_len", 0),
    ("n_frames", 0), ("feature_dim", -3), ("feature_dim", 0), ("vocab_size", 20),
    ("vocab_size", 25), ("transcript_len", -1), ("noise", math.nan), ("noise", -0.1),
    ("noise", 1e39), ("n_samples", 3.0), ("with_refs", 1),
])
def test_synth_rejects_bad_salience(tmp_path, field, value):
    out = tmp_path / "d"
    out.mkdir()
    with pytest.raises(ConfigError, match=field):
        synth_generate(SynthConfig(**{field: value}), seed=0, out_dir=out)
    assert not list(out.iterdir())


def test_synth_vocab_size_minimum_fills_the_topic_pool(tmp_path):
    manifest = synth_generate(SynthConfig(n_samples=3, vocab_size=26), seed=0,
                              out_dir=tmp_path / "d")
    samples, _ = data.load_dataset(manifest)
    assert len(samples) == 3


_TINY_SYNTH = st.builds(
    SynthConfig, n_samples=st.integers(3, 5), n_sentences=st.integers(2, 5),
    sentence_len=st.integers(1, 4), n_frames=st.integers(1, 4),
    feature_dim=st.integers(1, 4), vocab_size=st.integers(26, 40),
    salience=st.floats(0.01, 0.99), noise=st.floats(0.0, 2.0),
    transcript_len=st.integers(0, 5), with_refs=st.booleans())
_FUZZ = st.dictionaries(
    st.sampled_from([f.name for f in fields(SynthConfig)]),
    st.one_of(st.integers(-2, 5), st.floats(allow_nan=True), st.booleans()), max_size=2)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(_TINY_SYNTH, _FUZZ)
def test_fuzzed_synth_config_writes_a_loadable_corpus_or_nothing(synth, fuzz):
    synth = replace(synth, **fuzz)
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "d"
        try:
            manifest = synth_generate(synth, seed=0, out_dir=out)
        except ConfigError:
            assert not out.exists()
            return
        samples, _ = data.load_dataset(manifest)
        assert len(samples) == synth.n_samples


def test_synth_transcript_overlaps_salient_sentences(tmp_path):
    manifest = synth_generate(SynthConfig(n_samples=3), seed=13, out_dir=tmp_path / "d")
    samples, _ = data.load_dataset(manifest)
    for s in samples:
        tr = set(tokenize(s.transcript.raw_text))
        gold = set(t for line in s.gold_summary for t in tokenize(line))
        assert tr & gold


def test_load_dataset_reads_each_text_file_once(tmp_path, monkeypatch):
    manifest = synth_generate(SynthConfig(n_samples=6), seed=4, out_dir=tmp_path / "d")
    # one more entry shares the first sample's document and transcript
    extra = replace(manifest.entries[0], id="shared", summary=manifest.entries[1].summary)
    manifest = replace(manifest, entries=manifest.entries + [extra])
    reads = Counter()
    read_text = data._read_text

    def counting_read(path):
        reads[path] += 1
        return read_text(path)

    monkeypatch.setattr(data, "_read_text", counting_read)
    samples, vocab = data.load_dataset(manifest)
    files = {manifest.root / getattr(e, part) for e in manifest.entries
             for part in ("document", "transcript", "summary")}
    assert set(reads) == files and len(files) == 18
    assert set(reads.values()) == {1}

    monkeypatch.setattr(data, "_read_text", read_text)
    vocab_ref = data.build_vocab((manifest.root / getattr(e, part)).read_text("utf-8")
                                 for e in manifest.entries
                                 for part in ("document", "transcript"))
    assert vocab == vocab_ref
    for s, e in zip(samples, manifest.entries, strict=True):
        ref = data.load_sample(manifest, e, vocab_ref)
        assert (s.document.id, s.document.raw_sentences, s.transcript.raw_text,
                s.gold_summary) == (ref.document.id, ref.document.raw_sentences,
                                    ref.transcript.raw_text, ref.gold_summary)
        for got, want in zip(s.document.sentences + [s.frames, s.transcript.tokens,
                                                     s.ref_image_features],
                             ref.document.sentences + [ref.frames,
                                                       ref.transcript.tokens,
                                                       ref.ref_image_features],
                             strict=True):
            npt.assert_array_equal(got, want)
