import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from mmsum import data
from mmsum.data import (DatasetManifest, SynthConfig, VideoFeatures, load_manifest,
                        read_feature_file, split_dataset, subsample_frames,
                        synth_generate, tokenize, write_feature_file)
from mmsum.errors import ConfigError, FormatError, IngestionError, SchemaError, SplitError
from mmsum.training import greedy_labels


# ---------------------------------------------------------------------------
# tokenizer

def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize('The cat, "sat" down-town!') == ["the", "cat", "sat", "down-town"]


def test_tokenize_unicode_whitespace_and_empty_tokens():
    assert tokenize("a b\t...\nc") == ["a", "b", "c"]


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
    video = VideoFeatures(frames=np.arange(10)[:, None].astype(float), fps_group=5)
    out = subsample_frames(video, seed=4)
    assert out.frames.shape == (2, 1)
    assert 0 <= out.frames[0, 0] < 5
    assert 5 <= out.frames[1, 0] < 10


def test_subsample_group_one_is_identity(rng):
    frames = rng.normal(size=(7, 3))
    out = subsample_frames(VideoFeatures(frames=frames, fps_group=1), seed=0)
    npt.assert_array_equal(out.frames, frames)


def test_subsample_deterministic():
    frames = np.arange(23)[:, None].astype(float)
    a = subsample_frames(VideoFeatures(frames=frames, fps_group=5), seed=9)
    b = subsample_frames(VideoFeatures(frames=frames, fps_group=5), seed=9)
    npt.assert_array_equal(a.frames, b.frames)


def test_subsample_count_is_ceil_for_all_sizes():
    for n in range(1, 101):
        frames = np.zeros((n, 1))
        for g in range(1, 11):
            out = subsample_frames(VideoFeatures(frames=frames, fps_group=g), seed=1)
            assert out.frames.shape[0] == math.ceil(n / g), (n, g)


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
        sal_frames = s.video.frames[sal]
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


def test_synth_rejects_bad_salience(tmp_path):
    with pytest.raises(ConfigError, match="salience"):
        synth_generate(SynthConfig(salience=1.5), seed=0, out_dir=tmp_path / "d")


def test_synth_transcript_overlaps_salient_sentences(tmp_path):
    manifest = synth_generate(SynthConfig(n_samples=3), seed=13, out_dir=tmp_path / "d")
    samples, _ = data.load_dataset(manifest)
    for s in samples:
        tr = set(tokenize(s.transcript.raw_text))
        gold = set(t for line in s.gold_summary for t in tokenize(line))
        assert tr & gold
