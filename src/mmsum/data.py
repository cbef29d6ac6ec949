"""Dataset schema, on-disk formats, and the synthetic corpus generator.

On-disk formats:

* Manifest: JSON with ``{"samples": [{"id", "document", "features",
  "transcript", "summary", "ref_features"?}], "split": {"<id>": "train|val|test"}}``.
  File paths are relative to the manifest's directory.
* Feature file: magic bytes ``M2SMFEAT``, two little-endian uint32 (rows,
  cols), then rows*cols little-endian float32 values in row-major order.
* Document / transcript / summary: UTF-8 text, one sentence per line.

A loaded ``Sample`` holds its frame features as a plain (NM, D_v) array;
``prepare_for_model`` swaps in ``subsample_frames(frames, fps_group, seed)``.

Tokenization is lowercase, split on Unicode whitespace, with Unicode
punctuation stripped from token edges.
"""
from __future__ import annotations

import os
import struct
import unicodedata
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import check_fields, setting
from .errors import (ConfigError, FormatError, IngestionError, SchemaError, SplitError,
                     read_json, write_json, write_json_lines)

FEATURE_MAGIC = b"M2SMFEAT"
UNK_TOKEN = "<unk>"


# ---------------------------------------------------------------------------
# tokenization / vocabulary

def tokenize(text: str) -> list[str]:
    tokens = []
    for raw in text.lower().split():
        start, stop = 0, len(raw)
        while start < stop and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while stop > start and unicodedata.category(raw[stop - 1]).startswith("P"):
            stop -= 1
        if stop > start:
            tokens.append(raw[start:stop])
    return tokens


def build_vocab(texts) -> dict[str, int]:
    """Deterministic vocabulary: sorted unique tokens, index 0 is <unk>."""
    seen = set()
    for text in texts:
        seen.update(tokenize(text))
    vocab = {UNK_TOKEN: 0}
    for tok in sorted(seen):
        vocab[tok] = len(vocab)
    return vocab


def encode_tokens(tokens, vocab) -> np.ndarray:
    unk = vocab[UNK_TOKEN]
    return np.array([vocab.get(t, unk) for t in tokens], dtype=np.int64)


# ---------------------------------------------------------------------------
# domain types

@dataclass
class Document:
    sentences: list[np.ndarray]      # token ids per sentence
    raw_sentences: list[str]
    id: str


@dataclass
class Transcript:
    tokens: np.ndarray               # token ids, possibly empty
    raw_text: str


@dataclass
class Sample:
    document: Document
    frames: np.ndarray               # (NM, D_v) float
    transcript: Transcript
    gold_summary: list[str]
    ref_image_features: np.ndarray | None = None


@dataclass
class ManifestEntry:
    id: str
    document: str
    features: str
    transcript: str
    summary: str
    ref_features: str | None = None


_ENTRY_FIELDS = fields(ManifestEntry)


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    split: dict[str, str] = field(default_factory=dict)
    root: Path = Path(".")

    def ids(self):
        return [e.id for e in self.entries]

    def entries_for(self, split_name: str):
        return [e for e in self.entries if self.split.get(e.id) == split_name]


# ---------------------------------------------------------------------------
# binary feature files

def write_feature_file(path, matrix) -> None:
    m = np.asarray(matrix, dtype=np.float32)
    if m.ndim != 2:
        raise FormatError(f"feature matrix must be 2-D, got shape {m.shape}")
    rows, cols = m.shape
    payload = m.astype("<f4", copy=False).tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(payload)


def read_feature_file(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:8] != FEATURE_MAGIC:
        raise FormatError(f"bad magic in feature file {path}")
    if len(blob) < 16:
        raise FormatError(f"truncated header in feature file {path}")
    rows, cols = struct.unpack("<II", blob[8:16])
    expected = 16 + rows * cols * 4
    if len(blob) != expected:
        raise FormatError(
            f"feature file {path} declares {rows}x{cols} "
            f"({expected} bytes) but has {len(blob)} bytes")
    flat = np.frombuffer(blob, dtype="<f4", offset=16)
    return flat.reshape(rows, cols).copy()


# ---------------------------------------------------------------------------
# manifest

def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not os.path.isfile(path):    # False, not OSError, for a name too long
        raise IngestionError(f"manifest not found: {path}")
    doc = read_json(path, dict, "manifest", SchemaError)
    if not isinstance(doc.get("samples"), list):
        raise SchemaError(f"manifest {path}: top-level 'samples' must be a list")

    root = path.parent
    entries, seen = [], set()
    for raw in doc["samples"]:
        if not isinstance(raw, dict):
            raise SchemaError(f"manifest entry must be an object: {raw!r}")
        entry = ManifestEntry(**{f.name: raw.get(f.name) for f in _ENTRY_FIELDS})
        for f in _ENTRY_FIELDS:
            value = getattr(entry, f.name)
            optional = f.default is None
            if not (isinstance(value, str) or (optional and value is None)):
                raise SchemaError(f"manifest entry '{f.name}' must be a string: {raw}")
        if entry.id in seen:
            raise SchemaError(f"duplicate sample id '{entry.id}' in manifest")
        seen.add(entry.id)
        for f in _ENTRY_FIELDS[1:]:     # every field after the id is a file path
            rel = getattr(entry, f.name)
            if rel is not None and not os.path.isfile(root / rel):
                raise IngestionError(f"missing file referenced by manifest: {root / rel}")
        entries.append(entry)

    split = doc.get("split", {})
    if not isinstance(split, dict):
        raise SchemaError(f"manifest {path}: 'split' must be an object")
    for sid, name in split.items():
        if name not in ("train", "val", "test"):
            raise SchemaError(f"invalid split name '{name}' for id '{sid}'")
        if sid not in seen:
            raise SchemaError(f"split references unknown id '{sid}'")
    return DatasetManifest(entries=entries, split=dict(split), root=root)


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_json(path, {
        "samples": [{k: v for k, v in asdict(e).items() if v is not None}
                    for e in manifest.entries],
        "split": manifest.split,
    })


# ---------------------------------------------------------------------------
# sample loading

def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"sample file {path} is not UTF-8 text: {exc}") from exc


def _lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.strip()]


def load_sample(manifest: DatasetManifest, entry: ManifestEntry, vocab,
                min_frames: int = 1) -> Sample:
    return _load_sample(manifest, entry, vocab, min_frames, _read_text)


def _load_sample(manifest, entry, vocab, min_frames, read) -> Sample:
    """``load_sample`` with the text files read by ``read(path)``."""
    root = manifest.root
    raw_sentences = _lines(read(root / entry.document))
    if not raw_sentences:
        raise IngestionError(f"document has no sentences: {entry.document}")
    sentences = []
    for line in raw_sentences:
        toks = tokenize(line)
        if not toks:
            raise IngestionError(f"sentence tokenizes to nothing in {entry.document}: {line!r}")
        sentences.append(encode_tokens(toks, vocab))

    frames = read_feature_file(root / entry.features)
    if frames.shape[0] < min_frames:
        raise IngestionError(
            f"sample {entry.id} has {frames.shape[0]} frames, below minimum {min_frames}")
    if not np.all(np.isfinite(frames)):
        raise IngestionError(f"non-finite frame features in {entry.features}")

    transcript_text = read(root / entry.transcript)
    transcript_tokens = encode_tokens(tokenize(transcript_text), vocab)

    gold = _lines(read(root / entry.summary))
    refs = read_feature_file(root / entry.ref_features) if entry.ref_features else None
    if refs is not None and refs.shape[1] != frames.shape[1]:
        raise IngestionError(
            f"ref feature dim {refs.shape[1]} != frame feature dim {frames.shape[1]} "
            f"for sample {entry.id}")
    if refs is not None and not np.all(np.isfinite(refs)):
        raise IngestionError(f"non-finite reference features in {entry.ref_features}")

    return Sample(
        document=Document(sentences=sentences, raw_sentences=raw_sentences, id=entry.id),
        frames=frames,
        transcript=Transcript(tokens=transcript_tokens, raw_text=transcript_text),
        gold_summary=gold,
        ref_image_features=refs,
    )


def load_dataset(manifest: DatasetManifest, min_frames: int = 1):
    """Load all samples, reading each text file once, with the vocabulary
    built from documents + transcripts (the checkpoint owns it afterwards)."""
    root, texts = manifest.root, {}
    for e in manifest.entries:
        for path in (root / e.document, root / e.transcript, root / e.summary):
            if path not in texts:
                texts[path] = _read_text(path)
    vocab = build_vocab(texts[root / rel] for e in manifest.entries
                        for rel in (e.document, e.transcript))
    samples = [_load_sample(manifest, e, vocab, min_frames, texts.__getitem__)
               for e in manifest.entries]
    return samples, vocab


# ---------------------------------------------------------------------------
# frame subsampling

def sample_rng_seed(base_seed: int, sample_id: str) -> int:
    return (int(base_seed) * 1_000_003 + zlib.crc32(sample_id.encode("utf-8"))) % 2**32


def subsample_frames(frames: np.ndarray, group: int, seed: int) -> np.ndarray:
    """A new array of one frame per ``group`` consecutive rows of ``frames``,
    chosen uniformly within each group by a seeded RNG."""
    if group < 1:
        raise ConfigError(f"fps_group must be >= 1, got {group}")
    rng = np.random.default_rng(seed)
    n = frames.shape[0]
    return frames[[int(rng.integers(lo, min(lo + group, n)))
                   for lo in range(0, n, group)]]


def prepare_for_model(sample: Sample, fps_group: int, base_seed: int) -> Sample:
    """Apply frame subsampling ahead of encoding; the per-sample seed is
    derived from the run seed and the sample id, so training and evaluation
    see identical frames. A ``fps_group`` below 1 is a ``ConfigError``."""
    if fps_group == 1:
        return sample
    seed = sample_rng_seed(base_seed, sample.document.id)
    return replace(sample, frames=subsample_frames(sample.frames, fps_group, seed))


# ---------------------------------------------------------------------------
# dataset splitting

def split_dataset(manifest: DatasetManifest, fractions=(0.7, 0.1, 0.2),
                  seed: int = 0) -> DatasetManifest:
    """Seeded shuffle + floor-based partition. Remainder goes to train; val
    and test are guaranteed nonempty."""
    ft, fv, fs = fractions
    if min(ft, fv, fs) <= 0:
        raise SplitError(f"fractions must be positive, got {fractions}")
    if abs(ft + fv + fs - 1.0) > 1e-9:
        raise SplitError(f"fractions must sum to 1, got {fractions}")
    ids = manifest.ids()
    n = len(ids)
    if n < 3:
        raise SplitError(f"need at least 3 samples to split, got {n}")

    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(n)]
    n_val = max(1, int(np.floor(fv * n)))
    n_test = max(1, int(np.floor(fs * n)))
    n_train = n - n_val - n_test
    if n_train < 1:
        raise SplitError(f"split leaves no training samples for n={n}")

    split = {}
    for sid in order[:n_train]:
        split[sid] = "train"
    for sid in order[n_train:n_train + n_val]:
        split[sid] = "val"
    for sid in order[n_train + n_val:]:
        split[sid] = "test"
    return DatasetManifest(entries=manifest.entries, split=split, root=manifest.root)


# ---------------------------------------------------------------------------
# synthetic corpus

@dataclass
class SynthConfig:
    n_samples: int = setting(20, minimum=3)   # split_dataset needs one per split
    n_sentences: int = setting(10, minimum=2)
    sentence_len: int = setting(8, minimum=1)
    n_frames: int = setting(8, minimum=1)
    feature_dim: int = setting(16, minimum=1)
    # the topic pool, vocab_size - int(0.8 * vocab_size) words, must hold 6 topic tokens
    vocab_size: int = setting(120, minimum=26)
    salience: float = setting(0.3, minimum=0, maximum=1, strict=True)
    # a noise scale; frames (unit vector + noise * N(0, 1)) are stored as float32
    noise: float = setting(0.1, minimum=0, maximum=1e30)
    transcript_len: int = setting(24, minimum=0)
    with_refs: bool = True


SYNTH_REDRAWS = 1000    # draws of one sentence before its duplicates end synth
TRANSCRIPT_OVERLAP = 0.6    # chance a transcript token comes from a salient sentence
DISTRACTOR_RATE = 0.08      # chance a non-salient sentence token is a topic-pool word


def _word(i: int) -> str:
    return f"w{i:03d}"


def _draw_sentences(config: SynthConfig, rng, general_pool, topic_pool):
    """A sample's first draws: its salient sentence indices and its distinct
    sentences as (token ids, text)."""
    ns = config.n_sentences
    n_sal = max(1, round(ns * config.salience))
    sal_idx = np.sort(rng.choice(ns, size=n_sal, replace=False))
    topic = rng.choice(topic_pool, size=6, replace=False)

    sentences, seen_text = [], set()
    for i in range(ns):
        for _ in range(SYNTH_REDRAWS):
            toks = []
            for _ in range(config.sentence_len):
                if i in sal_idx and rng.random() < 0.5:
                    toks.append(int(rng.choice(topic)))
                elif i not in sal_idx and rng.random() < DISTRACTOR_RATE:
                    toks.append(int(rng.choice(topic_pool)))
                else:
                    toks.append(int(rng.choice(general_pool)))
            text = " ".join(_word(t) for t in toks)
            if text not in seen_text:
                break
        else:
            raise ConfigError(
                f"cannot draw n_sentences={ns} distinct sentences of sentence_len="
                f"{config.sentence_len} tokens from vocab_size={config.vocab_size} "
                f"({SYNTH_REDRAWS} draws gave only duplicates of earlier sentences)")
        seen_text.add(text)
        sentences.append((toks, text))
    return sal_idx, sentences


def synth_generate(config: SynthConfig, seed: int, out_dir) -> DatasetManifest:
    """Materialize a synthetic corpus with planted salient sentences/frames.

    Salient sentences carry sample-specific topic tokens and are copied
    verbatim into the gold summary; salient frame vectors share one latent
    direction (plus noise); the transcript resamples tokens from the salient
    sentences. Ground-truth masks are written to ``<id>.masks.json`` next to
    each sample for test use. Each sample draws from its own spawned RNG, so
    the sentences of every sample, the one draw that can fail, are drawn
    before any file is written: a ``ConfigError`` writes nothing.
    """
    check_fields(config)
    topic_start = int(config.vocab_size * 0.8)
    general_pool = np.arange(0, topic_start)
    topic_pool = np.arange(topic_start, config.vocab_size)
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(config.n_samples)]
    drawn = [_draw_sentences(config, rng, general_pool, topic_pool) for rng in rngs]

    out_dir = Path(out_dir)
    sample_dir = out_dir / "samples"
    sample_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for snum, (rng, (sal_idx, sentences)) in enumerate(zip(rngs, drawn)):
        sid = f"s{snum:03d}"
        nf = config.n_frames
        n_sal_f = max(1, round(nf * config.salience))
        sal_frames = np.sort(rng.choice(nf, size=n_sal_f, replace=False))
        latent = rng.normal(size=config.feature_dim)
        latent /= np.linalg.norm(latent)
        frames = np.empty((nf, config.feature_dim), dtype=np.float64)
        for j in range(nf):
            if j in sal_frames:
                base = latent
            else:
                v = rng.normal(size=config.feature_dim)
                base = v / np.linalg.norm(v)
            frames[j] = base + config.noise * rng.normal(size=config.feature_dim)

        sal_token_bag = [t for i in sal_idx for t in sentences[i][0]]
        tr_toks = []
        for _ in range(config.transcript_len):
            if rng.random() < TRANSCRIPT_OVERLAP:
                tr_toks.append(sal_token_bag[int(rng.integers(len(sal_token_bag)))])
            else:
                tr_toks.append(int(rng.choice(general_pool)))
        transcript = " ".join(_word(t) for t in tr_toks)

        doc_path = f"samples/{sid}.doc.txt"
        feat_path = f"samples/{sid}.features.bin"
        tr_path = f"samples/{sid}.transcript.txt"
        sum_path = f"samples/{sid}.summary.txt"
        (out_dir / doc_path).write_text(
            "\n".join(text for _, text in sentences) + "\n", encoding="utf-8")
        write_feature_file(out_dir / feat_path, frames)
        (out_dir / tr_path).write_text(transcript + "\n", encoding="utf-8")
        (out_dir / sum_path).write_text(
            "\n".join(sentences[i][1] for i in sal_idx) + "\n", encoding="utf-8")

        ref_path = None
        if config.with_refs:
            ref_path = f"samples/{sid}.refs.bin"
            write_feature_file(out_dir / ref_path, frames[sal_frames])

        write_json_lines(sample_dir / f"{sid}.masks.json", [{
            "salient_sentences": [int(i in sal_idx) for i in range(config.n_sentences)],
            "salient_frames": [int(j in sal_frames) for j in range(nf)],
        }])

        entries.append(ManifestEntry(id=sid, document=doc_path, features=feat_path,
                                     transcript=tr_path, summary=sum_path,
                                     ref_features=ref_path))

    manifest = DatasetManifest(entries=entries, root=out_dir)
    manifest = split_dataset(manifest, seed=seed)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


def load_masks(manifest: DatasetManifest, sample_id: str) -> dict:
    return read_json(manifest.root / "samples" / f"{sample_id}.masks.json", dict,
                     "masks file", IngestionError)
