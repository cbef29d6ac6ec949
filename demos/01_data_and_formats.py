"""Generate a synthetic corpus and walk through the on-disk formats:
manifest JSON, binary feature files, text files, and the planted masks."""
import json
import tempfile
from pathlib import Path

import numpy as np

from mmsum.data import (SynthConfig, load_dataset, load_masks, read_feature_file,
                        subsample_frames, synth_generate, tokenize)

with tempfile.TemporaryDirectory() as td:
    print("=== generating a 6-sample corpus ===")
    manifest = synth_generate(SynthConfig(n_samples=6, n_sentences=6, n_frames=10,
                                          feature_dim=8, vocab_size=60),
                              seed=42, out_dir=td)
    print(f"samples: {[e.id for e in manifest.entries]}")
    print(f"split:   {manifest.split}")

    print("\n=== manifest entry ===")
    doc = json.loads((Path(td) / "manifest.json").read_text())
    print(json.dumps(doc["samples"][0], indent=2))

    print("\n=== one document, its summary, and the planted mask ===")
    samples, vocab = load_dataset(manifest)
    s = samples[0]
    masks = load_masks(manifest, s.document.id)
    for i, line in enumerate(s.document.raw_sentences):
        marker = "*" if masks["salient_sentences"][i] else " "
        print(f"  {marker} [{i}] {line}")
    print("gold summary:", s.gold_summary)

    print("\n=== binary feature file ===")
    feat_path = Path(td) / manifest.entries[0].features
    raw = feat_path.read_bytes()
    print(f"magic={raw[:8]!r}  header={np.frombuffer(raw[8:16], dtype='<u4')}")
    frames = read_feature_file(feat_path)
    print(f"matrix shape={frames.shape} dtype={frames.dtype}")

    print("\n=== frame subsampling (one per group of 5) ===")
    sub = subsample_frames(frames, 5, seed=3)
    print(f"{frames.shape[0]} raw frames -> {sub.shape[0]} kept")

    print("\n=== tokenizer ===")
    print(tokenize('The cat, "sat" DOWN-town!'), "<- lowercase, edge punctuation stripped")
    print(f"vocabulary size (corpus-wide, index 0 = unknown): {len(vocab)}")
