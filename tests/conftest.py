import time

import numpy as np
import pytest

from mmsum import autodiff as ad
from mmsum.config import RunConfig
from mmsum.data import SynthConfig, load_dataset, synth_generate


def tiny_config(**kw) -> RunConfig:
    base = dict(hidden=2, embed_dim=2, attn_dim=2, fusion_dim=2, feature_dim=2,
                attention="bihop", fusion="late_plus", fps_group=1, seed=0)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def micro_corpus(tmp_path_factory):
    """Small synthetic corpus shared by tests that just need valid data."""
    out = tmp_path_factory.mktemp("micro_corpus")
    synth = SynthConfig(n_samples=6, n_sentences=4, sentence_len=5, n_frames=4,
                        feature_dim=8, vocab_size=40, transcript_len=10)
    manifest = synth_generate(synth, seed=11, out_dir=out)
    samples, vocab = load_dataset(manifest)
    return manifest, samples, vocab


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def handoffs(monkeypatch):
    """The future of every handoff to the worker, which is forced on (``use_worker``
    holds on any machine). Each handed-off call starts after a pause, so that work
    still running when its caller returns shows as not done, or as wrong bits."""
    monkeypatch.setattr(ad, "use_worker", lambda: True)
    made, handoff = [], ad.handoff

    def late(fn, *args):
        def run():
            time.sleep(0.02)
            return fn(*args)
        made.append(handoff(run))
        return made[-1]

    monkeypatch.setattr(ad, "handoff", late)
    return made
