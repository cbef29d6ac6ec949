"""Directional finite-difference checks of the whole model's gradient.

Criterion 1 (``training.gradient_check``) compares every gradient coordinate
with a central difference, but only at h = 2 and without the REINFORCE
surrogate. Here each parameter tensor P gets one random unit direction v,
and the central difference (L(theta + eps v) - L(theta - eps v)) / 2 eps is
compared with g . v, the directional derivative that reverse mode gives
(Baydin et al., "Automatic Differentiation in Machine Learning: a Survey",
arXiv:1502.05767). It costs two forwards per tensor, so it runs at shapes
where a per-coordinate check cannot: every attention x fusion mode at h = 8
over a ragged word batch and a 20-step transcript, and one paper-corpus
sample under the default config (h = 64, 2048-d frames, a 150-token
transcript).

L is the training loss, alpha_ts * CE + alpha_vs * surrogate. The
surrogate's sampled actions and its advantage are drawn once at theta and
then held fixed, so L is smooth in the frame probabilities.

Tolerance: |fd - g . v| <= RTOL ||g|| ||v|| + FLOOR u |L| / eps, with u the
float64 unit round-off. The second term is the round-off of the central
difference: each loss value carries an error of a few u |L|, and the
difference divides it by eps. At EPS = 1e-5 the measured error was at most
0.9 u |L| / eps in every mode and at the paper sample, so FLOOR = 16 leaves
a margin of about 18. The truncation error, eps^2 / 6 times a third
derivative, dominates at eps = 1e-4, where it measured at most 23 u |L| /
1e-4; at EPS it is 100 times smaller, about 0.02 u |L| / eps. The first
term covers the rounding in g and in g . v, which scales with ||g|| ||v||
and is orders of magnitude below RTOL = 1e-6 at these sizes. A wrong rule
that is off by a share s of a tensor's gradient norm moves g . v by about
s ||g|| ||v|| / sqrt(size), at most 735 times less than s ||g|| ||v|| for
the largest tensor here, so RTOL sits far below any such share that
matters.

A tensor whose whole gradient lies below the round-off term passes whatever
its rule. So the weights are drawn from [-0.3, 0.3] rather than the default
0.08, at which the paper sample's attention and transcript gradients are
below that term, and the tests check that the embedding and the word,
sentence and frame BiLSTMs, which the sentence pool and the BiLSTM node's
rules feed, stand at least 1000 times above it. Some attention tensors of
bi-hop attention stay below it: their hop-2 values are near-equal averages
of the hop-1 values.
"""
import itertools

import numpy as np
import pytest

from mmsum import autodiff as ad, training
from mmsum.config import RunConfig
from mmsum.data import (Document, Sample, SynthConfig, Transcript, load_dataset,
                        prepare_for_model, synth_generate)
from mmsum.model import SummarizerModel, build_parameters

EPS = 1e-5
RTOL = 1e-6
FLOOR = 16
INIT_SCALE = 0.3
BASELINE = 0.5      # the REINFORCE baseline, so the advantage is not the reward

ATTENTIONS = ("none", "concat_product", "bilinear", "bihop")
FUSIONS = ("early", "tensor", "late", "late_plus")
STRONG = ("encoders/embedding", "encoders/word/", "encoders/sentence/", "encoders/frame/")


def frozen_loss(model, sample, cfg):
    """The training loss of ``sample`` as a function of the model's current
    parameters, with the surrogate's actions and advantage drawn here, once."""
    out = model.forward(sample)
    drawn, rewards, _, actions = training.video_loss(
        out.frame_probs, out.frame_states, np.random.default_rng(1), BASELINE)
    actions = actions.astype(np.float64)
    advantage = rewards.div + rewards.rep - BASELINE
    labels = (np.arange(len(sample.document.sentences)) % 2 == 0).astype(np.float64)

    def loss():
        out = model.forward(sample)
        # video_loss's surrogate, for these actions and this advantage
        surrogate = ad.log_likelihood_sum(out.frame_probs, actions, training.PROB_EPS,
                                          (-advantage,))
        return training.bistream_loss(training.ce_loss(out.sent_probs, labels),
                                      surrogate, cfg.alpha_ts, cfg.alpha_vs)

    assert loss().data.tobytes() == training.bistream_loss(
        training.ce_loss(out.sent_probs, labels), drawn,
        cfg.alpha_ts, cfg.alpha_vs).data.tobytes()
    return loss


def directional_check(cfg, sample, vocab_size, seed=0):
    """(name, ||g||, |fd - g . v|, tolerance) per parameter tensor, and the
    round-off term of the tolerance."""
    rng = np.random.default_rng(seed)
    model = SummarizerModel(build_parameters(cfg, vocab_size, rng, init_scale=INIT_SCALE),
                            cfg, vocab_size)
    loss = frozen_loss(model, sample, cfg)
    value = loss()
    ad.backward(value)
    floor = FLOOR * np.finfo(np.float64).eps * abs(float(value.data)) / EPS
    rows = []
    with ad.no_grad():
        for name, p in model.params.items():
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            v = rng.normal(size=p.data.shape)
            v /= np.linalg.norm(v)
            theta = p.data.copy()
            p.data[...] = theta + EPS * v
            hi = float(loss().data)
            p.data[...] = theta - EPS * v
            lo = float(loss().data)
            p.data[...] = theta
            norm = float(np.linalg.norm(g))
            rows.append((name, norm, abs((hi - lo) / (2 * EPS) - float(np.vdot(g, v))),
                         RTOL * norm + floor))
    return rows, floor


def assert_directions_agree(rows, floor, strong=STRONG):
    """Every tensor within its tolerance, and each tensor named by a prefix in
    ``strong`` with a gradient at least 1000 times the round-off term."""
    assert [row for row in rows if row[2] > row[3]] == []
    assert [row[:2] for row in rows
            if row[0].startswith(strong) and row[1] < 1e3 * floor] == []


def ragged_sample(rng, vocab_size=30, feature_dim=12):
    """Five sentences of 5, 1, 7, 3 and 4 tokens, six frames and a 20-token
    transcript."""
    lengths = (5, 1, 7, 3, 4)
    doc = Document(sentences=[rng.integers(0, vocab_size, size=n) for n in lengths],
                   raw_sentences=["x"] * len(lengths), id="ragged")
    return Sample(document=doc, frames=rng.normal(size=(6, feature_dim)),
                  transcript=Transcript(tokens=rng.integers(0, vocab_size, size=20),
                                        raw_text="x"),
                  gold_summary=["x"])


@pytest.mark.parametrize("attention,fusion_mode", itertools.product(ATTENTIONS, FUSIONS))
def test_directional_derivatives_in_every_mode(attention, fusion_mode):
    cfg = RunConfig(hidden=8, embed_dim=8, attn_dim=8, fusion_dim=8, feature_dim=12,
                    attention=attention, fusion=fusion_mode, fps_group=1)
    rows, floor = directional_check(cfg, ragged_sample(np.random.default_rng(0)), 30)
    assert_directions_agree(rows, floor)


def test_directional_derivatives_at_a_paper_corpus_sample(tmp_path):
    """The first sample of a paper-shape corpus (25 sentences of 20 tokens,
    200 frames of 2048-d taken down to 40, a 150-token transcript), the
    default config, all 61 parameter tensors; here the transcript BiLSTM
    stands well above the round-off term too."""
    synth = SynthConfig(n_samples=3, n_sentences=25, sentence_len=20, n_frames=200,
                        feature_dim=2048, vocab_size=2000, transcript_len=150)
    samples, vocab = load_dataset(synth_generate(synth, seed=1, out_dir=tmp_path))
    cfg = RunConfig()
    rows, floor = directional_check(cfg, prepare_for_model(samples[0], cfg.fps_group,
                                                           cfg.seed), len(vocab))
    assert len(rows) == 61
    assert_directions_agree(rows, floor, strong=("encoders/",))
