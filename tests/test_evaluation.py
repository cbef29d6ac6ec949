import numpy as np
import numpy.testing as npt
import pytest

from conftest import tiny_config
from mmsum import evaluation
from mmsum.data import Document, Sample, Transcript
from mmsum.errors import EvalError
from mmsum.evaluation import (cos_image_similarity, overlap_report, rouge_all,
                              rouge_l, rouge_n, summarize, top_k_indices)
from mmsum.model import SummarizerModel, build_parameters


# ---------------------------------------------------------------------------
# ROUGE-n

def test_rouge_n_identical():
    for n in (1, 2):
        score = rouge_n("the cat sat".split(), "the cat sat".split(), n)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_n_disjoint():
    score = rouge_n("aa bb".split(), "cc dd".split(), 1)
    assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_1_hand_fixture():
    score = rouge_n("the cat sat".split(), "the cat".split(), 1)
    npt.assert_allclose(score.precision, 2.0 / 3.0, atol=1e-12)
    assert score.recall == 1.0
    npt.assert_allclose(score.f1, 0.8, atol=1e-12)


def test_rouge_n_clips_repeated_grams():
    score = rouge_n("the the the".split(), "the cat".split(), 1)
    npt.assert_allclose(score.precision, 1.0 / 3.0, atol=1e-12)
    npt.assert_allclose(score.recall, 0.5, atol=1e-12)


def test_rouge_1_single_tokens_is_exact_match_indicator():
    assert rouge_n(["x"], ["x"], 1).f1 == 1.0
    assert rouge_n(["x"], ["y"], 1).f1 == 0.0


def test_rouge_n_empty_reference_raises():
    with pytest.raises(EvalError):
        rouge_n(["a"], [], 1)


def test_rouge_n_swap_exchanges_precision_and_recall(rng):
    vocab = ["a", "b", "c", "d"]
    for _ in range(20):
        cand = list(rng.choice(vocab, size=rng.integers(1, 8)))
        ref = list(rng.choice(vocab, size=rng.integers(1, 8)))
        fwd, rev = rouge_n(cand, ref, 1), rouge_n(ref, cand, 1)
        npt.assert_allclose(fwd.precision, rev.recall, atol=1e-12)
        npt.assert_allclose(fwd.recall, rev.precision, atol=1e-12)
        npt.assert_allclose(fwd.f1, rev.f1, atol=1e-12)


def test_rouge_accepts_sentence_lists():
    score = rouge_n([["the", "cat"], ["sat"]], [["the", "cat"]], 1)
    npt.assert_allclose(score.f1, 0.8, atol=1e-12)


# ---------------------------------------------------------------------------
# ROUGE-L

def test_rouge_l_identical():
    score = rouge_l("a b c".split(), "a b c".split())
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_l_hand_fixture():
    score = rouge_l("a x b y c".split(), "a b c".split())
    npt.assert_allclose(score.precision, 3.0 / 5.0, atol=1e-12)
    assert score.recall == 1.0
    npt.assert_allclose(score.f1, 0.75, atol=1e-12)


def test_rouge_l_reversed_distinct_tokens():
    score = rouge_l("a b c".split(), "c b a".split())
    npt.assert_allclose(score.precision, 1.0 / 3.0, atol=1e-12)


def test_rouge_l_swap_identity(rng):
    vocab = ["a", "b", "c"]
    for _ in range(10):
        cand = list(rng.choice(vocab, size=5))
        ref = list(rng.choice(vocab, size=3))
        fwd, rev = rouge_l(cand, ref), rouge_l(ref, cand)
        npt.assert_allclose(fwd.precision, rev.recall, atol=1e-12)
        npt.assert_allclose(fwd.f1, rev.f1, atol=1e-12)


# ---------------------------------------------------------------------------
# cosine image similarity

def test_cos_exact_matches_hit_100():
    frames = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
    refs = np.array([[2.0, 0.0], [0.0, 1.0]])  # scaled copies of two frames
    npt.assert_allclose(cos_image_similarity(frames, refs), 100.0, atol=1e-9)


def test_cos_orthogonal_is_zero():
    frames = np.array([[1.0, 0.0, 0.0]])
    refs = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
    npt.assert_allclose(cos_image_similarity(frames, refs), 0.0, atol=1e-9)


def test_cos_mean_of_per_reference_maxima():
    frames = np.array([[1.0, 0.0], [0.0, 1.0]])
    refs = np.array([[1.0, 0.0], [0.6, -0.8]])  # best cosines 1.0 and 0.6
    npt.assert_allclose(cos_image_similarity(frames, refs), 80.0, atol=1e-9)


def test_cos_invariant_to_positive_rescaling(rng):
    frames, refs = rng.normal(size=(4, 6)), rng.normal(size=(3, 6))
    base = cos_image_similarity(frames, refs)
    scaled = cos_image_similarity(frames * 7.5, refs * 0.01)
    npt.assert_allclose(base, scaled, atol=1e-9)


def test_cos_zero_norm_rejected():
    with pytest.raises(EvalError):
        cos_image_similarity(np.zeros((1, 3)), np.ones((1, 3)))


def test_cos_dim_mismatch_rejected():
    with pytest.raises(EvalError):
        cos_image_similarity(np.ones((1, 3)), np.ones((1, 4)))


# ---------------------------------------------------------------------------
# overlap report

def _sample(sentences, transcript, gold, sid="s"):
    return Sample(
        document=Document(sentences=[np.zeros(1, dtype=int)] * len(sentences),
                          raw_sentences=sentences, id=sid),
        frames=np.ones((1, 2)),
        transcript=Transcript(tokens=np.zeros(1, dtype=int), raw_text=transcript),
        gold_summary=gold,
    )


def test_overlap_transcript_identical_to_article():
    s = _sample(["the cat sat"], "the cat sat", ["other words"])
    report = overlap_report([s])
    assert report["article"] == {"r1": 100.0, "r2": 100.0, "rl": 100.0}


def test_overlap_disjoint_everything():
    s = _sample(["aa bb"], "zz yy", ["cc dd"])
    report = overlap_report([s])
    assert report["article"] == {"r1": 0.0, "r2": 0.0, "rl": 0.0}
    assert report["reference"] == {"r1": 0.0, "r2": 0.0, "rl": 0.0}


def test_overlap_two_sample_mean_matches_hand_average():
    s1 = _sample(["the cat sat"], "the cat sat", ["the cat"])
    s2 = _sample(["aa bb"], "zz yy", ["cc"])
    report = overlap_report([s1, s2])
    expected_art = 100.0 * (rouge_all("the cat sat".split(),
                                      "the cat sat".split()).r1.f1 + 0.0) / 2
    npt.assert_allclose(report["article"]["r1"], expected_art, atol=1e-9)
    ref1 = rouge_all("the cat sat".split(), "the cat".split())
    npt.assert_allclose(report["reference"]["r1"], 100.0 * ref1.r1.f1 / 2, atol=1e-9)


def test_overlap_all_empty_transcripts_raise():
    s = _sample(["aa"], "", ["bb"])
    with pytest.raises(EvalError):
        overlap_report([s])


# ---------------------------------------------------------------------------
# summary extraction

def test_top_k_all_in_original_order():
    assert top_k_indices(np.array([0.3, 0.9, 0.5]), 3, "x") == [0, 1, 2]


def test_top_k_unique_max_always_included(rng):
    for _ in range(20):
        probs = rng.random(6)
        probs[2] = 2.0
        assert 2 in top_k_indices(probs, 1, "x")


def test_top_k_tie_prefers_lower_index():
    assert top_k_indices(np.array([0.5, 0.7, 0.7, 0.7]), 2, "x") == [1, 2]


def test_top_k_clamps_with_warning():
    with pytest.warns(UserWarning, match="clamping"):
        idx = top_k_indices(np.array([0.1, 0.2]), 5, "frames")
    assert idx == [0, 1]


def test_summarize_end_to_end(micro_corpus):
    manifest, samples, vocab = micro_corpus
    cfg = tiny_config(feature_dim=8)
    params = build_parameters(cfg, len(vocab), np.random.default_rng(0))
    model = SummarizerModel(params, cfg, len(vocab))
    out = summarize(samples[0], model, k_sentences=2, k_frames=2)
    assert out.sentence_indices == sorted(out.sentence_indices)
    assert len(out.sentence_indices) == 2
    assert len(out.frame_indices) == 2
    assert out.sentence_probs.shape == (len(samples[0].document.raw_sentences),)


def test_evaluate_dataset_report_shape(micro_corpus):
    manifest, samples, vocab = micro_corpus
    cfg = tiny_config(feature_dim=8)
    params = build_parameters(cfg, len(vocab), np.random.default_rng(0))
    model = SummarizerModel(params, cfg, len(vocab))
    report = evaluation.evaluate_dataset(samples[:3], model)
    assert len(report["per_sample"]) == 3
    mean = report["corpus_mean"]
    assert set(mean) == {"r1", "r2", "rl", "cos"}
    assert 0.0 <= mean["r1"] <= 1.0
    assert mean["cos"] is None or 0.0 <= mean["cos"] <= 100.0


def test_evaluate_dataset_without_refs_warns(micro_corpus):
    manifest, samples, vocab = micro_corpus
    import dataclasses
    stripped = [dataclasses.replace(s, ref_image_features=None) for s in samples[:2]]
    cfg = tiny_config(feature_dim=8)
    params = build_parameters(cfg, len(vocab), np.random.default_rng(0))
    model = SummarizerModel(params, cfg, len(vocab))
    with pytest.warns(UserWarning, match="Cos omitted"):
        report = evaluation.evaluate_dataset(stripped, model)
    assert report["corpus_mean"]["cos"] is None
