"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines
as they complete. Budgets are wall-clock on a laptop-class CPU.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import tiny_config
from mmsum import autodiff as ad, cli, evaluation, training
from mmsum.attention import bihop_context, bilinear_scores, context
from mmsum.autodiff import Tensor
from mmsum.config import RunConfig
from mmsum.data import (Document, SynthConfig, load_dataset, load_masks,
                        synth_generate, tokenize)
from mmsum.evaluation import cos_image_similarity, rouge_l, rouge_n
from mmsum.fusion import FusionHead, fuse_late, fuse_late_plus
from mmsum.model import SummarizerModel
from mmsum.training import (greedy_labels, labeling_score, reward_div, reward_rep,
                            train_model)
from test_attention import make_set
from test_fusion import make_scorer, outer_with_bias

ATTENTIONS = ("none", "concat_product", "bilinear", "bihop")
FUSIONS = ("early", "tensor", "late", "late_plus")


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared synthetic corpus (criteria 6 and 7)

OVERFIT_DIMS = dict(hidden=16, embed_dim=16, attn_dim=16, fusion_dim=16,
                    feature_dim=16, fps_group=1, lr=0.05)


@pytest.fixture(scope="module")
def acceptance_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_corpus")
    manifest = synth_generate(SynthConfig(), seed=7, out_dir=out)  # 20 x 10 x 8 x 16d
    samples, vocab = load_dataset(manifest)
    split = {name: [s for s in samples if manifest.split[s.document.id] == name]
             for name in ("train", "val", "test")}
    return manifest, split, vocab


def label_recovery_f1(model, samples, manifest):
    tp = fp = fn = 0
    for s in samples:
        mask = np.array(load_masks(manifest, s.document.id)["salient_sentences"])
        out = evaluation.summarize(s, model, k_sentences=int(mask.sum()))
        sel = np.zeros(len(mask), dtype=int)
        sel[out.sentence_indices] = 1
        tp += int((sel & mask).sum())
        fp += int((sel & ~mask).sum())
        fn += int((~sel & mask).sum())
    return 2 * tp / (2 * tp + fp + fn)


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst, lines = 0.0, []
    for attention, fusion_mode in itertools.product(ATTENTIONS, FUSIONS):
        cfg = tiny_config(attention=attention, fusion=fusion_mode)
        rep = training.gradient_check(cfg, seed=0)
        worst = max(worst, rep["max_rel"])
        lines.append(f"{attention}/{fusion_mode}={rep['max_rel']:.1e}")
    elapsed = time.monotonic() - start
    report(1, worst < 1e-3 and elapsed < 60.0,
           f"16-config gradient suite, worst rel err {worst:.2e} "
           f"(tol 1e-3), {elapsed:.1f}s (budget 60s)")


def random_labeling_fixture(rng, vocab):
    """Corpus-like fixture: distinct-content sentences, gold assembled from
    1-3 source sentences with 25% token dropout plus a few stray tokens.
    (Forward greedy selection is a heuristic; on adversarial repeated-token
    fixtures it can land in local optima, see test_training for a pinned
    example. On summarization-shaped inputs it matches exhaustive search.)"""
    ns = int(rng.integers(2, 9))
    sentences = [" ".join(rng.choice(vocab, size=rng.integers(3, 7), replace=False))
                 for _ in range(ns)]
    k = int(rng.integers(1, min(3, ns) + 1))
    src = sorted(rng.choice(ns, size=k, replace=False))
    gold_tokens = []
    for i in src:
        for tok in tokenize(sentences[i]):
            if rng.random() > 0.25:
                gold_tokens.append(tok)
    for _ in range(int(rng.integers(0, 3))):
        gold_tokens.append(str(rng.choice(vocab)))
    if not gold_tokens:
        gold_tokens = tokenize(sentences[src[0]])
    return sentences, [" ".join(gold_tokens)]


def test_criterion_2_labeling_oracle():
    rng = np.random.default_rng(0)
    vocab = [f"w{i:02d}" for i in range(60)]
    start = time.monotonic()
    agree = 0
    n_fixtures = 100
    for _ in range(n_fixtures):
        sentences, gold = random_labeling_fixture(rng, vocab)
        ns = len(sentences)
        doc = Document(sentences=[np.zeros(1, dtype=int)] * ns,
                       raw_sentences=sentences, id="fx")
        greedy = greedy_labels(doc, gold, cap=3)

        gold_tokens = [t for line in gold for t in tokenize(line)]
        sent_tokens = [tokenize(s) for s in sentences]
        best = 0.0
        for size in range(1, 4):
            for combo in itertools.combinations(range(ns), size):
                cand = [t for i in combo for t in sent_tokens[i]]
                best = max(best, labeling_score(cand, gold_tokens))
        if abs(greedy.score - best) < 1e-12:
            agree += 1
    elapsed = time.monotonic() - start
    report(2, agree == n_fixtures and elapsed < 30.0,
           f"greedy == exhaustive subset search on {agree}/{n_fixtures} fixtures, "
           f"{elapsed:.1f}s (budget 30s)")


def test_criterion_3_metric_goldens():
    checks = []

    r1 = rouge_n("the cat sat".split(), "the cat".split(), 1)
    checks.append(abs(r1.precision - 2 / 3) < 1e-9 and abs(r1.recall - 1.0) < 1e-9
                  and abs(r1.f1 - 0.8) < 1e-9)

    rl = rouge_l("a x b y c".split(), "a b c".split())
    checks.append(abs(rl.precision - 0.6) < 1e-9 and abs(rl.recall - 1.0) < 1e-9
                  and abs(rl.f1 - 0.75) < 1e-9)
    rl_id = rouge_l("a b c".split(), "a b c".split())
    checks.append((rl_id.precision, rl_id.recall, rl_id.f1) == (1.0, 1.0, 1.0))
    checks.append(rouge_n("x y".split(), "x y".split(), 2).f1 == 1.0)

    cos = cos_image_similarity(np.array([[1.0, 0.0], [0.0, 1.0]]),
                               np.array([[1.0, 0.0], [0.6, -0.8]]))
    checks.append(abs(cos - 80.0) < 1e-9)
    checks.append(abs(cos_image_similarity(np.eye(2), np.eye(2)) - 100.0) < 1e-9)

    same = np.array([[1.0, 2.0], [1.0, 2.0]])
    checks.append(abs(reward_div(same, [0, 1]) - 0.0) < 1e-9)
    ortho = np.array([[1.0, 0.0], [0.0, 1.0]])
    checks.append(abs(reward_div(ortho, [0, 1]) - 1.0) < 1e-9)
    mixed = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    checks.append(abs(reward_div(mixed, [0, 1, 2]) - 4.0 / 6.0) < 1e-9)

    rep_states = np.random.default_rng(0).normal(size=(5, 3))
    checks.append(abs(reward_rep(rep_states, range(5)) - 1.0) < 1e-9)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    checks.append(abs(reward_rep(tri, [0]) - math.exp(-2.0 / 3.0)) < 1e-9)

    report(3, all(checks),
           f"{sum(checks)}/{len(checks)} metric and reward goldens at 1e-9")


def test_criterion_4_fusion_identities(rng):
    head = FusionHead(mode="late_plus", beta=0.0,
                      f=make_scorer(rng, 4), g=make_scorer(rng, 3),
                      F=make_scorer(rng, 2))
    bitwise = True
    for _ in range(1000):
        s, c = rng.normal(size=4), rng.normal(size=3)
        if fuse_late(s, c, head).data.tobytes() != \
                fuse_late_plus(s, c, head).data.tobytes():
            bitwise = False
            break

    s, c = rng.normal(size=5), rng.normal(size=3)
    vec = ad.reshape(outer_with_bias(Tensor(s), Tensor(c)), (-1,))
    length_ok = vec.shape == ((5 + 1) * (3 + 1),)
    block = outer_with_bias(Tensor([1.0, 2.0]), Tensor([3.0])).data
    block_ok = np.array_equal(block, [[3.0, 1.0], [6.0, 2.0], [3.0, 1.0]])

    report(4, bitwise and length_ok and block_ok,
           "late_plus(beta=0) == late bit-for-bit on 1000 inputs; tensor vec "
           "length (|s|+1)(|c|+1); outer-product block fixture")


def test_criterion_5_attention_invariants(rng):
    rows_ok = shift_ok = True
    for _ in range(1000):
        nq, nk = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        scores = rng.normal(size=(nq, nk)) * rng.uniform(0.1, 30)
        w = ad.softmax_rows(Tensor(scores)).data
        if not (np.all(w >= 0) and np.allclose(w.sum(axis=1), 1.0, atol=1e-6)):
            rows_ok = False
            break
        shifted = ad.softmax_rows(Tensor(scores + rng.normal(size=(nq, 1)))).data
        if not np.allclose(w, shifted, atol=1e-6):
            shift_ok = False
            break

    hop1, hop2 = make_set(rng), make_set(rng)
    s = Tensor(rng.normal(size=(3, 4)))
    t = Tensor(rng.normal(size=(1, 4)))
    m = Tensor(rng.normal(size=(5, 4)))
    ctx = bihop_context(s, t, m, hop1, hop2)
    single = context(bilinear_scores(t, m, hop1), m).contexts.data[0]
    collapse_ok = (np.array_equal(ctx.weights.data, np.ones((3, 1))) and
                   all(ctx.contexts.data[i].tobytes() == single.tobytes()
                       for i in range(3)))

    report(5, rows_ok and shift_ok and collapse_ok,
           "1000 random score matrices: rows sum to 1 (1e-6), shift invariance "
           "(1e-6); bihop NT=1 collapses exactly")


def test_criterion_6_end_to_end_overfit(acceptance_corpus):
    manifest, split, vocab = acceptance_corpus
    start = time.monotonic()
    cfg = RunConfig(**OVERFIT_DIMS, attention="bihop", fusion="late_plus",
                    alpha_ts=3.33, alpha_vs=1.0, epochs=50, patience=50, seed=3)
    result = train_model(split["train"], split["val"], cfg, len(vocab))
    elapsed = time.monotonic() - start

    ce_first = result.metrics[0]["train_ce"]
    ce_last = result.metrics[-1]["train_ce"]
    model = SummarizerModel(result.final_params, cfg, len(vocab))
    f1 = label_recovery_f1(model, split["train"], manifest)

    report(6, ce_last <= 0.5 * ce_first and f1 >= 0.9 and elapsed < 300.0,
           f"full config on 20-sample corpus: CE {ce_first:.4f}->{ce_last:.4f} "
           f"({100 * (1 - ce_last / max(ce_first, 1e-12)):.0f}% drop, need >=50%), "
           f"train F1 {f1:.3f} (need >=0.9), {elapsed:.0f}s (budget 300s)")


def test_criterion_7_ablation_direction(acceptance_corpus):
    # "+video frames" = bilinear alignment over early fusion (the alignment
    # comparison setup); both arms share all other hyperparameters and are
    # measured on final-epoch parameters.
    manifest, split, vocab = acceptance_corpus
    results = []
    for seed in (1, 2, 3):
        text_cfg = RunConfig(**OVERFIT_DIMS, attention="none", fusion="early",
                             use_frames=False, use_transcript=False,
                             use_bistream=False, alpha_vs=0.0,
                             epochs=60, patience=60, seed=seed)
        video_cfg = RunConfig(**OVERFIT_DIMS, attention="bilinear", fusion="early",
                              use_transcript=False, use_bistream=False,
                              alpha_vs=0.0, epochs=60, patience=60, seed=seed)
        r_text = train_model(split["train"], split["val"], text_cfg, len(vocab))
        r_video = train_model(split["train"], split["val"], video_cfg, len(vocab))
        f_text = label_recovery_f1(SummarizerModel(r_text.final_params, text_cfg,
                                                   len(vocab)),
                                   split["train"], manifest)
        f_video = label_recovery_f1(SummarizerModel(r_video.final_params, video_cfg,
                                                    len(vocab)),
                                    split["train"], manifest)
        results.append((seed, f_text, f_video))
    ok = all(fv >= ft for _, ft, fv in results)
    detail = "; ".join(f"seed {s}: text={ft:.3f} +video={fv:.3f}"
                       for s, ft, fv in results)
    report(7, ok, f"+video frames >= text-only on train label recovery ({detail})")


def test_criterion_8_training_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--seed", "5", "--samples",
                     "6", "--sentences", "4", "--sentence-len", "5", "--frames",
                     "4", "--feature-dim", "8", "--vocab-size", "40",
                     "--transcript-len", "10"]) == 0
    run_dir = tmp_path / "run"
    trees = []
    for _ in range(2):
        assert cli.main(["train", "--manifest", str(data_dir / "manifest.json"),
                         "--out", str(run_dir), "--hidden", "2", "--embed-dim", "2",
                         "--attn-dim", "2", "--fusion-dim", "2", "--feature-dim",
                         "8", "--fps-group", "1", "--epochs", "3", "--lr", "0.01",
                         "--seed", "3"]) == 0
        trees.append({str(p.relative_to(run_dir)): p.read_bytes()
                      for p in sorted(run_dir.rglob("*")) if p.is_file()})
    ok = trees[0] == trees[1]
    report(8, ok, f"cmd_train twice -> byte-identical checkpoint + metrics "
                  f"({len(trees[0])} files compared)")


def test_criterion_9_full_ablation_matrix(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--seed", "5", "--samples",
                     "6", "--sentences", "4", "--sentence-len", "5", "--frames",
                     "4", "--feature-dim", "8", "--vocab-size", "40",
                     "--transcript-len", "10"]) == 0
    start = time.monotonic()
    code = cli.main(["ablate", "--manifest", str(data_dir / "manifest.json"),
                     "--out", str(tmp_path / "ab"), "--hidden", "8", "--embed-dim",
                     "8", "--attn-dim", "8", "--fusion-dim", "8", "--feature-dim",
                     "8", "--fps-group", "1", "--lr", "0.01", "--seed", "2"])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    matrix = json.loads((tmp_path / "ab" / "ablation.json").read_text())
    n_ok = sum(1 for row in matrix["cells"] if row["status"] == "ok")
    report(9, code == 0 and len(matrix["cells"]) == 48 and n_ok == 48
           and elapsed < 900.0,
           f"ablation matrix {n_ok}/48 cells ok at {matrix['epochs']} epochs, "
           f"{elapsed:.0f}s (budget 900s)")
