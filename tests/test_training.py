import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import composed_ops
from conftest import tiny_config
from mmsum import autodiff as ad, training
from mmsum.autodiff import Tensor
from mmsum.data import Document, prepare_for_model
from mmsum.errors import (ConfigError, LabelError, LossError, RewardError,
                          TrainingError)
from mmsum.model import SummarizerModel, build_parameters
from mmsum.training import (Adagrad, EarlyStopping, bistream_loss, ce_loss,
                            greedy_labels, labeling_score, reward_div, reward_rep,
                            video_loss)


def make_doc(sentences):
    return Document(sentences=[np.zeros(1, dtype=int)] * len(sentences),
                    raw_sentences=list(sentences), id="t")


# ---------------------------------------------------------------------------
# greedy labels

def test_greedy_exact_match_is_one_hot():
    doc = make_doc(["alpha beta", "gamma delta", "epsilon zeta"])
    labels = greedy_labels(doc, ["gamma delta"])
    npt.assert_array_equal(labels.labels, [0, 1, 0])
    assert labels.score == 1.0


def test_greedy_disjoint_gold_gives_all_zero_flagged():
    doc = make_doc(["alpha beta", "gamma delta"])
    labels = greedy_labels(doc, ["omega psi"])
    npt.assert_array_equal(labels.labels, [0, 0])
    assert labels.exclude_from_ce


def test_greedy_empty_gold_raises():
    with pytest.raises(LabelError):
        greedy_labels(make_doc(["a b"]), [""])


def brute_force_best_score(sentences, gold, cap):
    """Independent oracle: exhaustive search over subsets of size <= cap."""
    from mmsum.data import tokenize
    gold_tokens = [t for line in gold for t in tokenize(line)]
    sent_tokens = [tokenize(s) for s in sentences]
    best = 0.0
    for size in range(1, cap + 1):
        for combo in itertools.combinations(range(len(sentences)), size):
            cand = [t for i in combo for t in sent_tokens[i]]
            best = max(best, labeling_score(cand, gold_tokens))
    return best


def test_greedy_matches_exhaustive_on_six_sentence_fixture():
    sentences = ["the cat sat on the mat", "a dog barked loudly", "the cat ran",
                 "birds fly south", "the mat was red", "dogs and cats play"]
    gold = ["the cat sat on the red mat", "dogs play"]
    labels = greedy_labels(make_doc(sentences), gold, cap=3)
    oracle = brute_force_best_score(sentences, gold, cap=3)
    npt.assert_allclose(labels.score, oracle, atol=1e-12)


def test_greedy_tie_breaks_to_lower_index():
    doc = make_doc(["same tokens here", "same tokens here extra"])
    labels = greedy_labels(doc, ["same tokens here"])
    npt.assert_array_equal(labels.labels, [1, 0])


def test_greedy_respects_cap():
    sentences = [f"tok{i}" for i in range(6)]
    gold = [" ".join(sentences)]
    labels = greedy_labels(make_doc(sentences), gold, cap=4)
    assert labels.labels.sum() == 4


def test_greedy_is_a_heuristic_known_trap_case():
    # forward selection commits to the best singleton; when a "bridging"
    # sentence covers parts of two gold sources it can lock out the optimal
    # pair. Pinned here so the behavior is documented, not hidden.
    sentences = ["w9", "w10 w9 w2 w10 w8", "w1"]
    gold = ["w3 w9 w1 w3 w3 w3 w8"]
    labels = greedy_labels(make_doc(sentences), gold, cap=3)
    npt.assert_array_equal(labels.labels, [0, 1, 1])  # greedy picks the bridge
    oracle = brute_force_best_score(sentences, gold, cap=3)
    assert labels.score < oracle  # (0, 2) scores higher


def test_greedy_labels_search_once_per_input_and_return_fresh_arrays(monkeypatch):
    calls = []

    def counting_score(cand, gold):
        calls.append(1)
        return labeling_score(cand, gold)

    monkeypatch.setattr(training, "labeling_score", counting_score)
    training._greedy_search.cache_clear()
    doc = make_doc(["memo alpha beta", "memo gamma delta", "memo epsilon"])
    first = greedy_labels(doc, ["memo gamma delta"], cap=2)
    n_searched = len(calls)
    assert n_searched > 0
    first.labels[:] = 7
    again = greedy_labels(make_doc(list(doc.raw_sentences)), ["memo gamma delta"], cap=2)
    assert len(calls) == n_searched
    npt.assert_array_equal(again.labels, [0, 1, 0])
    assert again.score == 1.0
    greedy_labels(doc, ["memo gamma delta"], cap=1)    # another cap is another search
    assert len(calls) > n_searched


# ---------------------------------------------------------------------------
# cross entropy

def test_ce_perfect_prediction_is_tiny():
    loss = ce_loss(Tensor(np.array([1.0, 0.0, 1.0])), np.array([1, 0, 1]))
    assert 0.0 <= float(loss.data) < 1e-6


def test_ce_uniform_prediction_is_ln2():
    loss = ce_loss(Tensor(np.full(7, 0.5)), np.zeros(7))
    npt.assert_allclose(float(loss.data), math.log(2.0), atol=1e-12)


def test_ce_hand_fixture():
    loss = ce_loss(Tensor(np.array([0.9, 0.2])), np.array([1, 0]))
    expected = -0.5 * (math.log(0.9) + math.log(0.8))
    npt.assert_allclose(float(loss.data), expected, atol=1e-12)
    assert round(expected, 4) == 0.1643


def test_ce_length_mismatch():
    with pytest.raises(LossError):
        ce_loss(Tensor(np.zeros(3)), np.zeros(2))


def test_ce_nonnegative_random(rng):
    for _ in range(20):
        p = rng.random(5)
        y = (rng.random(5) < 0.5).astype(float)
        assert float(ce_loss(Tensor(p), y).data) >= 0.0


# ---------------------------------------------------------------------------
# rewards

def test_reward_div_identical_frames_zero():
    states = np.array([[1.0, 2.0], [1.0, 2.0]])
    npt.assert_allclose(reward_div(states, [0, 1]), 0.0, atol=1e-9)


def test_reward_div_orthogonal_frames_one():
    states = np.array([[1.0, 0.0], [0.0, 1.0]])
    npt.assert_allclose(reward_div(states, [0, 1]), 1.0, atol=1e-12)


def test_reward_div_mixed_cosines_fixture():
    # cos pairs: (0,1)=1, (0,2)=0, (1,2)=0 -> ordered-pair mean = 4/6
    states = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    npt.assert_allclose(reward_div(states, [0, 1, 2]), 4.0 / 6.0, atol=1e-12)


def test_reward_div_single_selection_zero():
    assert reward_div(np.eye(3), [1]) == 0.0


def test_reward_div_scale_invariant(rng):
    states = rng.normal(size=(4, 6))
    base = reward_div(states, [0, 1, 3])
    scaled = states.copy()
    scaled[1] *= 17.0
    npt.assert_allclose(reward_div(scaled, [0, 1, 3]), base, atol=1e-12)


def test_reward_rep_full_selection_is_one():
    states = np.random.default_rng(1).normal(size=(5, 3))
    npt.assert_allclose(reward_rep(states, range(5)), 1.0, atol=1e-12)


def test_reward_rep_fixture():
    # one selected frame at distance 1 from each of 2 others, NM=3
    states = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    npt.assert_allclose(reward_rep(states, [0]), math.exp(-2.0 / 3.0), atol=1e-12)


def test_reward_rep_duplicate_selection_identical():
    states = np.random.default_rng(2).normal(size=(4, 3))
    npt.assert_allclose(reward_rep(states, [1, 1, 2]), reward_rep(states, [1, 2]),
                        atol=1e-15)


def test_reward_rep_empty_selection_raises():
    with pytest.raises(RewardError):
        reward_rep(np.eye(2), [])


# ---------------------------------------------------------------------------
# video loss

def test_video_loss_prob_one_selects_everything(rng):
    probs = Tensor(np.ones(4), requires_grad=True)
    states = rng.normal(size=(4, 3))
    _, rewards, _, actions = video_loss(probs, states, np.random.default_rng(0), 0.0)
    assert actions.all()
    npt.assert_allclose(rewards.rep, 1.0, atol=1e-12)


def test_video_loss_zero_advantage_zero_gradient(rng):
    probs = Tensor(rng.random(4), requires_grad=True)
    states = rng.normal(size=(4, 3))
    # discover the realized reward, then replay with baseline == reward
    _, rewards, _, _ = video_loss(probs, states, np.random.default_rng(5), 0.0)
    total = rewards.div + rewards.rep
    surrogate, _, _, _ = video_loss(probs, states, np.random.default_rng(5), total)
    ad.backward(surrogate)
    npt.assert_array_equal(probs.grad, np.zeros(4))


def test_video_loss_deterministic_given_seed(rng):
    probs = Tensor(rng.random(3))
    states = rng.normal(size=(3, 2))
    runs = [video_loss(probs, states, np.random.default_rng(9), 0.0) for _ in range(2)]
    npt.assert_array_equal(runs[0][3], runs[1][3])
    assert float(runs[0][0].data) == float(runs[1][0].data)


def test_video_loss_empty_selection_forced_to_top1():
    probs = Tensor(np.zeros(3))
    states = np.eye(3)
    _, _, _, actions = video_loss(probs, states, np.random.default_rng(0), 0.0)
    npt.assert_array_equal(actions, [True, False, False])


def test_video_loss_updates_baseline(rng):
    probs = Tensor(rng.random(3))
    states = rng.normal(size=(3, 2))
    _, rewards, new_baseline, _ = video_loss(probs, states,
                                             np.random.default_rng(3), 0.5)
    total = rewards.div + rewards.rep
    npt.assert_allclose(new_baseline, 0.9 * 0.5 + 0.1 * total, atol=1e-12)


# ---------------------------------------------------------------------------
# bistream loss

def test_bistream_alpha_vs_zero_is_pure_text():
    ce = Tensor(np.array(0.7))
    loss = bistream_loss(ce, Tensor(np.array(9.9)), 1.0, 0.0)
    npt.assert_allclose(float(loss.data), 0.7, atol=1e-15)


def test_bistream_default_ratio_fixture():
    loss = bistream_loss(Tensor(np.array(0.6)), Tensor(np.array(0.3)), 3.33, 1.0)
    npt.assert_allclose(float(loss.data), 2.298, atol=1e-12)


def test_bistream_linear_in_each_alpha(rng):
    ce, vid = Tensor(np.array(0.4)), Tensor(np.array(0.2))
    for a, b in ((1.0, 2.0), (0.5, 3.0)):
        l1 = float(bistream_loss(ce, vid, a, b).data)
        l2 = float(bistream_loss(ce, vid, 2 * a, b).data)
        npt.assert_allclose(l2 - l1, a * 0.4, atol=1e-12)
        l3 = float(bistream_loss(ce, vid, a, 2 * b).data)
        npt.assert_allclose(l3 - l1, b * 0.2, atol=1e-12)


def test_bistream_both_zero_rejected():
    with pytest.raises(ConfigError):
        bistream_loss(Tensor(np.array(0.1)), Tensor(np.array(0.1)), 0.0, 0.0)


# ---------------------------------------------------------------------------
# the fused losses against the compositions of single ops they replace

# name -> (sentence probabilities, frame probabilities, alpha_ts, alpha_vs);
# "clipped" has p below eps, above 1 - eps and at both bounds
LOSS_CASES = {
    "ce-only": ([0.2, 0.7, 0.4, 0.9], [0.3, 0.8, 0.5, 0.6], 1.0, 0.0),
    "video-only": ([0.2, 0.7, 0.4, 0.9], [0.3, 0.8, 0.5, 0.6], 0.0, 1.0),
    "both": ([0.2, 0.7, 0.4, 0.9], [0.3, 0.8, 0.5, 0.6], 3.33, 1.0),
    "clipped": ([0.0, 1e-7, 1.0 - 1e-7, 1.0, 1e-9, 0.5],
                [1.0, 1e-9, 1e-7, 1.0 - 1e-7, 0.5], 3.33, 1.0),
    "one-sentence": ([0.6], [0.4, 0.9, 0.2], 3.33, 1.0),
}


def _losses_record(sent_probs, frame_probs, alpha_ts, alpha_vs):
    """Value and probability gradient of ``ce_loss`` and of the video
    surrogate, each backward on its own, then of their ``bistream_loss``, as
    bytes (None for a gradient that was never set)."""
    sent_probs, frame_probs = np.array(sent_probs), np.array(frame_probs)
    labels = np.arange(sent_probs.size) % 2 == 0
    states = np.random.default_rng(4).normal(size=(frame_probs.size, 3))

    def losses():
        sp = Tensor(sent_probs, requires_grad=True)
        fp = Tensor(frame_probs, requires_grad=True)
        ce = ce_loss(sp, labels)
        surrogate, rewards, baseline, actions = video_loss(
            fp, states, np.random.default_rng(3), 0.25)
        return sp, fp, ce, surrogate, (rewards, baseline, actions.tobytes())

    record = []
    for pick in ("ce", "surrogate", "bistream"):
        sp, fp, ce, surrogate, video = losses()
        loss = (ce if pick == "ce" else surrogate if pick == "surrogate"
                else bistream_loss(ce, surrogate, alpha_ts, alpha_vs))
        ad.backward(loss)
        record += [loss.data.tobytes(), video] + [
            None if t.grad is None else t.grad.tobytes() for t in (sp, fp)]
    return record


@pytest.mark.parametrize("case", LOSS_CASES)
def test_fused_losses_are_bitwise_their_compositions(monkeypatch, case):
    """``ce_loss``, the surrogate of ``video_loss`` and ``bistream_loss``, each
    one tape node, give the values and probability gradients of the
    compositions of single ops they replace, bit for bit."""
    fused = _losses_record(*LOSS_CASES[case])
    with monkeypatch.context() as m:
        composed_ops.use_compositions(m)
        composed = _losses_record(*LOSS_CASES[case])
    assert fused == composed
    assert (fused[-2] is None) == (LOSS_CASES[case][2] == 0.0)
    assert (fused[-1] is None) == (LOSS_CASES[case][3] == 0.0)


# ---------------------------------------------------------------------------
# optimizer / early stopping

def test_adagrad_zero_lr_keeps_parameters():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    before = p.data.tobytes()
    opt = Adagrad({"p": p}, lr=0.0)
    for _ in range(5):
        p.grad = np.array([0.3, -0.4])
        opt.step()
    assert p.data.tobytes() == before


def test_adagrad_accumulates_squared_gradients():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adagrad({"p": p}, lr=0.1)
    p.grad = np.array([2.0])
    opt.step()
    npt.assert_allclose(opt.acc["p"], [4.0])
    npt.assert_allclose(p.data, [-0.1 * 2.0 / (2.0 + 1e-8)], atol=1e-12)


def test_adagrad_step_is_bitwise_the_plain_formula(rng):
    """Three steps through the flat store equal, bit for bit, the expression
    they replace, for parameters of one block, of several blocks and of rows
    longer than a block, whether the gradient is an array the caller
    assigned or one written into the slot as backward writes it; a
    parameter without a gradient, a -0.0 entry included, is left bitwise
    alone. Between steps each ``p.grad`` is None and each slot stays its
    view of the store."""
    n = Adagrad.BLOCK
    shapes = {"blocks": (3 * n // 40 + 1, 40), "long_rows": (2, n + 3),
              "row": (n + 5,), "small": (7, 12), "scalar": (), "frozen": (3, 2)}
    params = {k: Tensor(rng.uniform(-1, 1, s), requires_grad=True)
              for k, s in shapes.items()}
    params["frozen"].data[1, 0] = -0.0
    ref = {k: p.data.copy() for k, p in params.items()}
    acc = {k: np.zeros(s) for k, s in shapes.items()}
    frozen = params["frozen"].data.tobytes()
    lr, eps = 0.3, 1e-8
    opt = Adagrad(params, lr=lr, eps=eps)
    slots = {k: p.grad_slot for k, p in params.items()}
    for step in range(3):
        for i, (k, p) in enumerate(params.items()):
            if k == "frozen":
                continue
            g = rng.normal(size=shapes[k])
            if (i + step) % 2:
                p.grad = g
            else:
                ad._acc(p, g)
                assert p.grad is p.grad_slot
            acc[k] += g * g
            ref[k] -= lr * g / (np.sqrt(acc[k]) + eps)
        opt.step()
        for k, p in params.items():
            assert p.grad is None and p.grad_slot is slots[k]
            assert p.data.tobytes() == ref[k].tobytes()
            assert opt.acc[k].tobytes() == acc[k].tobytes()
    assert params["frozen"].data.tobytes() == frozen
    assert np.signbit(params["frozen"].data[1, 0])


class adagrad_reference:
    """The per-tensor Adagrad the flat store replaced, kept as its oracle:
    each parameter with a gradient steps in blocks of rows through one
    scratch array, then its gradient is dropped."""

    BLOCK = 1 << 15

    def __init__(self, params, lr, eps=1e-8):
        self.params, self.lr, self.eps = params, lr, eps
        self.acc = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._scratch_size = max(
            (max(min(p.data.size, self.BLOCK), np.atleast_1d(p.data)[0].size)
             for p in params.values()), default=0)

    def step(self):
        scratch = np.empty((2, self._scratch_size))
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g, acc, w = (np.atleast_1d(a) for a in (p.grad, self.acc[name], p.data))
            rows = self._scratch_size // max(1, g[0].size)
            for lo in range(0, len(g), rows):
                gb, ab, wb = g[lo:lo + rows], acc[lo:lo + rows], w[lo:lo + rows]
                b, b2 = (buf[:gb.size].reshape(gb.shape) for buf in scratch)
                np.multiply(gb, gb, out=b)
                ab += b
                np.sqrt(ab, out=b)
                b += self.eps
                np.multiply(self.lr, gb, out=b2)
                b2 /= b
                wb -= b2
            p.grad = None


@pytest.fixture(scope="module")
def tiny_split(tmp_path_factory):
    """The train/val split of the default synthetic corpus (20 samples of
    10 x 8-token sentences, 8 x 16-d frames) and a config at that shape."""
    from mmsum.data import SynthConfig, load_dataset, synth_generate
    manifest = synth_generate(SynthConfig(), seed=11,
                              out_dir=tmp_path_factory.mktemp("tiny_corpus"))
    samples, vocab = load_dataset(manifest)
    by_id = {s.document.id: s for s in samples}
    train, val = ([by_id[e.id] for e in manifest.entries_for(name)]
                  for name in ("train", "val"))
    cfg = tiny_config(hidden=16, embed_dim=16, attn_dim=16, fusion_dim=16,
                      feature_dim=16, lr=0.05, seed=11)
    return train, val, cfg, len(vocab)


def test_adagrad_keeps_one_store_over_real_training_steps(tiny_split):
    """Over three training steps backward writes every gradient into its
    parameter's slot and allocates none, each ``p.grad`` is None after the
    step, and every parameter, gradient slot and accumulator is a view of
    one base array."""
    from mmsum.data import prepare_for_model
    from mmsum.model import SummarizerModel
    train, _, cfg, vocab_size = tiny_split
    m = SummarizerModel(build_parameters(cfg, vocab_size, np.random.default_rng(0)),
                        cfg, vocab_size)
    opt = Adagrad(m.params, lr=cfg.lr)
    slots = {k: p.grad_slot for k, p in m.params.items()}
    action_rng, baseline = np.random.default_rng(1), 0.0
    for sample in train[:3]:
        sample = prepare_for_model(sample, cfg.fps_group, cfg.seed)
        lab = greedy_labels(sample.document, sample.gold_summary, cfg.label_cap)
        out = m.forward(sample)
        surrogate, _, baseline, _ = video_loss(out.frame_probs, out.frame_states,
                                               action_rng, baseline)
        ce = None if lab.exclude_from_ce else ce_loss(out.sent_probs, lab.labels)
        ad.backward(bistream_loss(ce, surrogate, cfg.alpha_ts, cfg.alpha_vs))
        assert all(p.grad is slots[k] for k, p in m.params.items())
        opt.step()
        assert all(p.grad is None and p.grad_slot is slots[k]
                   for k, p in m.params.items())
    base = m.params["encoders/embedding"].data.base
    assert base is not None
    for k, p in m.params.items():
        assert p.data.base is base and p.grad_slot.base is base
        assert opt.acc[k].base is base
    assert sum(p.data.size for p in m.params.values()) * 3 == base.size


def test_adagrad_honours_a_gradient_rebound_or_set_to_none(rng):
    """A fresh array assigned to ``p.grad`` between steps is the gradient of
    the next step; None is no gradient, whatever the slot still holds;
    either way ``p.grad`` is None after the step."""
    p = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    q = Tensor(rng.uniform(-1, 1, (5,)), requires_grad=True)
    opt = Adagrad({"p": p, "q": q}, lr=0.1)
    slots = (p.grad_slot, q.grad_slot)
    q_before = q.data.tobytes()
    g = rng.normal(size=(4, 3))
    want = p.data - 0.1 * g / (np.sqrt(g * g) + 1e-8)
    q.grad_slot += 1.0  # a stale value in the slot, with q.grad None
    p.grad = g
    opt.step()
    assert p.data.tobytes() == want.tobytes()
    assert q.data.tobytes() == q_before and not opt.acc["q"].any()
    assert p.grad is None and q.grad is None
    assert (p.grad_slot, q.grad_slot) == slots


def test_adagrad_never_reapplies_a_stale_slot(rng):
    """Parameters that backward gave a gradient in one step, through the
    BiLSTM's weight GEMMs, its bias sums and the embedding's scatter-add,
    and none in the next, keep their values and accumulators bitwise in the
    next step, as the transcript BiLSTM does on an empty transcript; only the
    parameter with a gradient moves."""
    h, D = 3, 4
    params = {"table": Tensor(rng.uniform(-1, 1, (9, D)), requires_grad=True),
              "W": Tensor(rng.uniform(-1, 1, (D, 2)), requires_grad=True),
              "b": Tensor(rng.uniform(-1, 1, (2,)), requires_grad=True)}
    for name in ("fw_W", "bw_W"):
        params[name] = Tensor(rng.uniform(-1, 1, (D + h, 4 * h)), requires_grad=True)
    for name in ("fw_b", "bw_b"):
        params[name] = Tensor(rng.uniform(-1, 1, (4 * h,)), requires_grad=True)
    opt = Adagrad(params, lr=0.1)
    X = ad.take_rows(params["table"], [1, 4, 4, 7, 2])
    weights = (params[k] for k in ("fw_W", "fw_b", "bw_W", "bw_b"))
    ad.backward(ad.bilstm_sequences([(X, *weights, None)])[0])
    opt.step()
    kept = {k: (p.data.tobytes(), opt.acc[k].tobytes()) for k, p in params.items()
            if k not in ("W", "b")}
    assert all(opt.acc[k].any() for k in kept)
    w_before = params["W"].data.tobytes()
    ad.backward(ad.scorer(Tensor(rng.normal(size=(3, D))), params["W"], params["b"],
                          Tensor(np.ones(2)), Tensor(np.zeros(1))))
    opt.step()
    assert {k: (params[k].data.tobytes(), opt.acc[k].tobytes()) for k in kept} == kept
    assert params["W"].data.tobytes() != w_before


def test_adagrad_steps_a_negative_zero_in_the_slot_as_a_positive_one(rng):
    """A gradient with -0.0 entries, written straight into the slot as the
    BiLSTM's weight GEMMs may write it, moves neither the parameters nor the
    accumulators differently from the same gradient with +0.0 there."""
    data = rng.uniform(-1, 1, (6, 5))
    g = rng.normal(size=(6, 5))
    g[::2, 1::2] = -0.0
    assert np.signbit(g[0, 1]) and not g[0, 1]
    runs = []
    for grad in (g, g + 0.0):
        p = Tensor(data.copy(), requires_grad=True)
        opt = Adagrad({"p": p}, lr=0.1)
        for _ in range(2):
            p.grad_slot[...] = grad
            p.grad = p.grad_slot
            opt.step()
        runs.append((p.data.tobytes(), opt.acc["p"].tobytes()))
    assert np.signbit(g[0, 1]) != np.signbit((g + 0.0)[0, 1])
    assert runs[0] == runs[1]
    assert runs[0][0] != data.tobytes()


def _paper_sample(rng, vocab_size, transcript_len):
    """A sample at the paper's shape: 25 sentences of 20 tokens, 40 frames of
    2048-d (taken down by ``fps_group=1``) and a transcript."""
    from mmsum.data import Sample, Transcript
    doc = Document(sentences=[rng.integers(0, vocab_size, size=20) for _ in range(25)],
                   raw_sentences=["x"] * 25, id="paper")
    return Sample(document=doc, frames=rng.normal(size=(40, 2048)),
                  transcript=Transcript(tokens=rng.integers(0, vocab_size,
                                                            size=transcript_len),
                                        raw_text="x"),
                  gold_summary=["x"])


def test_adagrad_at_the_paper_shape_is_bitwise_the_per_tensor_reference():
    """Three joint-loss steps of the default config (h = 64, 2048-d frames),
    the second on an empty transcript, end at bitwise the parameters and
    accumulators of the per-tensor optimizer. The frame BiLSTM's weight
    gradient is written into the optimizer's store, not into an array of
    its own."""
    from mmsum.config import RunConfig
    cfg = dataclasses.replace(RunConfig(), fps_group=1, lr=0.01)
    vocab_size = 500
    rng = np.random.default_rng(3)
    samples = [_paper_sample(rng, vocab_size, n) for n in (150, 0, 150)]
    runs = []
    for optimizer in (Adagrad, adagrad_reference):
        model = SummarizerModel(build_parameters(cfg, vocab_size,
                                                 np.random.default_rng(0)),
                                cfg, vocab_size)
        opt = optimizer(model.params, lr=cfg.lr)
        action_rng, baseline = np.random.default_rng(1), 0.0
        for sample in samples:
            out = model.forward(sample)
            surrogate, _, baseline, _ = video_loss(out.frame_probs, out.frame_states,
                                                   action_rng, baseline)
            labels = np.arange(out.sent_probs.shape[0]) % 2
            ad.backward(bistream_loss(ce_loss(out.sent_probs, labels), surrogate,
                                      cfg.alpha_ts, cfg.alpha_vs))
            if optimizer is Adagrad:
                fw_W = model.params["encoders/frame/fw_W"]
                assert fw_W.grad.shape == (2048 + 64, 256)
                assert np.shares_memory(fw_W.grad, opt._store)
            opt.step()
        runs.append(([(k, p.data.tobytes()) for k, p in model.params.items()],
                     [(k, a.tobytes()) for k, a in opt.acc.items()]))
    assert runs[0] == runs[1]


def test_adagrad_built_after_backward_uses_the_gradients_present(rng):
    """An optimizer built after ``ad.backward`` takes the gradients already
    there, as one built before it would have."""
    data = rng.uniform(-1, 1, (3, 2))
    results = []
    for build_first in (True, False):
        w = Tensor(data.copy(), requires_grad=True)
        opt = Adagrad({"w": w}, lr=0.1) if build_first else None
        ad.backward(composed_ops.tsum(composed_ops.mul(w, w)))
        opt = opt or Adagrad({"w": w}, lr=0.1)
        opt.step()
        results.append(w.data.tobytes())
    assert results[0] == results[1] != data.tobytes()


def test_train_model_matches_the_per_tensor_reference(tiny_split, monkeypatch):
    """One epoch at the tiny shape ends at bitwise the parameters and
    metrics of the per-tensor optimizer the flat store replaced."""
    train, val, cfg, vocab_size = tiny_split
    cfg = dataclasses.replace(cfg, epochs=1)
    flat = training.train_model(train, val, cfg, vocab_size)
    monkeypatch.setattr(training, "Adagrad", adagrad_reference)
    ref = training.train_model(train, val, cfg, vocab_size)
    assert flat.metrics == ref.metrics
    assert flat.final_params.keys() == ref.final_params.keys()
    for k, v in ref.final_params.items():
        assert flat.final_params[k].tobytes() == v.tobytes(), k


def trim_alternate_lines(path):
    """Drop the last 2 tokens of lines 1, 5, 9, ... and the last 5 of lines
    3, 7, ... of a text file (counting from 0), as CI's ragged run does."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cut = {1: 2, 3: 5}
    path.write_text("".join(" ".join(line.split()[:-cut[i % 4]] if i % 4 in cut else
                                     line.split()) + "\n"
                            for i, line in enumerate(lines)), encoding="utf-8")


@pytest.fixture(scope="module")
def ragged_split(tmp_path_factory):
    """The train/val split of a synthetic corpus whose documents hold
    sentences of 8, 6 and 3 tokens, so every word batch is padded."""
    from mmsum.data import SynthConfig, load_dataset, synth_generate
    manifest = synth_generate(SynthConfig(n_samples=8, n_sentences=6), seed=5,
                              out_dir=tmp_path_factory.mktemp("ragged_corpus"))
    for e in manifest.entries:
        trim_alternate_lines(manifest.root / e.document)
    samples, vocab = load_dataset(manifest)
    assert all(len({len(s) for s in sample.document.sentences}) == 3 for sample in samples)
    by_id = {s.document.id: s for s in samples}
    return [[by_id[e.id] for e in manifest.entries_for(name)]
            for name in ("train", "val")] + [len(vocab)]


@pytest.mark.parametrize("attention,fusion_mode", [
    ("bihop", "late_plus"), ("concat_product", "tensor"), ("bilinear", "early")])
def test_training_on_ragged_sentences_is_bitwise_the_compositions(
        ragged_split, monkeypatch, attention, fusion_mode):
    """Two epochs of ``train_model`` on padded word batches end at the same
    parameters and metrics, byte for byte, on the fused ops as on the
    compositions and the BiLSTM oracle they replace."""
    train, val, vocab_size = ragged_split
    cfg = tiny_config(attention=attention, fusion=fusion_mode, hidden=4, embed_dim=4,
                      attn_dim=4, fusion_dim=4, feature_dim=16, lr=0.05, epochs=2,
                      seed=5)
    runs = []
    for composed in (False, True):
        with monkeypatch.context() as m:
            if composed:
                composed_ops.use_compositions(m)
            result = training.train_model(train, val, cfg, vocab_size)
        runs.append((result.metrics,
                     [(k, v.tobytes()) for k, v in result.best_params.items()],
                     [(k, v.tobytes()) for k, v in result.final_params.items()]))
    assert runs[0][0][-1]["epoch"] == 2
    assert runs[0] == runs[1]


def test_early_stopping_monotone_worsening_stops_after_patience_plus_one():
    stopper = EarlyStopping(patience=3)
    evaluations = 0
    for val in (1.0, 1.1, 1.2, 1.3, 1.4, 1.5):
        evaluations += 1
        stopper.update(val)
        if stopper.should_stop:
            break
    assert evaluations == 4


def test_early_stopping_resets_on_improvement():
    stopper = EarlyStopping(patience=2)
    for val in (1.0, 1.1, 0.9, 1.0):
        stopper.update(val)
    assert not stopper.should_stop
    assert stopper.best == 0.9


# ---------------------------------------------------------------------------
# training loop

def _one_sample_corpus():
    from mmsum.data import Document, Sample, Transcript
    rng = np.random.default_rng(0)
    doc = Document(sentences=[np.array([1, 2, 3]), np.array([4, 5]),
                              np.array([6, 1])],
                   raw_sentences=["alpha beta gamma", "delta eps", "zeta alpha"],
                   id="only")
    return Sample(document=doc,
                  frames=rng.normal(size=(3, 2)),
                  transcript=Transcript(tokens=np.array([1, 2]), raw_text="alpha beta"),
                  gold_summary=["alpha beta gamma"])


def test_single_sample_overfit_drives_ce_below_0_05():
    sample = _one_sample_corpus()
    cfg = tiny_config(lr=0.1, epochs=200, patience=200, hidden=4, embed_dim=4,
                      attn_dim=4, fusion_dim=4)
    result = training.train_model([sample], [sample], cfg, vocab_size=7)
    assert result.metrics[-1]["train_ce"] < 0.05


def test_nan_loss_aborts_naming_the_sample(monkeypatch):
    sample = _one_sample_corpus()
    cfg = tiny_config(lr=0.01, epochs=3, patience=3)

    def poisoned(ce, surrogate, a_ts, a_vs):
        return Tensor(np.array(np.nan))

    monkeypatch.setattr(training, "bistream_loss", poisoned)
    with pytest.raises(TrainingError, match="only"):
        training.train_model([sample], [sample], cfg, vocab_size=7)


@pytest.mark.parametrize("video_off", [dict(use_bistream=False), dict(use_frames=False),
                                       dict(alpha_vs=0.0)],
                         ids=["no-bistream", "no-frames", "alpha-vs-0"])
def test_train_model_with_no_live_loss_term_is_config_error(video_off):
    """alpha_ts = 0 with the video loss off leaves the objective no term that
    moves a parameter: a ConfigError naming the fields, not a run whose every
    epoch reads train_loss 0.0. With the video loss on, alpha_ts = 0 trains."""
    sample = _one_sample_corpus()
    with pytest.raises(ConfigError, match="alpha_ts.*use_frames, use_bistream and alpha_vs"):
        training.train_model([sample], [sample], tiny_config(alpha_ts=0.0, **video_off),
                             vocab_size=7)
    result = training.train_model([sample], [sample], tiny_config(alpha_ts=0.0, epochs=1),
                                  vocab_size=7)
    assert result.metrics[0]["train_loss"] != 0.0


def test_train_result_reports_epochs_and_best_val():
    sample = _one_sample_corpus()
    cfg = tiny_config(lr=0.01, epochs=4, patience=4)
    result = training.train_model([sample], [sample], cfg, vocab_size=7)
    assert result.epochs_run == len(result.metrics) <= 4
    assert np.isfinite(result.best_val_loss)
    assert set(result.best_params) == set(result.final_params)


# ---------------------------------------------------------------------------
# gradient check harness

def test_gradient_check_zero_parameters_agree_absolutely():
    cfg = tiny_config(attention="none", fusion="early")
    report = training.gradient_check(cfg, seed=0, init_scale=0.0)
    for block in report["blocks"].values():
        assert block["max_abs"] < 1e-6
    assert np.isfinite(report["max_rel"])


def test_gradient_check_text_only_config():
    cfg = tiny_config(use_frames=False, use_transcript=False, use_bistream=False)
    report = training.gradient_check(cfg, seed=1)
    assert report["max_rel"] < 1e-3


def test_gradient_check_reports_every_block():
    cfg = tiny_config(attention="bilinear", fusion="late")
    report = training.gradient_check(cfg, seed=2)
    params = build_parameters(cfg, 7, np.random.default_rng(0))
    assert set(report["blocks"]) == set(params)
    assert report["n_params"] == sum(v.size for v in params.values())


def _joint_loss_at_check_sample(cfg):
    """The joint loss after one forward at the gradient-check sample, with the
    video loss on."""
    rng = np.random.default_rng(0)
    sample = training.make_check_sample(cfg, rng)
    model = SummarizerModel(build_parameters(cfg, training.CHECK_VOCAB_SIZE, rng),
                            cfg, training.CHECK_VOCAB_SIZE)
    out = model.forward(sample)
    surrogate = video_loss(out.frame_probs, out.frame_states,
                           np.random.default_rng(0), 0.0)[0]
    return bistream_loss(ce_loss(out.sent_probs, [1.0, 0.0]), surrogate,
                         cfg.alpha_ts, cfg.alpha_vs)


def _tape_counts(cfg) -> tuple[int, int]:
    """Nodes, parameters included, that the joint loss reaches, and the nodes
    backward runs from it, those ``ad._walk`` gives."""
    loss = _joint_loss_at_check_sample(cfg)
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), len(ad._walk(loss))


def test_tape_size_at_the_gradient_check_config():
    """Nodes the joint loss reaches after one forward at the gradient-check
    config (bi-hop attention, late+ fusion, the video loss on), and the nodes
    backward runs. Each scorer, attention score and read-out, late-fusion
    pair, the word BiLSTM, the sentence mean-pool, the CE loss, the REINFORCE
    surrogate and their weighted sum is one node, and the sentence, frame and
    transcript BiLSTMs are one node and a slice node per output; a change
    that splits one into smaller nodes again moves these counts."""
    assert _tape_counts(tiny_config()) == (88, 27)


@pytest.mark.parametrize("attention,fusion_mode,sum_pool,nodes,walked", [
    ("concat_product", "late_plus", False, 66, 21),
    ("bilinear", "tensor", False, 48, 17),
    ("bihop", "late_plus", True, 88, 27),
], ids=["concat_product-late_plus", "bilinear-tensor", "sum-pool"])
def test_tape_size_in_the_other_score_and_fusion_modes(attention, fusion_mode, sum_pool,
                                                        nodes, walked):
    """The same counts where the additive score and the tensor-fusion product
    are one node each, and where the sentence pool is the sum alone, which is
    one node as the mean is."""
    assert _tape_counts(tiny_config(attention=attention, fusion=fusion_mode,
                                    sum_pool=sum_pool)) == (nodes, walked)


# the heap peak, in bytes, of one training step at the shape of the test below
STEP_HEAP_PEAK = 338_000


def test_heap_peak_of_one_training_step(micro_corpus):
    """One training step (forward, CE, REINFORCE, ``backward`` and
    ``Adagrad.step``) on a micro-corpus sample at h = 16 peaks, under
    ``tracemalloc`` after two warm-up steps, within 3% of ``STEP_HEAP_PEAK``,
    so that a change in a step's memory shows in the test diff, as the tape
    sizes above do. It read 337,460 to 337,804 bytes over 8 steps in each of
    three processes with numpy 2.4.6; another numpy may allocate otherwise.
    The test turns ``tracemalloc`` on for itself only, as it slows
    allocation."""
    _, samples, vocab = micro_corpus
    cfg = tiny_config(feature_dim=8, hidden=16, embed_dim=16, attn_dim=16, fusion_dim=16)
    model = SummarizerModel(build_parameters(cfg, len(vocab), np.random.default_rng(0)),
                            cfg, len(vocab))
    opt = Adagrad(model.params, lr=cfg.lr)
    sample = samples[0]
    labels = greedy_labels(sample.document, sample.gold_summary, cfg.label_cap).labels
    action_rng, baseline = np.random.default_rng(1), 0.0

    def step():
        nonlocal baseline
        out = model.forward(sample)
        surrogate, _, baseline, _ = video_loss(out.frame_probs, out.frame_states,
                                               action_rng, baseline)
        ad.backward(bistream_loss(ce_loss(out.sent_probs, labels), surrogate,
                                  cfg.alpha_ts, cfg.alpha_vs))
        opt.step()

    tracemalloc.start()
    try:
        step()
        step()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert abs(peak - STEP_HEAP_PEAK) <= 0.03 * STEP_HEAP_PEAK, (
        f"one step peaked at {peak} bytes with numpy {np.__version__}; "
        f"{STEP_HEAP_PEAK} was measured with numpy 2.4.6")


def test_backward_walk_skips_leaves_and_keeps_the_order_of_the_rest():
    """The walk pushes only nodes with a backward; the walk that also pushed
    every parameter leaf gives the same order once its leaves are dropped."""
    loss = _joint_loss_at_check_sample(tiny_config())
    old = composed_ops.walk_reference(loss)
    new = ad._walk(loss)
    assert len(new) < len(old)
    assert [id(n) for n in new] == [id(n) for n in old if n._bw is not None]


def _steps_record(cfg, samples, vocab_size, steps=3):
    """Losses, outputs and every parameter gradient of a few joint-loss
    training steps, and the parameters they end at, as bytes."""
    model = SummarizerModel(build_parameters(cfg, vocab_size, np.random.default_rng(0)),
                            cfg, vocab_size)
    optimizer = Adagrad(model.params, lr=0.1)
    action_rng, baseline, record = np.random.default_rng(1), 0.0, []
    for step in range(steps):
        sample = samples[step % len(samples)]
        out = model.forward(sample)
        n = out.sent_probs.shape[0]
        surrogate, _, baseline, _ = video_loss(out.frame_probs, out.frame_states,
                                               action_rng, baseline)
        loss = bistream_loss(ce_loss(out.sent_probs, np.arange(n) % 2), surrogate,
                             cfg.alpha_ts, cfg.alpha_vs)
        ad.backward(loss)
        record += [t.data.tobytes() for t in (loss, out.sent_probs, out.frame_probs)]
        record += [p.grad.tobytes() for p in model.params.values()]
        optimizer.step()
    return record + [p.data.tobytes() for p in model.params.values()]


@pytest.mark.parametrize("attention", ["none", "concat_product", "bilinear", "bihop"])
@pytest.mark.parametrize("fusion_mode", ["early", "tensor", "late", "late_plus"])
def test_fused_ops_train_bitwise_like_their_compositions(micro_corpus, monkeypatch,
                                                         attention, fusion_mode):
    """In every attention x fusion mode, three training steps on the fused ops
    give the same losses, outputs, gradients and parameters, bit for bit, as
    the same steps on the compositions of single ops they replace."""
    _, samples, vocab = micro_corpus
    cfg = tiny_config(attention=attention, fusion=fusion_mode, hidden=3, embed_dim=3,
                      attn_dim=4, fusion_dim=3, feature_dim=8)
    samples = [prepare_for_model(s, cfg.fps_group, cfg.seed) for s in samples[:2]]
    fused = _steps_record(cfg, samples, len(vocab))
    with monkeypatch.context() as m:
        composed_ops.use_compositions(m)
        composed = _steps_record(cfg, samples, len(vocab))
    assert fused == composed


def test_worker_steps_are_bitwise_the_inline_steps(monkeypatch, handoffs):
    """Three forward, backward and Adagrad rounds at a shape over the worker's
    threshold (D = 1024, h = 32), with the worker on (each round hands off the
    frame GEMMs, the frame weights' gradient GEMMs and half of Adagrad) and
    forced off through ``ad.use_worker``: the probabilities, every gradient and
    the optimizer's store have equal bytes."""
    cfg = tiny_config(feature_dim=1024, hidden=32)
    y = np.array([1.0, 0.0])

    def rounds():
        rng = np.random.default_rng(5)
        sample = training.make_check_sample(cfg, rng)
        model = SummarizerModel(build_parameters(cfg, training.CHECK_VOCAB_SIZE, rng),
                                cfg, training.CHECK_VOCAB_SIZE)
        optimizer = Adagrad(model.params, lr=0.05)
        seen = []
        for _ in range(3):
            out = model.forward(sample)
            ad.backward(ad.weighted_sum((ce_loss(out.sent_probs, y),
                                         ce_loss(out.frame_probs, y)), (1.0, 1.0)))
            seen += [out.sent_probs.data.tobytes(), out.frame_probs.data.tobytes()]
            seen += [(name, None if p.grad is None else p.grad.tobytes())
                     for name, p in model.params.items()]
            optimizer.step()
        return seen, optimizer._store.tobytes()

    on = rounds()
    assert len(handoffs) == 3 * 4
    monkeypatch.setattr(ad, "use_worker", lambda: False)
    off = rounds()
    assert len(handoffs) == 3 * 4
    assert on == off
