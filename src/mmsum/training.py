"""Label construction, the joint text/video loss, the optimization loop, and
the finite-difference gradient-check harness.

The text stream trains with cross entropy against greedily constructed
binary sentence labels. The video stream trains with REINFORCE on a
diversity + representativeness reward over the sampled frame selection,
against a moving-average baseline; the surrogate carries a negated advantage
so that minimizing the mixed loss maximizes reward.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Sample, prepare_for_model, tokenize
from .encoders import INIT_SCALE
from .errors import ConfigError, LabelError, LossError, RewardError, TrainingError
from .evaluation import rouge_n
from .model import SummarizerModel, build_parameters

PROB_EPS = 1e-7
BASELINE_DECAY = 0.9
CHECK_VOCAB_SIZE = 7    # token ids of make_check_sample are below it


# ---------------------------------------------------------------------------
# extractive label construction

@dataclass
class LabelSet:
    labels: np.ndarray   # (NS,) of {0,1}
    score: float         # labeling score achieved by the selected set

    @property
    def exclude_from_ce(self) -> bool:
        return int(self.labels.sum()) == 0


def labeling_score(candidate_tokens, gold_tokens) -> float:
    """Mean of unigram and bigram F1 — the objective the greedy search climbs."""
    r1 = rouge_n(candidate_tokens, gold_tokens, 1).f1
    r2 = rouge_n(candidate_tokens, gold_tokens, 2).f1
    return 0.5 * (r1 + r2)


def greedy_labels(document, gold_summary, cap: int = 4) -> LabelSet:
    """Greedily pick sentences that improve the labeling score against the
    gold summary; stop at no strict improvement or at ``cap`` sentences.
    Ties go to the lower sentence index. The search runs once per distinct
    (sentence texts, gold summary, cap); every call gets its own labels array."""
    labels, score = _greedy_search(tuple(document.raw_sentences), tuple(gold_summary), cap)
    return LabelSet(labels=labels.copy(), score=score)


@functools.lru_cache(maxsize=4096)
def _greedy_search(raw_sentences: tuple, gold_summary: tuple, cap: int):
    gold_tokens = [t for line in gold_summary for t in tokenize(line)]
    if not gold_tokens:
        raise LabelError("gold summary is empty")
    sent_tokens = [tokenize(s) for s in raw_sentences]

    selected: list[int] = []
    best = 0.0
    while len(selected) < cap:
        pick, pick_score = -1, best
        for i in range(len(sent_tokens)):
            if i in selected:
                continue
            cand = [t for j in sorted(selected + [i]) for t in sent_tokens[j]]
            score = labeling_score(cand, gold_tokens)
            if score > pick_score:
                pick, pick_score = i, score
        if pick < 0:
            break
        selected.append(pick)
        best = pick_score

    labels = np.zeros(len(sent_tokens), dtype=np.int64)
    labels[selected] = 1
    return labels, best


# ---------------------------------------------------------------------------
# losses and rewards

def _log_likelihood(probs: Tensor, y: np.ndarray) -> Tensor:
    """Bernoulli log-likelihood y·log p + (1 − y)·log(1 − p) per unit, p clipped."""
    p = ad.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    return y * ad.log(p) + (1.0 - y) * ad.log(1.0 - p)


def ce_loss(probs: Tensor, labels) -> Tensor:
    y = np.asarray(labels, dtype=np.float64)
    if probs.shape[0] != y.shape[0]:
        raise LossError(f"got {probs.shape[0]} probabilities for {y.shape[0]} labels")
    return -ad.tmean(_log_likelihood(probs, y))


@dataclass(frozen=True)
class RewardPair:
    div: float   # mean pairwise dissimilarity among selected frames, in [0, 2]
    rep: float   # exp(-mean min distance to the selection), in (0, 1]


def reward_div(states, selected) -> float:
    """Mean (1 - cosine) over ordered pairs of distinct selected frames."""
    sel = sorted(set(int(i) for i in selected))
    if len(sel) < 2:
        return 0.0
    x = np.asarray(states)[sel]
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms == 0, 1.0, norms)
    unit = x / safe[:, None]
    cos = unit @ unit.T
    d = 1.0 - cos
    np.fill_diagonal(d, 0.0)
    m = len(sel)
    return float(d.sum() / (m * (m - 1)))


def reward_rep(states, selected) -> float:
    """How well the selection covers all frames: exp of minus the mean
    distance from each frame to its nearest selected frame."""
    sel = sorted(set(int(i) for i in selected))
    if not sel:
        raise RewardError("representativeness needs a nonempty selection")
    x = np.asarray(states)
    diffs = x[:, None, :] - x[sel][None, :, :]
    dists = np.linalg.norm(diffs, axis=2).min(axis=1)
    return float(np.exp(-dists.mean()))


def video_loss(frame_probs: Tensor, frame_states, rng, baseline: float):
    """Sample a frame selection, score it, and build the REINFORCE surrogate.

    Empty selections are resampled once, then forced to the single highest
    probability frame. Returns (surrogate, rewards, new_baseline, actions).
    """
    p = frame_probs.data
    actions = rng.random(p.shape[0]) < p
    if not actions.any():
        actions = rng.random(p.shape[0]) < p
    if not actions.any():
        actions = np.zeros(p.shape[0], dtype=bool)
        actions[int(np.argmax(p))] = True
    selected = np.flatnonzero(actions)

    states = frame_states.data if isinstance(frame_states, Tensor) else frame_states
    rewards = RewardPair(div=reward_div(states, selected),
                         rep=reward_rep(states, selected))
    total = rewards.div + rewards.rep

    log_pi = ad.tsum(_log_likelihood(frame_probs, actions.astype(np.float64)))
    surrogate = (-(total - baseline)) * log_pi
    new_baseline = BASELINE_DECAY * baseline + (1.0 - BASELINE_DECAY) * total
    return surrogate, rewards, new_baseline, actions


def bistream_loss(ce: Tensor | None, video_surrogate: Tensor | None,
                  alpha_ts: float, alpha_vs: float) -> Tensor:
    if alpha_ts < 0 or alpha_vs < 0:
        raise ConfigError("loss weights must be >= 0")
    if alpha_ts == 0 and alpha_vs == 0:
        raise ConfigError("at least one of alpha_ts, alpha_vs must be positive")
    total = None
    if ce is not None and alpha_ts > 0:
        total = alpha_ts * ce
    if video_surrogate is not None and alpha_vs > 0:
        term = alpha_vs * video_surrogate
        total = term if total is None else total + term
    return Tensor(0.0) if total is None else total


# ---------------------------------------------------------------------------
# optimization

class Adagrad:
    """Per-parameter adaptive step: lr * g / (sqrt(sum g^2) + eps).

    The step runs over blocks of rows of each parameter in one small scratch
    array, so it allocates nothing per parameter and each block stays in
    cache across its passes. Every element goes through the arithmetic of
    ``p -= lr * g / (sqrt(acc) + eps)`` in the same order, so the result is
    bitwise that formula's."""

    BLOCK = 1 << 15     # scratch elements per pass (256 KiB)

    def __init__(self, params: dict[str, Tensor], lr: float, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.eps = eps
        self.acc = {name: np.zeros_like(p.data) for name, p in params.items()}
        # a block, or less for a smaller model, but at least one row of each
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


class EarlyStopping:
    """Stop after ``patience`` consecutive epochs without val improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.counter = 0

    def update(self, val_loss: float) -> bool:
        if val_loss < self.best:
            self.best = val_loss
            self.counter = 0
            return True
        self.counter += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.counter >= self.patience


@dataclass
class TrainResult:
    best_params: dict[str, np.ndarray]
    final_params: dict[str, np.ndarray]
    metrics: list[dict]
    best_val_loss: float
    epochs_run: int


def _validation_ce(model, samples, labels) -> float:
    losses = []
    with ad.no_grad():
        for sample, lab in zip(samples, labels):
            if lab.exclude_from_ce:
                continue
            out = model.forward(sample)
            losses.append(float(ce_loss(out.sent_probs, lab.labels).data))
    return float(np.mean(losses)) if losses else 0.0


def train_model(train_samples: list[Sample], val_samples: list[Sample],
                cfg, vocab_size: int) -> TrainResult:
    if not train_samples or not val_samples:
        raise TrainingError("train and val splits must both be nonempty")

    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    order_rng = np.random.default_rng(seeds[1])
    action_rng = np.random.default_rng(seeds[2])

    train_prep = [prepare_for_model(s, cfg.fps_group, cfg.seed) for s in train_samples]
    val_prep = [prepare_for_model(s, cfg.fps_group, cfg.seed) for s in val_samples]
    train_labels = [greedy_labels(s.document, s.gold_summary, cfg.label_cap)
                    for s in train_prep]
    val_labels = [greedy_labels(s.document, s.gold_summary, cfg.label_cap)
                  for s in val_prep]

    params = build_parameters(cfg, vocab_size, init_rng)
    model = SummarizerModel(params, cfg, vocab_size)
    optimizer = Adagrad(model.params, lr=cfg.lr)
    stopper = EarlyStopping(cfg.patience)
    best_params = model.parameter_arrays()
    baseline = 0.0

    video_on = cfg.use_frames and cfg.use_bistream and cfg.alpha_vs > 0
    metrics: list[dict] = []

    for epoch in range(1, cfg.epochs + 1):
        epoch_losses, epoch_ce, epoch_div, epoch_rep = [], [], [], []
        for idx in order_rng.permutation(len(train_prep)):
            sample, lab = train_prep[idx], train_labels[idx]
            out = model.forward(sample)
            ce = None if lab.exclude_from_ce else ce_loss(out.sent_probs, lab.labels)
            if ce is not None:
                epoch_ce.append(float(ce.data))
            surrogate = None
            if video_on and out.frame_probs is not None:
                surrogate, rewards, baseline, _ = video_loss(
                    out.frame_probs, out.frame_states, action_rng, baseline)
                epoch_div.append(rewards.div)
                epoch_rep.append(rewards.rep)
            if ce is None and surrogate is None:
                continue
            loss = bistream_loss(ce, surrogate, cfg.alpha_ts, cfg.alpha_vs)
            if not np.isfinite(loss.data):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} on sample "
                    f"'{sample.document.id}'")
            epoch_losses.append(float(loss.data))
            ad.backward(loss)
            optimizer.step()

        val_loss = _validation_ce(model, val_prep, val_labels)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        if stopper.update(val_loss):
            best_params = model.parameter_arrays()
        metrics.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)) if epoch_losses else 0.0,
            "train_ce": float(np.mean(epoch_ce)) if epoch_ce else 0.0,
            "val_loss": val_loss,
            "R_div": float(np.mean(epoch_div)) if epoch_div else 0.0,
            "R_rep": float(np.mean(epoch_rep)) if epoch_rep else 0.0,
            "lr": cfg.lr,
        })
        if stopper.should_stop:
            break

    return TrainResult(best_params=best_params,
                       final_params=model.parameter_arrays(),
                       metrics=metrics, best_val_loss=float(stopper.best),
                       epochs_run=len(metrics))


# ---------------------------------------------------------------------------
# gradient checking

def _rel_errors(analytic: np.ndarray, numeric: np.ndarray):
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(denom > 1e-6, diff / np.maximum(denom, 1e-12), 0.0)
    return float(rel.max(initial=0.0)), float(diff.max(initial=0.0))


def make_check_sample(cfg, rng) -> Sample:
    """Tiny deterministic sample for the finite-difference harness."""
    from .data import Document, Transcript

    sentences = [rng.integers(0, CHECK_VOCAB_SIZE, size=3),
                 rng.integers(0, CHECK_VOCAB_SIZE, size=2)]
    doc = Document(sentences=list(sentences),
                   raw_sentences=["a b c", "d e"], id="gradcheck")
    frames = rng.normal(size=(2, cfg.feature_dim))
    tokens = rng.integers(0, CHECK_VOCAB_SIZE, size=3)
    return Sample(document=doc, frames=frames,
                  transcript=Transcript(tokens=tokens, raw_text="a b c"),
                  gold_summary=["a b c"])


def gradient_check(cfg, seed: int = 0, step: float = 1e-4,
                   init_scale: float = INIT_SCALE) -> dict:
    """Central finite differences vs analytic gradients on the deterministic
    CE path (sentence head, plus the frame head against a fixed target when
    the frame branch is on). The stochastic video surrogate is excluded."""
    rng = np.random.default_rng(seed)
    sample = make_check_sample(cfg, rng)
    params = build_parameters(cfg, CHECK_VOCAB_SIZE, rng, init_scale=init_scale)
    model = SummarizerModel(params, cfg, CHECK_VOCAB_SIZE)

    y_sent = np.array([1.0, 0.0])
    y_frame = np.array([1.0, 0.0])

    def loss_value() -> Tensor:
        out = model.forward(sample)
        loss = ce_loss(out.sent_probs, y_sent)
        if out.frame_probs is not None:
            loss = loss + ce_loss(out.frame_probs, y_frame)
        return loss

    loss = loss_value()
    ad.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in model.params.items()}
    for p in model.params.values():
        p.grad = None

    report_blocks = {}
    overall_rel, n_checked = 0.0, 0
    with ad.no_grad():
        for name, p in model.params.items():
            numeric = np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = float(loss_value().data)
                flat[i] = orig - step
                lo = float(loss_value().data)
                flat[i] = orig
                num_flat[i] = (hi - lo) / (2.0 * step)
            max_rel, max_abs = _rel_errors(analytic[name], numeric)
            report_blocks[name] = {"max_rel": max_rel, "max_abs": max_abs,
                                   "n_params": int(flat.size)}
            overall_rel = max(overall_rel, max_rel)
            n_checked += flat.size

    return {"blocks": report_blocks, "max_rel": overall_rel, "n_params": n_checked}
