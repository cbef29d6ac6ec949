"""Label construction, the joint text/video loss, the optimization loop, and
the finite-difference gradient-check harness.

The text stream trains with cross entropy against greedily constructed
binary sentence labels. The video stream trains with REINFORCE on a
diversity + representativeness reward over the sampled frame selection,
against a moving-average baseline; the surrogate carries a negated advantage
so that minimizing the mixed loss maximizes reward. Each loss is one tape
node: the CE and the surrogate are ``autodiff.log_likelihood_sum`` nodes
(scaled by -1/n, and by minus the advantage), and their alpha-weighted mix
is one ``autodiff.weighted_sum`` node.

Adagrad owns the model's memory once it is built: every parameter, gradient
and accumulator is a view of one flat store. Between steps each ``p.grad``
is a zeroed array that backward accumulates into; a caller may still assign
``p.grad`` an array or None, and the next step reads it.
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

def ce_loss(probs: Tensor, labels) -> Tensor:
    y = np.asarray(labels, dtype=np.float64)
    if probs.shape[0] != y.shape[0]:
        raise LossError(f"got {probs.shape[0]} probabilities for {y.shape[0]} labels")
    return ad.log_likelihood_sum(probs, y, PROB_EPS, (1.0 / y.shape[0], -1.0))


@dataclass(frozen=True)
class RewardPair:
    div: float   # mean pairwise dissimilarity among selected frames, in [0, 2]
    rep: float   # exp(-mean min distance to the selection), in (0, 1]


def _selection(selected) -> list[int]:
    return sorted(set(int(i) for i in selected))


def reward_div(states, selected) -> float:
    """Mean (1 - cosine) over ordered pairs of distinct selected frames."""
    return _reward_div(states, _selection(selected))


def _reward_div(states, sel) -> float:
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
    return _reward_rep(states, _selection(selected))


def _reward_rep(states, sel) -> float:
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
    selected = np.flatnonzero(actions).tolist()     # sorted, no repeats

    states = frame_states.data if isinstance(frame_states, Tensor) else frame_states
    rewards = RewardPair(div=_reward_div(states, selected),
                         rep=_reward_rep(states, selected))
    total = rewards.div + rewards.rep

    surrogate = ad.log_likelihood_sum(frame_probs, actions.astype(np.float64), PROB_EPS,
                                      (-(total - baseline),))
    new_baseline = BASELINE_DECAY * baseline + (1.0 - BASELINE_DECAY) * total
    return surrogate, rewards, new_baseline, actions


def bistream_loss(ce: Tensor | None, video_surrogate: Tensor | None,
                  alpha_ts: float, alpha_vs: float) -> Tensor:
    if alpha_ts < 0 or alpha_vs < 0:
        raise ConfigError("loss weights must be >= 0")
    if alpha_ts == 0 and alpha_vs == 0:
        raise ConfigError("at least one of alpha_ts, alpha_vs must be positive")
    terms = [(t, w) for t, w in ((ce, alpha_ts), (video_surrogate, alpha_vs))
             if t is not None and w > 0]
    if not terms:
        return Tensor(0.0)
    tensors, weights = zip(*terms)
    return ad.weighted_sum(tensors, weights)


# ---------------------------------------------------------------------------
# optimization

class Adagrad:
    """Adaptive step lr * g / (sqrt(sum g^2) + eps) (Duchi, Hazan & Singer,
    JMLR 2011) over one flat store of the whole model.

    Row 0 of one (3, n) float64 array holds the parameters (each
    ``Tensor.data`` is rebound to its view), row 1 the gradients and row 2
    the accumulators (``acc[name]``). ``step`` first copies in any ``p.grad``
    a caller rebound (None reads as zero), then runs each block of columns
    through the arithmetic of ``p -= lr * g / (sqrt(acc) + eps)`` in the
    same order, so the result is bitwise that formula's, and zeroes the
    gradient block. A zero gradient leaves acc and p bitwise unchanged
    (eps > 0), so it is the same as no gradient."""

    BLOCK = 1 << 15     # store columns per pass (scratch of 2 x 256 KiB)

    def __init__(self, params: dict[str, Tensor], lr: float, eps: float = 1e-8):
        self.lr = lr
        self.eps = eps
        self._store = np.zeros((3, sum(p.data.size for p in params.values())))
        self.acc: dict[str, np.ndarray] = {}
        self._grads: list[tuple[Tensor, np.ndarray]] = []
        lo = 0
        for name, p in params.items():
            hi = lo + p.data.size
            w, g, self.acc[name] = (row.reshape(p.data.shape)
                                    for row in self._store[:, lo:hi])
            w[...] = p.data
            # the zero rows stay unwritten, so their pages are only mapped
            # by the first step that uses them
            if p.grad is not None:
                g[...] = p.grad
            p.data, p.grad = w, g
            self._grads.append((p, g))
            lo = hi

    def step(self):
        for p, g in self._grads:
            if p.grad is not g:
                g[...] = 0.0 if p.grad is None else p.grad
                p.grad = g
        n = self._store.shape[1]
        scratch = np.empty((2, min(n, self.BLOCK)))
        for lo in range(0, n, self.BLOCK):
            w, g, acc = self._store[:, lo:lo + self.BLOCK]
            b, b2 = scratch[:, :g.size]
            np.square(g, out=b)
            acc += b
            np.sqrt(acc, out=b)
            b += self.eps
            np.multiply(self.lr, g, out=b2)
            b2 /= b
            w -= b2
            g.fill(0.0)


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
    # each val sample's sentence and frame probabilities at the best epoch
    best_val_probs: list[tuple[np.ndarray, np.ndarray | None]]


def _validation_ce(model, samples, labels) -> tuple[float, list]:
    """The mean CE over the val samples not excluded from it, and every val
    sample's sentence and frame probabilities."""
    losses, probs = [], []
    with ad.no_grad():
        for sample, lab in zip(samples, labels):
            out = model.forward(sample)
            probs.append((out.sent_probs.data,
                          None if out.frame_probs is None else out.frame_probs.data))
            if not lab.exclude_from_ce:
                losses.append(float(ce_loss(out.sent_probs, lab.labels).data))
    return (float(np.mean(losses)) if losses else 0.0), probs


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

    # the optimizer packs the parameters; holding the drawn arrays would keep
    # a second copy of the model alive for the whole run
    model = SummarizerModel(build_parameters(cfg, vocab_size, init_rng),
                            cfg, vocab_size)
    optimizer = Adagrad(model.params, lr=cfg.lr)
    stopper = EarlyStopping(cfg.patience)
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

        val_loss, val_probs = _validation_ce(model, val_prep, val_labels)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        if stopper.update(val_loss):    # always at epoch 1: val_loss < inf
            best_params, best_val_probs = model.parameter_arrays(), val_probs
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
                       epochs_run=len(metrics), best_val_probs=best_val_probs)


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
