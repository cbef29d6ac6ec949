"""The four benchmark workloads. Each is a closed loop with one caller.

Every workload makes its corpus from the run's seed with
``data.synth_generate`` in a work directory, and its model's initial
weights from the same seed. A workload provides:

* ``make_corpus(seed, workdir)``: writes the run's input corpus, once and
  untimed; it stands for the data a user already has on disk;
* ``setup(seed, workdir)``: the set-up a user pays before the first
  operation, starting from that corpus; it is timed and repeated, and
  returns a state;
* ``round(state, ops)``: one turn of the closed loop, running one or more
  operations through ``ops``;
* ``finish(states)``: output checks after the loop, returning
  ``(checks, ce_mean, notes)``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from mmsum import autodiff as ad
from mmsum import checkpoint, cli, data, evaluation, model, training
from mmsum.config import RunConfig
from mmsum.data import SynthConfig

import tracing

TINY_SYNTH = SynthConfig()  # 20 samples x 10 sentences x 8 tokens, 8 x 16-d frames
TINY_DIMS = dict(hidden=16, embed_dim=16, attn_dim=16, fusion_dim=16,
                 feature_dim=16, fps_group=1, lr=0.05)
PAPER_SYNTH = SynthConfig(n_samples=10, n_sentences=25, sentence_len=20,
                          n_frames=200, feature_dim=2048, vocab_size=2000,
                          transcript_len=150)
ABLATE_SYNTH = SynthConfig(n_samples=6, n_sentences=4, sentence_len=5, n_frames=4,
                           feature_dim=8, vocab_size=40, transcript_len=10)
ABLATE_FLAGS = ("--hidden", "8", "--embed-dim", "8", "--attn-dim", "8",
                "--fusion-dim", "8", "--feature-dim", "8", "--fps-group", "1",
                "--lr", "0.01", "--workers", "1", "--epochs", "1")
ABLATE_CELLS = 48


def _seed(seed: int) -> int:
    return seed % 2**31


def _manifest_path(workdir):
    return workdir / "corpus" / "manifest.json"


@dataclass
class Workload:
    name: str
    synth: SynthConfig

    def make_corpus(self, seed: int, workdir) -> None:
        data.synth_generate(self.synth, _seed(seed), _manifest_path(workdir).parent)


# ---------------------------------------------------------------------------
# training steps

@dataclass
class TrainState:
    cfg: RunConfig
    samples: list
    labels: list
    model: model.SummarizerModel
    optimizer: training.Adagrad
    order_rng: np.random.Generator
    action_rng: np.random.Generator
    raw_train: list          # unprepared, as train_model takes them
    raw_val: list
    vocab_size: int
    baseline: float = 0.0
    queue: list = field(default_factory=list)
    ces: list = field(default_factory=list)   # CE of each step, None if skipped


def train_step(st: TrainState) -> bool:
    """One step of the training loop in ``training.train_model``: forward,
    CE and REINFORCE losses, backward, Adagrad. False on a non-finite loss.
    ``TrainWorkload.finish`` and the bench tests check that one epoch of
    these steps ends at the parameters ``train_model`` ends at."""
    if not st.queue:
        st.queue = list(st.order_rng.permutation(len(st.samples)))
    idx = st.queue.pop(0)
    sample, lab, cfg = st.samples[idx], st.labels[idx], st.cfg
    out = st.model.forward(sample)
    ce = None if lab.exclude_from_ce else training.ce_loss(out.sent_probs, lab.labels)
    surrogate = None
    if cfg.use_frames and cfg.use_bistream and cfg.alpha_vs > 0 \
            and out.frame_probs is not None:
        surrogate, _, st.baseline, _ = training.video_loss(
            out.frame_probs, out.frame_states, st.action_rng, st.baseline)
    st.ces.append(None if ce is None else float(ce.data))
    if ce is None and surrogate is None:
        return True
    loss = training.bistream_loss(ce, surrogate, cfg.alpha_ts, cfg.alpha_vs)
    if not np.isfinite(loss.data):
        return False
    ad.backward(loss)
    st.optimizer.step()
    return True


def matches_train_model(st: TrainState) -> bool:
    """Whether ``st``, after exactly one epoch of ``train_step``, holds the
    parameters and mean CE that ``training.train_model`` reaches in one epoch
    from the same seed. This keeps the benchmark's copy of the loop honest."""
    if len(st.ces) != len(st.samples):
        raise ValueError(f"state ran {len(st.ces)} steps, not one epoch "
                         f"of {len(st.samples)}")
    cfg = dataclasses.replace(st.cfg, epochs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = training.train_model(st.raw_train, st.raw_val, cfg, st.vocab_size)
    ces = [c for c in st.ces if c is not None]
    ref_ce = ref.metrics[0]["train_ce"]
    return (float(np.mean(ces)) if ces else 0.0) == ref_ce and all(
        np.array_equal(st.model.params[k].data, v) for k, v in ref.final_params.items())


@dataclass
class TrainWorkload(Workload):
    dims: dict
    check_steps: int      # steps run twice from the same seed for the CE check
    check_epoch: bool     # also compare one epoch against training.train_model
    min_ops: int
    setup_reps: int
    op_label = "training steps"
    specific_names = ("train_samples_per_s", "train_step_ms")

    def setup(self, seed: int, workdir) -> TrainState:
        cfg = RunConfig(**self.dims, attention="bihop", fusion="late_plus",
                        seed=_seed(seed))
        manifest = data.load_manifest(_manifest_path(workdir))
        samples, vocab = data.load_dataset(manifest)
        by_id = {s.document.id: s for s in samples}
        raw_train, raw_val = ([by_id[e.id] for e in manifest.entries_for(name)]
                              for name in ("train", "val"))
        train = [data.prepare_for_model(s, cfg.fps_group, cfg.seed) for s in raw_train]
        labels = [training.greedy_labels(s.document, s.gold_summary, cfg.label_cap)
                  for s in train]
        init_seed, order_seed, action_seed = np.random.SeedSequence(cfg.seed).spawn(3)
        params = model.build_parameters(cfg, len(vocab), np.random.default_rng(init_seed))
        m = model.SummarizerModel(params, cfg, len(vocab))
        return TrainState(cfg=cfg, samples=train, labels=labels, model=m,
                          optimizer=training.Adagrad(m.params, lr=cfg.lr),
                          order_rng=np.random.default_rng(order_seed),
                          action_rng=np.random.default_rng(action_seed),
                          raw_train=raw_train, raw_val=raw_val, vocab_size=len(vocab))

    def round(self, st: TrainState, ops) -> None:
        ops.run(train_step, st)

    def finish(self, states):
        """CE of the first ``check_steps`` steps, run again from a same-seed
        set-up; later steps only need a finite CE. With ``check_epoch`` the
        rerun is one epoch long and is compared with ``train_model``."""
        timed, rerun = states
        k = self.check_steps
        while len(rerun.ces) < k and train_step(rerun):
            pass
        first, second = timed.ces[:k], rerun.ces[:k]
        window = [c for c in first if c is not None]
        later = [c for c in timed.ces if c is not None]
        checks = {
            f"ce finite over all {len(timed.ces)} steps": len(timed.ces) >= k
            and all(math.isfinite(c) for c in later),
            f"ce identical across two same-seed runs of {k} steps": first == second,
        }
        if self.check_epoch:
            checks["one epoch of steps ends where training.train_model ends"] = \
                matches_train_model(rerun)
        ce_mean = sum(window) / len(window) if window else float("nan")
        return checks, ce_mean, [f"train_ce_final {first[-1:]!r} at step {k}, "
                                 f"same-seed rerun {second[-1:]!r}"]


# ---------------------------------------------------------------------------
# inference

@dataclass
class EvalState:
    cfg: RunConfig
    manifest: data.DatasetManifest
    vocab: dict
    model: model.SummarizerModel
    next_entry: int = 0
    results: dict = field(default_factory=dict)   # sample id -> (first row, sample)
    mismatches: list = field(default_factory=list)


def eval_sample(st: EvalState) -> bool:
    """Load one sample from disk, prepare it and score it with
    ``evaluation.evaluate_dataset``, as ``cmd_eval`` does for a split. A later
    visit must reproduce the first visit's row exactly."""
    entry = st.manifest.entries[st.next_entry % len(st.manifest.entries)]
    st.next_entry += 1
    cfg = st.cfg
    sample = data.load_sample(st.manifest, entry, st.vocab, cfg.min_frames)
    prepared = data.prepare_for_model(sample, cfg.fps_group, cfg.seed)
    row = evaluation.evaluate_dataset([prepared], st.model)["per_sample"][0]
    first, _ = st.results.setdefault(entry.id, (row, prepared))
    if first != row:
        st.mismatches.append(entry.id)
        return False
    return all(math.isfinite(row.get(k, math.nan)) for k in ("r1", "r2", "rl", "cos"))


@dataclass
class EvalWorkload(Workload):
    min_ops: int
    setup_reps: int
    op_label = "samples evaluated"
    specific_names = ("eval_samples_per_s", "eval_sample_ms")

    def setup(self, seed: int, workdir) -> EvalState:
        """Build a model from the seed, round-trip it through a checkpoint,
        and open the manifest: what ``cmd_eval`` finds on disk."""
        cfg = RunConfig(seed=_seed(seed))
        manifest = data.load_manifest(_manifest_path(workdir))
        vocab = data.build_vocab(
            (manifest.root / path).read_text(encoding="utf-8")
            for e in manifest.entries for path in (e.document, e.transcript))
        params = model.build_parameters(cfg, len(vocab), np.random.default_rng(cfg.seed))
        checkpoint.save_checkpoint(workdir / "checkpoint", params, cfg, vocab)
        params, cfg, vocab = checkpoint.load_checkpoint(workdir / "checkpoint")
        return EvalState(cfg=cfg, manifest=manifest, vocab=vocab,
                         model=model.SummarizerModel(params, cfg, len(vocab)))

    def round(self, st: EvalState, ops) -> None:
        ops.run(eval_sample, st)

    def finish(self, states):
        st = states[0]
        rows = [row for row, _ in st.results.values()]
        ces = []
        for _, s in st.results.values():
            lab = training.greedy_labels(s.document, s.gold_summary, st.cfg.label_cap)
            if not lab.exclude_from_ce:
                probs = evaluation.summarize(s, st.model).sentence_probs
                with ad.no_grad():
                    ce = training.ce_loss(ad.Tensor(probs), lab.labels)
                ces.append(float(ce.data))
        checks = {
            "every sample of the corpus evaluated": len(rows) == len(st.manifest.entries),
            "every sample has R-1/R-2/R-L": all(
                math.isfinite(row.get(k, math.nan)) for row in rows
                for k in ("r1", "r2", "rl")),
            "repeated samples give identical summaries and scores": not st.mismatches,
        }
        r1 = sum(row["r1"] for row in rows) / max(len(rows), 1)
        ce_mean = sum(ces) / len(ces) if ces else float("nan")
        return checks, ce_mean, [f"eval_r1 {r1!r} (mean over {len(rows)} samples)"]


# ---------------------------------------------------------------------------
# ablation matrix

@dataclass
class AblateState:
    seed: int
    manifest_path: str
    out_dir: str
    matrices: list = field(default_factory=list)   # (exit code, cell rows)


@dataclass
class AblateWorkload(Workload):
    min_ops: int
    setup_reps: int
    op_label = "ablation cells"
    specific_names = ("ablate_cells_per_s", "ablate_cell_ms")

    def setup(self, seed: int, workdir) -> AblateState:
        """Open the corpus as ``cmd_ablate`` does before its first cell: the
        manifest, every sample and the vocabulary."""
        seed = _seed(seed)
        manifest = data.load_manifest(_manifest_path(workdir))
        samples, _ = data.load_dataset(manifest)
        if len(samples) != self.synth.n_samples or not manifest.entries_for("train"):
            raise RuntimeError(f"corpus has {len(samples)} samples, expected "
                               f"{self.synth.n_samples} with a train split")
        return AblateState(seed=seed,
                           manifest_path=str(_manifest_path(workdir)),
                           out_dir=str(workdir / "ablate"))

    def round(self, st: AblateState, ops) -> None:
        """One ``mmsum ablate`` run over the full matrix; each cell is one
        operation."""
        argv = ["ablate", "--manifest", st.manifest_path, "--out", st.out_dir,
                "--seed", str(st.seed), *ABLATE_FLAGS]
        with tracing.op_boundary(cli, "run_ablate_cell", ops,
                                 ok=lambda row: row["status"] == "ok"), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(f"{st.out_dir}/ablation.json", encoding="utf-8") as fh:
            st.matrices.append((code, json.load(fh)["cells"]))

    def finish(self, states):
        st = states[0]
        rows = st.matrices[0][1]
        checks = {
            f"{ABLATE_CELLS}/{ABLATE_CELLS} cells ok in every matrix": all(
                c == 0 and len(r) == ABLATE_CELLS
                and all(row["status"] == "ok" for row in r) for c, r in st.matrices),
            "every matrix identical to the first": all(
                r == rows for _, r in st.matrices),
        }
        losses = [row["val_loss"] for row in rows if row["status"] == "ok"]
        ce_mean = sum(losses) / len(losses) if losses else float("nan")
        r1 = [row["val_r1"] for row in rows if row["status"] == "ok"]
        return checks, ce_mean, [f"{len(st.matrices)} matrices; mean val_r1 "
                                 f"{sum(r1) / max(len(r1), 1)!r}"]


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload("train_tiny", TINY_SYNTH, TINY_DIMS, check_steps=14,
                      check_epoch=True, min_ops=100, setup_reps=30),
        TrainWorkload("train_paper", PAPER_SYNTH, {}, check_steps=2,
                      check_epoch=False, min_ops=20, setup_reps=20),
        EvalWorkload("eval_paper", PAPER_SYNTH, min_ops=100, setup_reps=60),
        AblateWorkload("ablate_matrix", ABLATE_SYNTH, min_ops=100, setup_reps=300),
    )
}
