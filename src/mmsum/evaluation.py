"""Metrics and inference: n-gram and LCS recall/precision/F1 over token
sequences, cosine image similarity, transcript-overlap statistics, summary
extraction, and report emission.

Scores are computed over concatenated token sequences (summary level), with
no stemming or stopword removal; tokenization matches the data module.
ROUGE-L's longest common subsequence is the bit-parallel algorithm of
Allison & Dix and Hyyrö over Python ints; it returns the same integer as the
dynamic program, so every score is identical to the DP's, in one big-int
step per token of the shorter sequence.

``select`` picks the top-k sentences and frames from given probabilities and
``score_summaries`` scores the summaries; ``evaluate_dataset`` runs the
model's forward for each sample and then both, and an ablation cell scores
the best epoch's cached val probabilities the same way.
"""
from __future__ import annotations

import csv
import io
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import Sample, tokenize
from .errors import EvalError, write_json, write_text


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class RougeScore:
    r1: PRF
    r2: PRF
    rl: PRF


@dataclass
class SummaryOutput:
    sentence_indices: list[int]   # strictly increasing
    frame_indices: list[int]
    sentence_probs: np.ndarray
    frame_probs: np.ndarray | None


def _flatten(seq) -> list[str]:
    if len(seq) > 0 and isinstance(seq[0], (list, tuple)):
        return [tok for part in seq for tok in part]
    return list(seq)


def _token_pair(candidate, reference) -> tuple[list[str], list[str]]:
    """Candidate and reference as flat token lists, the reference nonempty."""
    cand, ref = _flatten(candidate), _flatten(reference)
    if len(ref) == 0:
        raise EvalError("reference is empty")
    return cand, ref


def _prf(overlap: float, n_cand: float, n_ref: float) -> PRF:
    p = overlap / n_cand if n_cand > 0 else 0.0
    r = overlap / n_ref if n_ref > 0 else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return PRF(p, r, f1)


def _ngram_counts(tokens, n) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def rouge_n(candidate, reference, n: int) -> PRF:
    """Clipped n-gram overlap of candidate against reference, n in {1, 2}."""
    if n not in (1, 2):
        raise EvalError(f"n must be 1 or 2, got {n}")
    cand, ref = _token_pair(candidate, reference)
    c_counts, r_counts = _ngram_counts(cand, n), _ngram_counts(ref, n)
    return _prf((c_counts & r_counts).total(), c_counts.total(), r_counts.total())


def _lcs_len(a, b) -> int:
    """Longest-common-subsequence length, bit-parallel (Allison & Dix 1986,
    Hyyrö 2004): bit i of ``v`` is zero where the LCS of ``a[:i + 1]`` with
    the tokens of ``b`` read so far exceeds that of ``a[:i]``."""
    if len(a) < len(b):
        a, b = b, a
    masks = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(candidate, reference) -> PRF:
    """Longest-common-subsequence overlap over concatenated tokens."""
    cand, ref = _token_pair(candidate, reference)
    lcs = _lcs_len(cand, ref)
    return _prf(lcs, len(cand), len(ref))


def rouge_all(candidate, reference) -> RougeScore:
    return RougeScore(r1=rouge_n(candidate, reference, 1),
                      r2=rouge_n(candidate, reference, 2),
                      rl=rouge_l(candidate, reference))


def _cos_or_none(selected_features, ref_features) -> float | None:
    """``cos_image_similarity``, or None when a row of either has zero norm,
    which has no cosine."""
    sel = np.asarray(selected_features, dtype=np.float64)
    refs = np.asarray(ref_features, dtype=np.float64)
    if sel.ndim != 2 or refs.ndim != 2:
        raise EvalError(f"features must be 2-D (rows, dim), got {sel.ndim}-D "
                        f"selected and {refs.ndim}-D reference arrays")
    if sel.size == 0 or refs.size == 0:
        raise EvalError("need at least one selected frame and one reference image")
    if sel.shape[1] != refs.shape[1]:
        raise EvalError(f"feature dims differ: {sel.shape[1]} vs {refs.shape[1]}")
    sel_norms = np.linalg.norm(sel, axis=1)
    ref_norms = np.linalg.norm(refs, axis=1)
    if np.any(sel_norms == 0) or np.any(ref_norms == 0):
        return None
    sims = (refs / ref_norms[:, None]) @ (sel / sel_norms[:, None]).T
    return float(sims.max(axis=1).mean() * 100.0)


def cos_image_similarity(selected_features, ref_features) -> float:
    """Mean over reference images of the best cosine match among the selected
    frames, as a percentage."""
    cos = _cos_or_none(selected_features, ref_features)
    if cos is None:
        raise EvalError("zero-norm feature vector")
    return cos


# ---------------------------------------------------------------------------
# transcript overlap statistics

def overlap_report(samples: list[Sample]) -> dict:
    """Corpus-mean ROUGE of each transcript against its article and against
    the reference summary, on a 0-100 scale."""
    rows = {"article": [], "reference": []}
    for s in samples:
        tr = tokenize(s.transcript.raw_text)
        if not tr:
            continue
        art = [tokenize(line) for line in s.document.raw_sentences]
        ref = [tokenize(line) for line in s.gold_summary]
        rows["article"].append(rouge_all(tr, art))
        rows["reference"].append(rouge_all(tr, ref))
    if not rows["article"]:
        raise EvalError("no nonempty transcripts to report on")
    report = {key: {m: 100.0 * float(np.mean([getattr(r, m).f1 for r in scored]))
                    for m in ("r1", "r2", "rl")} for key, scored in rows.items()}
    return {**report, "n_samples": len(rows["article"])}


# ---------------------------------------------------------------------------
# inference

def top_k_indices(probs: np.ndarray, k: int, what: str) -> list[int]:
    n = len(probs)
    if k > n:
        warnings.warn(f"requested {k} {what} but only {n} available; clamping")
        k = n
    ranked = np.argsort(-probs, kind="stable")[:k]  # ties -> lower index first
    return sorted(int(i) for i in ranked)


def select(sent_probs: np.ndarray, frame_probs: np.ndarray | None,
           k_sentences: int, k_frames: int) -> SummaryOutput:
    """Top-k sentences and frames by extraction probability, original order."""
    frame_idx = [] if frame_probs is None else top_k_indices(frame_probs, k_frames, "frames")
    return SummaryOutput(
        sentence_indices=top_k_indices(sent_probs, k_sentences, "sentences"),
        frame_indices=frame_idx,
        sentence_probs=sent_probs,
        frame_probs=frame_probs,
    )


def summarize(sample: Sample, model, k_sentences: int | None = None,
              k_frames: int | None = None) -> SummaryOutput:
    """`select` over the model's probabilities for one sample."""
    cfg = model.cfg
    with ad.no_grad():
        out = model.forward(sample)
    return select(out.sent_probs.data.copy(),
                  out.frame_probs.data.copy() if out.frame_probs is not None else None,
                  cfg.k_sentences if k_sentences is None else k_sentences,
                  cfg.k_frames if k_frames is None else k_frames)


# why a sample has no Cos -> the warning's words when it is the only cause
NO_COS_CAUSES = {"no frames selected": "no frames selected",
                 "no reference images": "no reference images present",
                 "zero-norm features": "zero-norm frame or reference features"}


def score_summaries(samples: list[Sample], summaries: list[SummaryOutput]) -> dict:
    """Per-sample and corpus-mean ROUGE (plus Cos where frames were selected,
    references exist and no row of either has zero norm) of each sample's
    summary."""
    per_sample, missing = [], dict.fromkeys(NO_COS_CAUSES, 0)
    for s, out in zip(samples, summaries):
        cand = [tokenize(s.document.raw_sentences[i]) for i in out.sentence_indices]
        ref = [tokenize(line) for line in s.gold_summary]
        score = rouge_all(cand, ref)
        row = {
            "id": s.document.id,
            "selected_sentences": out.sentence_indices,
            "selected_frames": out.frame_indices,
            "r1": score.r1.f1, "r2": score.r2.f1, "rl": score.rl.f1,
        }
        if not out.frame_indices:   # a text-only model never selects one
            missing["no frames selected"] += 1
        elif s.ref_image_features is None:
            missing["no reference images"] += 1
        else:
            cos = _cos_or_none(s.frames[out.frame_indices], s.ref_image_features)
            if cos is None:
                missing["zero-norm features"] += 1
            else:
                row["cos"] = cos
        per_sample.append(row)

    # one warning names each cause, counted unless it is the only one
    causes = {what: n for what, n in missing.items() if n}
    none_left = sum(causes.values()) == len(per_sample)
    if none_left and len(causes) == 1:
        warnings.warn(f"{NO_COS_CAUSES[next(iter(causes))]}; Cos omitted from the report")
    elif causes:
        counted = " and ".join(f"{what} for {n} samples" for what, n in causes.items())
        rest = "omitted from the report" if none_left else "averaged over the rest"
        warnings.warn(f"{counted}; Cos {rest}")

    cos_vals = [r["cos"] for r in per_sample if "cos" in r]
    corpus = {
        "r1": float(np.mean([r["r1"] for r in per_sample])),
        "r2": float(np.mean([r["r2"] for r in per_sample])),
        "rl": float(np.mean([r["rl"] for r in per_sample])),
        "cos": float(np.mean(cos_vals)) if cos_vals else None,
    }
    return {"per_sample": per_sample, "corpus_mean": corpus}


def evaluate_dataset(samples: list[Sample], model) -> dict:
    """`score_summaries` of the model's summary of each sample."""
    return score_summaries(samples, [summarize(s, model) for s in samples])


def write_report(report: dict, out_path, fmt: str = "json") -> list[Path]:
    out_path = Path(out_path)
    written = [out_path.with_suffix(".json")]
    write_json(written[0], report)
    if fmt == "csv":
        text = io.StringIO()
        csv.writer(text).writerows([["id", "r1", "r2", "rl", "cos"]] + [
            [row["id"], row["r1"], row["r2"], row["rl"], row.get("cos", "")]
            for row in report["per_sample"]])
        written.append(out_path.with_suffix(".csv"))
        write_text(written[-1], text.getvalue())
    return written
