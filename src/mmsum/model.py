"""Parameter layout and the full forward pass: encoders -> alignment ->
fusion, yielding per-sentence and per-frame extraction probabilities."""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import attention, encoders, fusion
from .attention import AttentionParams, AttnSet
from .autodiff import Tensor
from .config import RunConfig
from .encoders import BiLSTM, EncoderParams
from .errors import CheckpointError
from .fusion import FusionHead, ScorerParams

ATTN_SETS = ("sent_query", "frame_query", "tr_over_frames", "tr_over_sents")


@dataclass
class ForwardResult:
    sent_probs: Tensor                      # (NS,)
    frame_probs: Tensor | None              # (NM,) when the frame branch is on
    frame_states: Tensor | None             # (NM, 2h)


def parameter_spec(cfg: RunConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter the configuration needs, in allocation
    order. This is the one statement of the parameter layout: the shape check,
    the typed views and ``parameter_views``' flat vector derive from it."""
    h, da, df = cfg.hidden, cfg.attn_dim, cfg.fusion_dim
    d2 = 2 * h
    spec = {"encoders/embedding": (vocab_size, cfg.embed_dim)}

    def entries(prefix, **shapes):
        spec.update({f"{prefix}/{field}": shape for field, shape in shapes.items()})

    def lstm(name, input_dim):
        for d in ("fw", "bw"):
            spec[f"encoders/{name}/{d}_W"] = (input_dim + h, 4 * h)
            spec[f"encoders/{name}/{d}_b"] = (4 * h,)

    def scorer(name, input_dim):
        entries(f"fusion/{name}", W1=(input_dim, df), b1=(df,), w2=(df,), b2=(1,))

    lstm("word", cfg.embed_dim)
    lstm("sentence", d2)
    if not cfg.use_frames:
        scorer("text/f", d2)
        return spec

    lstm("frame", cfg.feature_dim)
    if cfg.use_transcript and cfg.attention == "bihop":
        lstm("transcript", cfg.embed_dim)
    if cfg.attention != "none":
        # bihop uses four bilinear sets; the single-hop modes use the first two
        for name in ATTN_SETS[:4 if cfg.attention == "bihop" else 2]:
            entries(f"attention/{name}", W_q=(d2, da), W_k=(d2, da), V=(da,))
            if cfg.attention == "concat_product":
                entries(f"attention/{name}", b_joint=(da,))
            else:
                entries(f"attention/{name}", b_q=(da,), b_k=(da,))
    for side in ("text", "frame"):
        if cfg.fusion == "early":
            scorer(f"{side}/joint", 2 * d2)
        elif cfg.fusion == "tensor":
            scorer(f"{side}/joint", (d2 + 1) ** 2)
        else:
            scorer(f"{side}/f", d2)
            scorer(f"{side}/g", d2)
            scorer(f"{side}/F", 2)
    return spec


def parameter_views(vector: np.ndarray, spec: dict) -> dict[str, np.ndarray]:
    """Name -> view of flat ``vector`` for each parameter of ``spec``, laid end
    to end in spec order: the one flat layout of the init, Adagrad's store and
    params.bin. A vector of another length is a CheckpointError."""
    ends = list(itertools.accumulate(map(math.prod, spec.values()), initial=0))
    if vector.shape != (ends[-1],):
        raise CheckpointError(f"{vector.size} values do not fit a layout of {ends[-1]}")
    return {name: vector[lo:hi].reshape(shape)
            for (name, shape), lo, hi in zip(spec.items(), ends, ends[1:])}


def build_parameters(cfg: RunConfig, vocab_size: int, rng,
                     init_scale: float = encoders.INIT_SCALE) -> dict[str, np.ndarray]:
    """Views of one uniform draw (the values of one draw per parameter in spec
    order), so a given seed always yields the same init; LSTM biases then get
    their forget-gate opening."""
    spec = parameter_spec(cfg, vocab_size)
    size = sum(map(math.prod, spec.values()))
    params = parameter_views(rng.uniform(-init_scale, init_scale, size=size), spec)
    for name, arr in params.items():
        if name.startswith("encoders/") and name.endswith("_b"):
            encoders.open_forget_gate(arr)
    return params


def check_parameters(params: dict, cfg: RunConfig, vocab_size: int) -> dict:
    """The `parameter_spec` that `params` must match, or a `CheckpointError`."""
    want = parameter_spec(cfg, vocab_size)
    mine = {name: np.shape(arr) for name, arr in params.items()}
    if mine != want:
        missing, extra = sorted(want.keys() - mine), sorted(mine.keys() - want)
        wrong = sorted(k for k in mine.keys() & want if mine[k] != want[k])
        raise CheckpointError(
            f"parameters do not match the configuration "
            f"(missing={missing}, unexpected={extra}, wrong_shape={wrong})")
    return want


class SummarizerModel:
    """Binds a parameter dictionary to typed views and runs the forward pass."""

    def __init__(self, params: dict, cfg: RunConfig, vocab_size: int):
        check_parameters(params, cfg, vocab_size)
        self.cfg = cfg
        self.params: dict[str, Tensor] = {
            name: Tensor(arr, requires_grad=True) for name, arr in params.items()}

        self.encoder = EncoderParams(
            embedding=self.params["encoders/embedding"],
            **{name: self._group(BiLSTM, f"encoders/{name}")
               for name in ("word", "sentence", "frame", "transcript")},
            sum_pool=cfg.sum_pool)
        self.attn = AttentionParams(
            mode=cfg.attention,
            **{name: self._group(AttnSet, f"attention/{name}") for name in ATTN_SETS})
        self.text_head, self.frame_head = (
            FusionHead(mode=cfg.fusion, beta=cfg.beta, prose_weights=cfg.late_plus_prose,
                       **{part: self._group(ScorerParams, f"fusion/{side}/{part}")
                          for part in ("joint", "f", "g", "F")})
            for side in ("text", "frame"))

    def _group(self, cls, prefix: str):
        """Fill the params dataclass `cls` from the `prefix/<field>` entries;
        None when the configuration has no such group."""
        fields = [f.name for f in dataclasses.fields(cls)]
        if f"{prefix}/{fields[0]}" not in self.params:
            return None
        return cls(**{f: self.params.get(f"{prefix}/{f}") for f in fields})

    def forward(self, sample) -> ForwardResult:
        sents, frames, t_states = encoders.encode_sample(sample, self.encoder)
        if frames is None:
            probs = fusion.scorer_prob(sents, self.text_head.f)
            return ForwardResult(sent_probs=probs, frame_probs=None, frame_states=None)

        sent_attn = attention.sentence_context(self.attn, sents, frames, t_states)
        frame_attn = attention.frame_context(self.attn, frames, sents, t_states)

        sent_probs = fusion.fuse(sents, sent_attn.contexts, self.text_head)
        frame_probs = fusion.fuse(frames, frame_attn.contexts, self.frame_head)
        return ForwardResult(sent_probs=sent_probs, frame_probs=frame_probs,
                             frame_states=frames)

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}
