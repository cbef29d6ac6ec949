"""Fusion of a unit's own state with its cross-modal context into an
extraction probability.

Four strategies:

* early     - concatenate the two feature vectors, score jointly
* tensor    - outer product of [state;1] and [context;1], flattened, scored
* late_plus - scalar decisions f(state), g(context), each scaled by a
              confidence penalty, W_s = (1 - g)^beta on f and
              W_c = (1 - f)^beta on g, and combined by a head F
* late      - late_plus at beta = 0, whatever ``head.beta`` holds: both
              penalties are exactly 1, so F sees [f, g] bit for bit

A head's scorers, joint for early and tensor and f, g and F for late and
late_plus, are all required: one-hidden-layer feedforward networks with a
sigmoid output, each one ``scorer`` node on the tape (``scorer_prob``). The
early feature is one ``concat`` node, the tensor feature one
``tensor_fusion`` node, and the penalized pair [W_s f, W_c g] that F scores
one ``late_pair`` node, the one decision path of late and late_plus. State
and context come in as 2-D row blocks of equal row count, which one check,
``_pair``, enforces for every head (a ``FusionError`` otherwise). The
text-only model scores its sentence states with ``scorer_prob`` alone.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .errors import FusionError


@dataclass
class ScorerParams:
    W1: Tensor   # (d_in, d_f)
    b1: Tensor   # (d_f,)
    w2: Tensor   # (d_f,)
    b2: Tensor   # (1,)


@dataclass
class FusionHead:
    mode: str
    beta: float = RunConfig.beta
    joint: ScorerParams | None = None   # early / tensor
    f: ScorerParams | None = None       # state scorer (late variants)
    g: ScorerParams | None = None       # context scorer
    F: ScorerParams | None = None       # decision head (late variants)
    prose_weights: bool = False         # self-confidence variant of late_plus


def scorer_prob(X: Tensor, p: ScorerParams) -> Tensor:
    """(N, d_in) -> (N,) probabilities via tanh hidden layer + sigmoid."""
    if X.shape[1] != p.W1.shape[0]:
        raise FusionError(f"scorer input dim {X.shape[1]} does not match "
                          f"weight rows {p.W1.shape[0]}")
    return ad.scorer(X, p.W1, p.b1, p.w2, p.b2)


def _pair(state, ctx) -> tuple[Tensor, Tensor]:
    """State and context, each a 2-D block of rows, with equal row counts."""
    S, C = (ad.as_tensor(x) for x in (state, ctx))
    if S.ndim != 2 or C.ndim != 2:
        raise FusionError(f"state and context must be 2-D row blocks, got shapes "
                          f"{S.shape} and {C.shape}")
    if S.shape[0] != C.shape[0]:
        raise FusionError("state and context row counts differ")
    return S, C


def unimodal_decisions(state, ctx, head: FusionHead):
    S, C = _pair(state, ctx)
    return scorer_prob(S, head.f), scorer_prob(C, head.g)


def fuse(state, ctx, head: FusionHead) -> Tensor:
    if head.mode in ("early", "tensor"):
        S, C = _pair(state, ctx)
        joint = ad.concat([S, C], axis=1) if head.mode == "early" else ad.tensor_fusion(S, C)
        return scorer_prob(joint, head.joint)
    if head.mode not in ("late", "late_plus"):
        raise FusionError(f"unknown fusion mode '{head.mode}'")
    beta = head.beta if head.mode == "late_plus" else 0.0
    if beta < 0:
        raise FusionError(f"beta must be >= 0, got {beta}")
    pair = ad.late_pair(*unimodal_decisions(state, ctx, head), beta, head.prose_weights)
    return scorer_prob(pair, head.F)
