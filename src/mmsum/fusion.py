"""Fusion of a unit's own state with its cross-modal context into an
extraction probability.

Four strategies:

* early     - concatenate the two feature vectors, score jointly
* tensor    - outer product of [state;1] and [context;1], flattened, scored
* late      - scalar decisions f(state), g(context) combined by a head F
* late_plus - late fusion with confidence penalties
              W_s = (1 - g)^beta on f and W_c = (1 - f)^beta on g,
              so beta = 0 reduces exactly to late fusion

f, g and the joint/F heads are one-hidden-layer feedforward networks with a
sigmoid output. F may also be plain averaging (head set to None), which is a
legitimate decision-level combiner, not just a test stub.

On the tape, each scorer is two ``dense`` nodes. The early feature is one
``concat`` node, the tensor feature one ``tensor_fusion`` node, and
everything after f and g (the penalties, the pair and F) is one
``late_decision`` node. State and context come in as 2-D row blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
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
    beta: float = 0.3
    joint: ScorerParams | None = None   # early / tensor
    f: ScorerParams | None = None       # state scorer (late variants)
    g: ScorerParams | None = None       # context scorer
    F: ScorerParams | None = None       # decision head; None means averaging
    prose_weights: bool = False         # self-confidence variant of late_plus


def _check_input(d_in: int, p: ScorerParams):
    if d_in != p.W1.shape[0]:
        raise FusionError(f"scorer input dim {d_in} does not match "
                          f"weight rows {p.W1.shape[0]}")


def scorer_prob(X: Tensor, p: ScorerParams) -> Tensor:
    """(N, d_in) -> (N,) probabilities via tanh hidden layer + sigmoid."""
    _check_input(X.shape[1], p)
    return ad.dense(ad.dense(X, p.W1, p.b1, "tanh"), p.w2, p.b2, "sigmoid")


def _pair(state, ctx) -> tuple[Tensor, Tensor]:
    """State and context, each a 2-D block of rows, with equal row counts."""
    S, C = (ad.as_tensor(x) for x in (state, ctx))
    if S.ndim != 2 or C.ndim != 2:
        raise FusionError(f"state and context must be 2-D row blocks, got shapes "
                          f"{S.shape} and {C.shape}")
    if S.shape[0] != C.shape[0]:
        raise FusionError("state and context row counts differ")
    return S, C


def fuse_early(state, ctx, head: FusionHead) -> Tensor:
    S, C = _pair(state, ctx)
    return scorer_prob(ad.concat([S, C], axis=1), head.joint)


def fuse_tensor(state, ctx, head: FusionHead) -> Tensor:
    S, C = _pair(state, ctx)
    return scorer_prob(ad.tensor_fusion(S, C), head.joint)


def unimodal_decisions(state, ctx, head: FusionHead):
    S, C = _pair(state, ctx)
    return scorer_prob(S, head.f), scorer_prob(C, head.g)


def _decide(f_vals: Tensor, g_vals: Tensor, head: FusionHead, beta=None) -> Tensor:
    """F over the pair of decisions, each scaled by its late+ penalty when
    ``beta`` is given."""
    F = head.F
    if F is not None:
        _check_input(2, F)
        F = (F.W1, F.b1, F.w2, F.b2)
    return ad.late_decision(f_vals, g_vals, F, beta, head.prose_weights)


def fuse_late(state, ctx, head: FusionHead) -> Tensor:
    f_vals, g_vals = unimodal_decisions(state, ctx, head)
    return _decide(f_vals, g_vals, head)


def fuse_late_plus(state, ctx, head: FusionHead) -> Tensor:
    if head.beta < 0:
        raise FusionError(f"beta must be >= 0, got {head.beta}")
    f_vals, g_vals = unimodal_decisions(state, ctx, head)
    return _decide(f_vals, g_vals, head, head.beta)


_DISPATCH = {
    "early": fuse_early,
    "tensor": fuse_tensor,
    "late": fuse_late,
    "late_plus": fuse_late_plus,
}


def fuse(state, ctx, head: FusionHead) -> Tensor:
    try:
        fn = _DISPATCH[head.mode]
    except KeyError:
        raise FusionError(f"unknown fusion mode '{head.mode}'") from None
    return fn(state, ctx, head)
