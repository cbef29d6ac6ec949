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

f, g and the joint/F heads are one-hidden-layer feedforward networks with a
sigmoid output. F may also be plain averaging (head set to None), which is a
legitimate decision-level combiner, not just a test stub.

On the tape, each scorer is two ``dense`` nodes. The early feature is one
``concat`` node, the tensor feature one ``tensor_fusion`` node, and
everything after f and g (the penalties, the pair and F) is one
``late_decision`` node, the one decision path of late and late_plus.
State and context come in as 2-D row blocks of equal row count, which one
check, ``_pair``, enforces for every head (a ``FusionError`` otherwise).
The text-only model scores its sentence states with one scorer,
``scorer_prob``.
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
    f_vals, g_vals = unimodal_decisions(state, ctx, head)
    F = head.F
    if F is not None:
        _check_input(2, F)
        F = (F.W1, F.b1, F.w2, F.b2)
    return ad.late_decision(f_vals, g_vals, F, beta, head.prose_weights)
