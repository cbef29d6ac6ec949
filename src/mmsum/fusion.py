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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def scorer_prob(X: Tensor, p: ScorerParams) -> Tensor:
    """(N, d_in) -> (N,) probabilities via tanh hidden layer + sigmoid."""
    if X.shape[1] != p.W1.shape[0]:
        raise FusionError(f"scorer input dim {X.shape[1]} does not match "
                          f"weight rows {p.W1.shape[0]}")
    h = ad.tanh(X @ p.W1 + p.b1)
    return ad.sigmoid(h @ p.w2 + p.b2)


def _pair(state, ctx) -> tuple[Tensor, Tensor]:
    """State and context as row blocks (a vector is one row) of equal length."""
    S, C = (ad.as_tensor(x) for x in (state, ctx))
    S, C = (ad.reshape(t, (1, t.shape[0])) if t.ndim == 1 else t for t in (S, C))
    if S.shape[0] != C.shape[0]:
        raise FusionError("state and context row counts differ")
    return S, C


def fuse_early(state, ctx, head: FusionHead) -> Tensor:
    S, C = _pair(state, ctx)
    return scorer_prob(ad.concat([S, C], axis=1), head.joint)


def fuse_tensor(state, ctx, head: FusionHead) -> Tensor:
    S, C = _pair(state, ctx)
    # row i is the outer product [S[i];1] (x) [C[i];1] flattened, as one
    # broadcast product
    n = S.shape[0]
    one = Tensor(np.ones((n, 1)))
    s1 = ad.reshape(ad.concat([S, one], axis=1), (n, -1, 1))
    c1 = ad.reshape(ad.concat([C, one], axis=1), (n, 1, -1))
    return scorer_prob(ad.reshape(s1 * c1, (n, -1)), head.joint)


def unimodal_decisions(state, ctx, head: FusionHead):
    S, C = _pair(state, ctx)
    return scorer_prob(S, head.f), scorer_prob(C, head.g)


def _decide(f_vals: Tensor, g_vals: Tensor, head: FusionHead) -> Tensor:
    n = f_vals.shape[0]
    pair = ad.concat([ad.reshape(f_vals, (n, 1)), ad.reshape(g_vals, (n, 1))], axis=1)
    if head.F is None:
        return ad.tmean(pair, axis=1)
    return scorer_prob(pair, head.F)


def fuse_late(state, ctx, head: FusionHead) -> Tensor:
    f_vals, g_vals = unimodal_decisions(state, ctx, head)
    return _decide(f_vals, g_vals, head)


def fuse_late_plus(state, ctx, head: FusionHead) -> Tensor:
    if head.beta < 0:
        raise FusionError(f"beta must be >= 0, got {head.beta}")
    f_vals, g_vals = unimodal_decisions(state, ctx, head)
    if head.prose_weights:
        w_s = f_vals ** head.beta
        w_c = g_vals ** head.beta
    else:
        w_s = (1.0 - g_vals) ** head.beta
        w_c = (1.0 - f_vals) ** head.beta
    return _decide(w_s * f_vals, w_c * g_vals, head)


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
