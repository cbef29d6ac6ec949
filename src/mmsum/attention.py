"""Cross-modal alignment.

Three score functions over query states Q and key states K:

* additive ("concat_product"):  e_ij = v . tanh(Wq q_i + Wk k_j + b)
* gated-projection ("bilinear"): q'_j = tanh(Wk k_j + bk), r_i = tanh(Wq q_i + bq),
  e_ij = v . (q'_j * r_i + q'_j + r_i)   (Hadamard interaction plus both projections)
* "bihop": two chained bilinear passes bridged by the transcript -
  transcript attends over frames, then sentences attend over the resulting
  transcript contexts. The reversed direction mirrors this with frames as
  queries and sentence states as the final values.

"none" skips alignment and uses the last value state as the context for
every query. "bihop" without a transcript (None or no rows) is one bilinear
pass with the hop-2 set. Weight rows always softmax-normalize to 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import AttentionError, BiHopUnavailable


@dataclass
class AttnSet:
    W_q: Tensor                 # (query_dim, d_a)
    W_k: Tensor                 # (key_dim, d_a)
    V: Tensor                   # (d_a,)
    b_q: Tensor | None = None   # bilinear only
    b_k: Tensor | None = None   # bilinear only
    b_joint: Tensor | None = None  # additive only


@dataclass
class AttentionParams:
    mode: str
    sent_query: AttnSet | None = None      # sentence queries (hop 2 for bihop)
    frame_query: AttnSet | None = None     # frame queries (reversed branch)
    tr_over_frames: AttnSet | None = None  # bihop hop 1, forward
    tr_over_sents: AttnSet | None = None   # bihop hop 1, reversed


@dataclass
class AttentionContext:
    contexts: Tensor   # (NQ, D_ctx)
    weights: Tensor    # (NQ, NK), rows sum to 1


def _check_dims(states: Tensor, W: Tensor, what: str):
    if states.shape[1] != W.shape[0]:
        raise AttentionError(
            f"{what} dim {states.shape[1]} does not match projection rows {W.shape[0]}")


def concat_product_scores(q_states: Tensor, k_states: Tensor, aset: AttnSet) -> Tensor:
    _check_dims(q_states, aset.W_q, "query")
    _check_dims(k_states, aset.W_k, "key")
    nq, nk = q_states.shape[0], k_states.shape[0]
    a = ad.reshape(q_states @ aset.W_q, (nq, 1, -1))
    b = ad.reshape(k_states @ aset.W_k, (1, nk, -1))
    return ad.tanh(a + b + aset.b_joint) @ aset.V     # (NQ, NK, d_a) @ (d_a,)


def bilinear_scores(q_states: Tensor, k_states: Tensor, aset: AttnSet) -> Tensor:
    _check_dims(q_states, aset.W_q, "query")
    _check_dims(k_states, aset.W_k, "key")
    r = ad.tanh(q_states @ aset.W_q + aset.b_q)    # (NQ, d_a)
    q = ad.tanh(k_states @ aset.W_k + aset.b_k)    # (NK, d_a)
    interaction = (r * aset.V) @ ad.transpose(q)   # sum_d V_d * r_id * q_jd
    nq = q_states.shape[0]
    return interaction + (q @ aset.V) + ad.reshape(r @ aset.V, (nq, 1))


def context(scores: Tensor, values: Tensor) -> AttentionContext:
    """Row-softmax the scores and take the weighted sum of value states."""
    if values.shape[0] == 0:
        raise AttentionError("cannot attend over zero keys")
    if scores.shape[1] != values.shape[0]:
        raise AttentionError(
            f"score columns {scores.shape[1]} != value rows {values.shape[0]}")
    weights = ad.softmax_rows(scores)
    return AttentionContext(contexts=weights @ values, weights=weights)


def last_state_context(values: Tensor, n_queries: int) -> AttentionContext:
    """No-alignment variant: every query gets the final value state."""
    nk = values.shape[0]
    if nk == 0:
        raise AttentionError("cannot attend over zero keys")
    w = np.zeros((n_queries, nk))
    w[:, nk - 1] = 1.0
    return AttentionContext(contexts=ad.take_rows(values, [nk - 1] * n_queries),
                            weights=Tensor(w))


def bihop_context(q_states: Tensor, t_states: Tensor, v_states: Tensor,
                  hop1: AttnSet, hop2: AttnSet) -> AttentionContext:
    """Transcript attends over the value states, then the queries attend over
    those transcript contexts."""
    if t_states is None or t_states.shape[0] == 0:
        raise BiHopUnavailable("bi-hop attention needs a nonempty transcript")
    hop1_ctx = context(bilinear_scores(t_states, v_states, hop1), v_states)
    hop2_scores = bilinear_scores(q_states, hop1_ctx.contexts, hop2)
    return context(hop2_scores, hop1_ctx.contexts)


def _directional_context(mode: str, q_states: Tensor, v_states: Tensor,
                         t_states: Tensor | None, single: AttnSet | None,
                         hop1: AttnSet | None) -> AttentionContext:
    nq = q_states.shape[0]
    if mode == "none":
        return last_state_context(v_states, nq)
    if mode == "concat_product":
        return context(concat_product_scores(q_states, v_states, single), v_states)
    if mode == "bihop" and t_states is not None and t_states.shape[0] > 0:
        return bihop_context(q_states, t_states, v_states, hop1, single)
    if mode in ("bilinear", "bihop"):
        # bihop without a transcript: one hop, the hop-2 set over the values
        return context(bilinear_scores(q_states, v_states, single), v_states)
    raise AttentionError(f"unknown attention mode '{mode}'")


def sentence_context(params: AttentionParams, s_states: Tensor, m_states: Tensor,
                     t_states: Tensor | None) -> AttentionContext:
    """Per-sentence context over the frames (through the transcript in bihop)."""
    return _directional_context(params.mode, s_states, m_states, t_states,
                                params.sent_query, params.tr_over_frames)


def frame_context(params: AttentionParams, m_states: Tensor, s_states: Tensor,
                  t_states: Tensor | None) -> AttentionContext:
    """Per-frame context over the sentences (reversed direction)."""
    return _directional_context(params.mode, m_states, s_states, t_states,
                                params.frame_query, params.tr_over_sents)
