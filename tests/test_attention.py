import math

import numpy as np
import numpy.testing as npt
import pytest

from mmsum.attention import (AttentionParams, AttnSet, bihop_context, bilinear_scores,
                             concat_product_scores, context, frame_context,
                             last_state_context, sentence_context)
from mmsum.autodiff import Tensor
from mmsum.errors import AttentionError, BiHopUnavailable


def make_set(rng, dq=4, dk=4, da=3, mode="bilinear", zero_v=False):
    t = lambda shape: Tensor(rng.uniform(-0.5, 0.5, shape), True)
    v = Tensor(np.zeros(da), True) if zero_v else t((da,))
    if mode == "concat_product":
        return AttnSet(W_q=t((dq, da)), W_k=t((dk, da)), V=v, b_joint=t((da,)))
    return AttnSet(W_q=t((dq, da)), W_k=t((dk, da)), V=v, b_q=t((da,)), b_k=t((da,)))


def test_zero_score_vector_gives_uniform_weights(rng):
    aset = make_set(rng, mode="concat_product", zero_v=True)
    s, m = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4)))
    scores = concat_product_scores(s, m, aset)
    npt.assert_array_equal(scores.data, np.zeros((3, 5)))
    ctx = context(scores, m)
    npt.assert_allclose(ctx.weights.data, np.full((3, 5), 0.2), atol=1e-12)


def test_single_query_single_key_weight_is_one(rng):
    aset = make_set(rng, mode="concat_product")
    ctx = context(concat_product_scores(Tensor(rng.normal(size=(1, 4))),
                                        Tensor(rng.normal(size=(1, 4))), aset),
                  Tensor(rng.normal(size=(1, 4))))
    npt.assert_array_equal(ctx.weights.data, [[1.0]])


def test_concat_product_matches_hand_arithmetic(rng):
    aset = make_set(rng, dq=2, dk=2, da=2, mode="concat_product")
    s, m = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    scores = concat_product_scores(Tensor(s), Tensor(m), aset)
    expected = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            pre = s[i] @ aset.W_q.data + m[j] @ aset.W_k.data + aset.b_joint.data
            expected[i, j] = aset.V.data @ np.tanh(pre)
    npt.assert_allclose(scores.data, expected, atol=1e-12)


def test_bilinear_zero_query_projection_reduces_to_key_term(rng):
    # force r_i = 0 by zeroing W_q and b_q: e_ij = V . q_j
    aset = make_set(rng)
    aset.W_q.data[:] = 0.0
    aset.b_q.data[:] = 0.0
    s, m = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(2, 4)))
    scores = bilinear_scores(s, m, aset)
    q = np.tanh(m.data @ aset.W_k.data + aset.b_k.data)
    expected = np.tile(q @ aset.V.data, (3, 1))
    npt.assert_allclose(scores.data, expected, atol=1e-12)


def test_bilinear_is_symmetric_in_its_two_projections(rng):
    # e = V.(q*r + q + r) is symmetric under swapping the q and r operands
    aset = make_set(rng, dq=4, dk=4)
    swapped = AttnSet(W_q=aset.W_k, W_k=aset.W_q, V=aset.V,
                      b_q=aset.b_k, b_k=aset.b_q)
    s, m = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
    npt.assert_allclose(bilinear_scores(s, m, aset).data,
                        bilinear_scores(m, s, swapped).data.T, atol=1e-12)


def test_bilinear_scalar_toy(rng):
    aset = make_set(rng, dq=1, dk=1, da=1)
    s, m = Tensor([[0.7]]), Tensor([[-0.4]])
    r = math.tanh(0.7 * aset.W_q.data[0, 0] + aset.b_q.data[0])
    q = math.tanh(-0.4 * aset.W_k.data[0, 0] + aset.b_k.data[0])
    expected = aset.V.data[0] * (q * r + q + r)
    npt.assert_allclose(bilinear_scores(s, m, aset).data, [[expected]], atol=1e-12)


def test_context_uniform_scores_average_values():
    u, w = np.array([1.0, 2.0]), np.array([5.0, -3.0])
    ctx = context(Tensor(np.zeros((1, 2))), Tensor(np.stack([u, w])))
    npt.assert_allclose(ctx.contexts.data[0], (u + w) / 2, atol=1e-12)


def test_context_saturated_score_selects_dominant_value(rng):
    values = Tensor(rng.normal(size=(2, 3)))
    ctx = context(Tensor([[1e4, 0.0]]), values)
    npt.assert_allclose(ctx.contexts.data[0], values.data[0], atol=1e-6)


def test_softmax_log_ratio_weights():
    scores = Tensor([[0.0, math.log(2.0), math.log(4.0)]])
    ctx = context(scores, Tensor(np.eye(3)))
    npt.assert_allclose(ctx.weights.data[0], [1 / 7, 2 / 7, 4 / 7], atol=1e-12)


def test_context_rejects_zero_keys():
    with pytest.raises(AttentionError):
        context(Tensor(np.zeros((2, 0))), Tensor(np.zeros((0, 4))))


def test_bihop_single_transcript_token_collapses(rng):
    hop1, hop2 = make_set(rng), make_set(rng)
    s = Tensor(rng.normal(size=(3, 4)))
    t = Tensor(rng.normal(size=(1, 4)))
    m = Tensor(rng.normal(size=(5, 4)))
    ctx = bihop_context(s, t, m, hop1, hop2)
    npt.assert_array_equal(ctx.weights.data, np.ones((3, 1)))
    hop1_ctx = context(bilinear_scores(t, m, hop1), m)
    for i in range(3):
        npt.assert_allclose(ctx.contexts.data[i], hop1_ctx.contexts.data[0], atol=1e-12)


def test_bihop_single_frame_collapses_to_that_frame(rng):
    hop1, hop2 = make_set(rng), make_set(rng)
    s = Tensor(rng.normal(size=(2, 4)))
    t = Tensor(rng.normal(size=(3, 4)))
    m = Tensor(rng.normal(size=(1, 4)))
    ctx = bihop_context(s, t, m, hop1, hop2)
    for i in range(2):
        npt.assert_allclose(ctx.contexts.data[i], m.data[0], atol=1e-12)


def test_bihop_matches_hand_composition(rng):
    hop1, hop2 = make_set(rng), make_set(rng)
    s, t, m = (rng.normal(size=(2, 4)) for _ in range(3))

    def soft(e):
        x = np.exp(e - e.max(axis=1, keepdims=True))
        return x / x.sum(axis=1, keepdims=True)

    def bil(qs, ks, aset):
        r = np.tanh(qs @ aset.W_q.data + aset.b_q.data)
        q = np.tanh(ks @ aset.W_k.data + aset.b_k.data)
        return (r * aset.V.data) @ q.T + q @ aset.V.data + (r @ aset.V.data)[:, None]

    ct2m = soft(bil(t, m, hop1)) @ m
    expected = soft(bil(s, ct2m, hop2)) @ ct2m
    ctx = bihop_context(Tensor(s), Tensor(t), Tensor(m), hop1, hop2)
    npt.assert_allclose(ctx.contexts.data, expected, atol=1e-12)


def test_bihop_empty_transcript_raises(rng):
    hop1, hop2 = make_set(rng), make_set(rng)
    with pytest.raises(BiHopUnavailable):
        bihop_context(Tensor(np.zeros((2, 4))), Tensor(np.zeros((0, 4))),
                      Tensor(np.zeros((3, 4))), hop1, hop2)


def test_reverse_single_sentence_gives_that_sentence(rng):
    params = AttentionParams(mode="bihop", sent_query=make_set(rng),
                             frame_query=make_set(rng), tr_over_frames=make_set(rng),
                             tr_over_sents=make_set(rng))
    m = Tensor(rng.normal(size=(4, 4)))
    s = Tensor(rng.normal(size=(1, 4)))
    t = Tensor(rng.normal(size=(3, 4)))
    ctx = frame_context(params, m, s, t)
    for j in range(4):
        npt.assert_allclose(ctx.contexts.data[j], s.data[0], atol=1e-12)


def test_forward_and_reverse_weight_rows_normalized(rng):
    params = AttentionParams(mode="bilinear", sent_query=make_set(rng),
                             frame_query=make_set(rng))
    s, m = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4)))
    fwd = sentence_context(params, s, m, None)
    rev = frame_context(params, m, s, None)
    npt.assert_allclose(fwd.weights.data.sum(axis=1), np.ones(3), atol=1e-6)
    npt.assert_allclose(rev.weights.data.sum(axis=1), np.ones(5), atol=1e-6)
    assert np.all(fwd.weights.data >= 0) and np.all(rev.weights.data >= 0)


def test_reverse_bihop_hand_composition_2x2x2(rng):
    params = AttentionParams(mode="bihop", sent_query=make_set(rng),
                             frame_query=make_set(rng), tr_over_frames=make_set(rng),
                             tr_over_sents=make_set(rng))
    m, t, s = (Tensor(rng.normal(size=(2, 4))) for _ in range(3))
    expected = bihop_context(m, t, s, params.tr_over_sents, params.frame_query)
    got = frame_context(params, m, s, t)
    npt.assert_allclose(got.contexts.data, expected.contexts.data, atol=1e-12)


def test_none_mode_uses_last_state(rng):
    params = AttentionParams(mode="none")
    s, m = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4)))
    ctx = sentence_context(params, s, m, None)
    for i in range(3):
        npt.assert_array_equal(ctx.contexts.data[i], m.data[4])
    npt.assert_allclose(ctx.weights.data.sum(axis=1), np.ones(3))


def test_bihop_falls_back_to_single_hop_without_transcript(rng):
    params = AttentionParams(mode="bihop", sent_query=make_set(rng),
                             frame_query=make_set(rng), tr_over_frames=make_set(rng),
                             tr_over_sents=make_set(rng))
    s, m = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4)))
    for t in (None, Tensor(np.zeros((0, 4)))):
        for got, expected in (
                (sentence_context(params, s, m, t),
                 context(bilinear_scores(s, m, params.sent_query), m)),
                (frame_context(params, m, s, t),
                 context(bilinear_scores(m, s, params.frame_query), s))):
            npt.assert_array_equal(got.contexts.data, expected.contexts.data)
            npt.assert_array_equal(got.weights.data, expected.weights.data)


def test_row_shift_invariance(rng):
    scores = rng.normal(size=(4, 6))
    values = Tensor(rng.normal(size=(6, 3)))
    base = context(Tensor(scores), values)
    shifted = context(Tensor(scores + rng.normal(size=(4, 1))), values)
    npt.assert_allclose(base.weights.data, shifted.weights.data, atol=1e-6)


def test_context_linear_in_values(rng):
    scores = Tensor(rng.normal(size=(3, 4)))
    v1, v2 = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    combo = context(scores, Tensor(2.0 * v1 - 0.5 * v2)).contexts.data
    parts = (2.0 * context(scores, Tensor(v1)).contexts.data
             - 0.5 * context(scores, Tensor(v2)).contexts.data)
    npt.assert_allclose(combo, parts, atol=1e-10)


def test_dim_mismatch_raises(rng):
    aset = make_set(rng, dq=4, dk=4)
    with pytest.raises(AttentionError):
        bilinear_scores(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), aset)
