import numpy as np
import numpy.testing as npt
import pytest

import composed_ops as ops
from conftest import tiny_config
from mmsum import autodiff as ad
from mmsum.autodiff import Tensor
from mmsum.data import Document, Sample, Transcript
from mmsum.encoders import (INIT_SCALE, BiLSTM, EncoderParams, bilstm, encode_frames,
                            encode_sample,
                            encode_sentences, encode_transcript, encode_words,
                            open_forget_gate)
from mmsum.errors import EncodeError
from mmsum.model import SummarizerModel, build_parameters


def init_lstm_direction(rng, input_dim, hidden, scale=INIT_SCALE):
    """Uniform init of one direction, then the forget-gate opening."""
    w = rng.uniform(-scale, scale, size=(input_dim + hidden, 4 * hidden))
    b = rng.uniform(-scale, scale, size=(4 * hidden,))
    return w, open_forget_gate(b)


def make_bilstm(rng, input_dim, hidden, zero=False):
    if zero:
        fw = (np.zeros((input_dim + hidden, 4 * hidden)), np.zeros(4 * hidden))
        bw = (np.zeros((input_dim + hidden, 4 * hidden)), np.zeros(4 * hidden))
    else:
        fw = init_lstm_direction(rng, input_dim, hidden)
        bw = init_lstm_direction(rng, input_dim, hidden)
    return BiLSTM(fw_W=Tensor(fw[0], True), fw_b=Tensor(fw[1], True),
                  bw_W=Tensor(bw[0], True), bw_b=Tensor(bw[1], True))


def make_encoder(rng, vocab=9, embed=3, hidden=4, feature_dim=5, zero_word=False):
    emb = np.zeros((vocab, embed)) if zero_word else rng.uniform(-0.5, 0.5, (vocab, embed))
    return EncoderParams(
        embedding=Tensor(emb, True),
        word=make_bilstm(rng, embed, hidden, zero=zero_word),
        sentence=make_bilstm(rng, 2 * hidden, hidden),
        frame=make_bilstm(rng, feature_dim, hidden),
        transcript=make_bilstm(rng, embed, hidden),
    )


def hand_lstm_step(x, h, c, W, b, hidden):
    """Reference cell: gate order i|f|o|g, c' = f*c + i*g, h' = o*tanh(c')."""
    z = np.concatenate([x, h]) @ W + b
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f, o = sig(z[:hidden]), sig(z[hidden:2 * hidden]), sig(z[2 * hidden:3 * hidden])
    g = np.tanh(z[3 * hidden:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def lstm_states_reference(X, W, b, hidden, reverse=False):
    """One LSTM direction as a per-step tape composition, about ten nodes per
    timestep, over the rows of a (T, D) input; returns (T, h)."""
    T = X.shape[0]
    steps = range(T - 1, -1, -1) if reverse else range(T)
    gate = [np.arange(k * hidden, (k + 1) * hidden) for k in range(4)]
    h = Tensor(np.zeros(hidden))
    c = Tensor(np.zeros(hidden))
    out = [None] * T
    for t in steps:
        z = ops.matmul(ad.concat([ad.take_rows(X, t), h]), W) + b
        i = ops.sigmoid(ad.take_rows(z, gate[0]))
        f = ops.sigmoid(ad.take_rows(z, gate[1]))
        o = ops.sigmoid(ad.take_rows(z, gate[2]))
        g = ops.tanh(ad.take_rows(z, gate[3]))
        c = f * c + i * g
        h = o * ops.tanh(c)
        out[t] = ad.reshape(h, (1, hidden))
    return ad.concat(out, axis=0)


def assert_bilstm_matches_reference(rng, lengths, D, h, directions=(0, 1)):
    """``ad.bilstm_sequence`` against ``lstm_states_reference`` run per
    sequence and direction, with the upstream gradient on the output halves of
    ``directions`` (0 forward, 1 reverse): outputs and the X, W and b
    gradients of both directions agree within 1e-12, and padding gets zero
    output and zero gradient."""
    B, T = len(lengths), max(lengths)
    x = rng.normal(size=(B, T, D))
    data = [a for _ in range(2) for a in init_lstm_direction(rng, D, h, scale=0.5)]
    upstream = rng.normal(size=(B, T, 2 * h))
    for d in {0, 1} - set(directions):
        upstream[:, :, d * h:(d + 1) * h] = 0.0

    X, params = Tensor(x, True), [Tensor(a, True) for a in data]
    out = ad.bilstm_sequence(X, *params, lengths)
    ad.backward(ad.tsum(out * upstream))

    refs = [Tensor(a, True) for a in data]
    for k, n in enumerate(lengths):
        X_ref = Tensor(x[k, :n], True)
        ref = ad.concat([lstm_states_reference(X_ref, refs[2 * d], refs[2 * d + 1], h,
                                               reverse=d == 1) for d in (0, 1)], axis=1)
        ad.backward(ad.tsum(ref * upstream[k, :n]))
        npt.assert_allclose(out.data[k, :n], ref.data, rtol=0, atol=1e-12)
        npt.assert_allclose(X.grad[k, :n], X_ref.grad, rtol=0, atol=1e-12)
        # padding: zero output, and no gradient although upstream sends some
        npt.assert_array_equal(out.data[k, n:], 0.0)
        npt.assert_array_equal(X.grad[k, n:], 0.0)
    for p, p_ref in zip(params, refs):
        npt.assert_allclose(p.grad, p_ref.grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lengths", [[1, 5, 3, 5, 1, 2], [4, 4]], ids=["ragged", "full"])
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_matches_per_step_reference(rng, reverse, lengths):
    """Each direction of ``bilstm_sequence`` on its own: the upstream gradient
    reaches only the forward half, or with ``reverse`` only the reverse half."""
    assert_bilstm_matches_reference(rng, lengths, D=3, h=4, directions=(int(reverse),))


@pytest.mark.parametrize("lengths,h", [([1, 1, 1], 4), ([5], 4), ([1, 1, 6, 1, 1], 4),
                                       ([3, 1, 2], 1), ([4, 4], 3)],
                         ids=["T=1", "B=1", "all-but-one-length-1", "h=1", "full"])
def test_bilstm_sequence_matches_per_step_reference(rng, lengths, h):
    assert_bilstm_matches_reference(rng, lengths, D=3, h=h)


def test_padded_sentences_encode_as_if_alone(rng):
    enc = make_encoder(rng)
    sentences = [np.array([1, 2, 3]), np.array([4]), np.array([5, 6])]
    states, lengths = encode_words(sentences, enc)
    npt.assert_array_equal(lengths, [3, 1, 2])
    for k, ids in enumerate(sentences):
        alone, _ = encode_words([ids], enc)
        npt.assert_allclose(states.data[k, :len(ids)], alone.data[0], rtol=0, atol=1e-12)
        npt.assert_array_equal(states.data[k, len(ids):], 0.0)


def test_padding_sends_no_gradient_to_the_pad_row(rng):
    enc = make_encoder(rng)
    # no sentence uses id 0, the row the padding gathers
    states, _ = encode_words([np.array([1, 2, 3, 4]), np.array([5]), np.array([6, 7])],
                             enc)
    ad.backward(ad.tsum(states * rng.normal(size=states.shape)))
    npt.assert_array_equal(enc.embedding.grad[0], 0.0)
    assert np.all(enc.embedding.grad[1:8] != 0.0)


def test_word_states_shape_h64(rng):
    enc = make_encoder(rng, hidden=64)
    out, lengths = encode_words([np.array([1, 2, 3, 4, 5])], enc)
    assert out.shape == (1, 5, 128)
    npt.assert_array_equal(lengths, [5])


def test_single_token_sentence_uses_same_input_both_directions(rng):
    enc = make_encoder(rng)
    h = enc.word.hidden
    x = enc.embedding.data[3]
    fw, _ = hand_lstm_step(x, np.zeros(h), np.zeros(h),
                           enc.word.fw_W.data, enc.word.fw_b.data, h)
    bw, _ = hand_lstm_step(x, np.zeros(h), np.zeros(h),
                           enc.word.bw_W.data, enc.word.bw_b.data, h)
    out, _ = encode_words([np.array([3])], enc)
    assert out.shape == (1, 1, 2 * h)
    npt.assert_allclose(out.data[0, 0], np.concatenate([fw, bw]), atol=1e-12)
    # padded beside a longer sentence, the backward pass still starts at its token
    out, _ = encode_words([np.array([1, 2, 4]), np.array([3])], enc)
    npt.assert_allclose(out.data[1, 0], np.concatenate([fw, bw]), atol=1e-12)


def test_zero_parameters_hit_hand_stepped_fixed_point(rng):
    enc = make_encoder(rng, zero_word=True)
    out, _ = encode_words([np.array([0, 1]), np.array([2])], enc)
    # all gates sigmoid(0)=0.5, candidate tanh(0)=0 -> c=0, h=0.5*tanh(0)=0
    npt.assert_array_equal(out.data, np.zeros((2, 2, 2 * enc.word.hidden)))


def test_empty_sentence_raises(rng):
    enc = make_encoder(rng)
    with pytest.raises(EncodeError):
        encode_words([np.array([], dtype=int)], enc)
    with pytest.raises(EncodeError):
        encode_words([np.array([1, 2]), np.array([], dtype=int)], enc)


def test_document_without_sentences_raises(rng):
    enc = make_encoder(rng)
    with pytest.raises(EncodeError):
        encode_sentences(Document(sentences=[], raw_sentences=[], id="x"), enc)


def test_sentence_states_shape(rng):
    enc = make_encoder(rng)
    doc = Document(sentences=[np.array([1, 2]), np.array([3]), np.array([4, 5, 6])],
                   raw_sentences=["a b", "c", "d e f"], id="x")
    assert encode_sentences(doc, enc).shape == (3, 2 * enc.word.hidden)


def pooled_reference(enc, doc, pool):
    """The sentence BiLSTM's input, pooled in numpy from ``encode_words``."""
    word_states, lengths = encode_words(doc.sentences, enc)
    return np.array([pool(word_states.data[k, :n], axis=0) for k, n in enumerate(lengths)])


def assert_sentence_states_pool(enc, doc, pool):
    """``encode_sentences`` equals the sentence BiLSTM over ``pool`` of each
    sentence's word states."""
    expected = bilstm(Tensor(pooled_reference(enc, doc, pool)), enc.sentence)
    npt.assert_allclose(encode_sentences(doc, enc).data, expected.data, atol=1e-12)


def test_identical_sentences_pool_identically(rng):
    enc = make_encoder(rng)
    doc = Document(sentences=[np.array([1, 2, 3])] * 3,
                   raw_sentences=["a b c"] * 3, id="x")
    pooled = pooled_reference(enc, doc, np.mean)
    npt.assert_array_equal(pooled[0], pooled[1])
    npt.assert_array_equal(pooled[0], pooled[2])
    assert_sentence_states_pool(enc, doc, np.mean)


RAGGED_DOC = Document(sentences=[np.array([1, 5, 2, 7]), np.array([3]), np.array([8, 4])],
                      raw_sentences=["w x y z", "a", "b c"], id="x")


def test_mean_pooling_is_word_state_mean(rng):
    assert_sentence_states_pool(make_encoder(rng), RAGGED_DOC, np.mean)


def test_mean_pool_is_permutation_invariant_over_rows(rng):
    states = rng.normal(size=(5, 6))
    perm = rng.permutation(5)
    npt.assert_allclose(states.mean(axis=0), states[perm].mean(axis=0), atol=1e-12)


def test_sum_pooling_variant(rng):
    enc = make_encoder(rng)
    enc.sum_pool = True
    assert_sentence_states_pool(enc, RAGGED_DOC, np.sum)


def test_two_sentence_hand_unrolled_bidirectional_recurrence(rng):
    """h=1 toy: the sentence-level pass must match stepping the cell by hand."""
    h = 1
    enc = make_encoder(rng, hidden=h)
    doc = Document(sentences=[np.array([1, 2]), np.array([3])],
                   raw_sentences=["a b", "c"], id="x")
    ap = pooled_reference(enc, doc, np.mean)
    p = enc.sentence
    h0, c0 = np.zeros(h), np.zeros(h)
    f1, cf1 = hand_lstm_step(ap[0], h0, c0, p.fw_W.data, p.fw_b.data, h)
    f2, _ = hand_lstm_step(ap[1], f1, cf1, p.fw_W.data, p.fw_b.data, h)
    b2, cb2 = hand_lstm_step(ap[1], h0, c0, p.bw_W.data, p.bw_b.data, h)
    b1, _ = hand_lstm_step(ap[0], b2, cb2, p.bw_W.data, p.bw_b.data, h)
    expected = np.array([np.concatenate([f1, b1]), np.concatenate([f2, b2])])
    npt.assert_allclose(encode_sentences(doc, enc).data, expected, atol=1e-12)


def test_frame_states_shape(rng):
    enc = make_encoder(rng, feature_dim=16, hidden=64)
    out = encode_frames(rng.normal(size=(8, 16)), enc)
    assert out.shape == (8, 128)


def test_reversed_frames_swap_direction_halves(rng):
    # with tied direction weights, feeding the frames reversed must exactly
    # swap the forward/backward halves of the reversed-read state matrix
    enc = make_encoder(rng, feature_dim=5)
    enc.frame.bw_W, enc.frame.bw_b = enc.frame.fw_W, enc.frame.fw_b
    frames = rng.normal(size=(6, 5))
    h = enc.word.hidden
    fwd = encode_frames(frames, enc).data
    rev = encode_frames(frames[::-1], enc).data
    npt.assert_allclose(rev[::-1, h:], fwd[:, :h], atol=1e-12)
    npt.assert_allclose(rev[::-1, :h], fwd[:, h:], atol=1e-12)


def test_single_frame(rng):
    enc = make_encoder(rng, feature_dim=5)
    out = encode_frames(rng.normal(size=(1, 5)), enc)
    assert out.shape == (1, 2 * enc.word.hidden)


def test_frame_dim_mismatch(rng):
    enc = make_encoder(rng, feature_dim=5)
    with pytest.raises(EncodeError):
        encode_frames(rng.normal(size=(4, 7)), enc)


def test_transcript_states_shape(rng):
    enc = make_encoder(rng)
    out = encode_transcript(np.arange(12) % 9, enc)
    assert out.shape == (12, 2 * enc.word.hidden)


def test_empty_transcript_gives_empty_states(rng):
    enc = make_encoder(rng)
    out = encode_transcript(np.array([], dtype=int), enc)
    assert out.shape == (0, 2 * enc.word.hidden)


def test_transcript_stack_is_parameter_disjoint_from_word_stack(rng):
    enc = make_encoder(rng)
    ids = np.array([1, 2, 3])
    word = encode_words([ids], enc)[0].data[0]
    tr = encode_transcript(ids, enc).data
    assert not np.allclose(word, tr)
    enc.transcript = enc.word  # tie the stacks -> identical states
    npt.assert_array_equal(encode_transcript(ids, enc).data, word)


def test_forget_gate_bias_initialized_to_one(rng):
    cfg = tiny_config(hidden=4)
    params = build_parameters(cfg, vocab_size=9, rng=rng)
    lstm_biases = {k for k in params if k.startswith("encoders/") and k.endswith("_b")}
    assert len(lstm_biases) == 8
    for name, arr in params.items():
        if name in lstm_biases:
            npt.assert_array_equal(arr[4:8], np.ones(4))
            arr = np.delete(arr, np.s_[4:8])
        assert np.all(np.abs(arr) <= INIT_SCALE)


def test_bilstm_second_dim_is_always_2h(rng):
    for h in (1, 2, 5):
        p = make_bilstm(rng, 3, h)
        assert (p.hidden, p.input_dim) == (h, 3)
        out = bilstm(Tensor(rng.normal(size=(4, 3))), p)
        assert out.shape == (4, 2 * h)


# name -> (config overrides, sentence lengths, frames, transcript tokens)
SAMPLE_SHAPES = {
    "bihop": (dict(), [3, 5, 2], 4, 6),
    "empty-transcript": (dict(), [3, 5, 2], 4, 0),
    "one-sentence-one-frame": (dict(), [4], 1, 3),
    "frames-without-transcript": (dict(attention="bilinear"), [3, 5, 2], 4, 6),
    "text-only": (dict(use_frames=False), [3, 5, 2], 4, 6),
}


def _encoded_sample(shape, seed=0):
    """``encode_sample`` at one of SAMPLE_SHAPES, its states beside
    ``encode_sentences``, ``encode_frames`` and ``encode_transcript`` run
    alone, and every parameter gradient after a backward from the model's
    probabilities, whose consumers set the order in which backward runs the
    encoders."""
    overrides, lengths, n_frames, n_tokens = SAMPLE_SHAPES[shape]
    rng = np.random.default_rng(seed)
    cfg = tiny_config(hidden=3, embed_dim=4, feature_dim=5, **overrides)
    model = SummarizerModel(build_parameters(cfg, 9, rng), cfg, 9)
    sample = Sample(document=Document(sentences=[rng.integers(0, 9, size=n) for n in lengths],
                                      raw_sentences=["x"] * len(lengths), id="s"),
                    frames=rng.normal(size=(n_frames, 5)),
                    transcript=Transcript(tokens=rng.integers(0, 9, size=n_tokens),
                                          raw_text="x"),
                    gold_summary=["x"])
    enc = model.encoder
    states = encode_sample(sample, enc)
    alone = [encode_sentences(sample.document, enc),
             None if enc.frame is None else encode_frames(sample.frames, enc),
             None if enc.transcript is None
             else encode_transcript(sample.transcript.tokens, enc)]
    out = model.forward(sample)
    loss = ad.tsum(out.sent_probs * rng.normal(size=len(lengths)))
    if out.frame_probs is not None:
        loss = loss + ad.tsum(out.frame_probs * rng.normal(size=n_frames))
    ad.backward(loss)
    grads = {name: None if p.grad is None else p.grad.tobytes()
             for name, p in model.params.items()}
    return states, alone, grads


@pytest.mark.parametrize("shape", SAMPLE_SHAPES)
def test_encode_sample_is_the_encoders_run_alone(shape):
    """The one node over a sample's sentence, frame and transcript sequences
    gives each the states its own encoder gives."""
    states, alone, _ = _encoded_sample(shape)
    for t, ref in zip(states, alone):
        assert (t is None) == (ref is None)
        if t is not None:
            assert t.shape == ref.shape
            assert t.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("shape", SAMPLE_SHAPES)
def test_encode_sample_gradients_are_bytewise_one_oracle_node_per_encoder(
        shape, monkeypatch):
    """States and, through the model, every gradient of ``encode_sample``
    equal, byte for byte, those of one oracle BiLSTM node per encoder."""
    fused = _encoded_sample(shape)
    with monkeypatch.context() as m:
        ops.use_compositions(m)
        composed = _encoded_sample(shape)
    assert [None if t is None else t.data.tobytes() for t in fused[0]] == [
        None if t is None else t.data.tobytes() for t in composed[0]]
    assert fused[2] == composed[2]
