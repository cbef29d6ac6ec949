"""Recurrent encoders: hierarchical article encoder (word then sentence
level), frame-sequence encoder over precomputed feature vectors, and the
transcript encoder. All four stacks are parameter-disjoint bidirectional
LSTMs sharing one embedding table for text. Each BiLSTM is a single
``autodiff.bilstm_sequence`` tape node that runs both directions in one
recurrence loop, storing the reverse direction in its own step order. Input is
right-padded: the word encoder runs all sentences of a document as one
(NS, T_max, E) batch with their lengths, and its states are zero at padding,
where X gets no gradient and its values change nothing. Each encoder returns
its states as one Tensor, (N, 2h) per sentence, frame or transcript token; the
hidden size h is read off the LSTM bias, which is (4h,)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EncodeError

INIT_SCALE = 0.08


@dataclass
class BiLSTM:
    fw_W: Tensor   # (input_dim + h, 4h), gate order i|f|o|g
    fw_b: Tensor   # (4h,)
    bw_W: Tensor
    bw_b: Tensor

    @property
    def hidden(self):
        return self.fw_b.shape[0] // 4

    @property
    def input_dim(self):
        return self.fw_W.shape[0] - self.hidden


@dataclass
class EncoderParams:
    embedding: Tensor            # (V, E)
    word: BiLSTM
    sentence: BiLSTM
    frame: BiLSTM | None
    transcript: BiLSTM | None
    sum_pool: bool = False       # sentence pooling: sum instead of mean


def open_forget_gate(b: np.ndarray) -> np.ndarray:
    """Set the forget-gate slice of an LSTM bias (4h,) to 1.0 (in place) so
    memory is open early in training."""
    hidden = b.shape[0] // 4
    b[hidden:2 * hidden] = 1.0
    return b


def bilstm(X: Tensor, p: BiLSTM, lengths=None) -> Tensor:
    """(T, input_dim) -> (T, 2h): forward states beside backward states. A
    right-padded batch (B, T, input_dim) with its sequence lengths maps to
    (B, T, 2h), zero at padding."""
    if X.shape[-1] != p.input_dim:
        raise EncodeError(f"input dim {X.shape[-1]} does not match encoder "
                          f"input dim {p.input_dim}")
    single = X.ndim == 2
    if single:
        lengths = [X.shape[0]]
        X = ad.reshape(X, (1,) + X.shape)
    out = ad.bilstm_sequence(X, p.fw_W, p.fw_b, p.bw_W, p.bw_b, lengths)
    return ad.reshape(out, out.shape[1:]) if single else out


def encode_words(sentences, enc: EncoderParams) -> tuple[Tensor, np.ndarray]:
    """All sentences of a document as one right-padded batch: the word states
    (NS, T_max, 2h), zero at padding, and the sentence lengths (NS,)."""
    lengths = np.array([len(ids) for ids in sentences], dtype=np.intp)
    if lengths.size == 0:
        raise EncodeError("cannot encode a document without sentences")
    if lengths.min() == 0:
        raise EncodeError("cannot encode an empty sentence")
    ids = np.zeros((lengths.size, lengths.max()), dtype=np.intp)
    for row, sentence in zip(ids, sentences):
        row[:len(sentence)] = sentence
    emb = ad.take_rows(enc.embedding, ids)
    return bilstm(emb, enc.word, lengths), lengths


def encode_sentences(document, enc: EncoderParams) -> Tensor:
    """(NS, 2h) sentence states: the sentence BiLSTM over the mean (or, with
    ``sum_pool``, the sum) of each sentence's word states."""
    word_states, lengths = encode_words(document.sentences, enc)
    pooled = ad.tsum(word_states, axis=1)       # padding is zero
    if not enc.sum_pool:
        pooled = pooled * (1.0 / lengths[:, None])
    return bilstm(pooled, enc.sentence)


def encode_frames(frames, enc: EncoderParams) -> Tensor:
    if enc.frame is None:
        raise EncodeError("model was built without a frame encoder")
    X = ad.as_tensor(frames)
    if X.shape[0] < 1:
        raise EncodeError("need at least one frame")
    return bilstm(X, enc.frame)


def encode_transcript(token_ids, enc: EncoderParams) -> Tensor:
    if enc.transcript is None:
        raise EncodeError("model was built without a transcript encoder")
    if len(token_ids) == 0:
        return Tensor(np.zeros((0, 2 * enc.transcript.hidden)))
    return bilstm(ad.take_rows(enc.embedding, token_ids), enc.transcript)
