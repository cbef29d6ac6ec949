"""Recurrent encoders: hierarchical article encoder (word then sentence
level), frame-sequence encoder over precomputed feature vectors, and the
transcript encoder. All four stacks are parameter-disjoint bidirectional
LSTMs sharing one embedding table for text. Each direction is a single
``autodiff.lstm_sequence`` node; the word encoder runs all sentences of a
document as one right-padded batch."""
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
    hidden: int

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
    hidden: int
    sum_pool: bool = False       # sentence pooling: sum instead of mean


@dataclass
class SentenceStates:
    states: Tensor               # (NS, 2h)
    word_states: Tensor          # (NS, T_max, 2h), zero at padding
    lengths: np.ndarray          # (NS,) tokens per sentence
    pooled: Tensor               # (NS, 2h)


@dataclass
class FrameStates:
    states: Tensor               # (NM, 2h)


@dataclass
class TranscriptStates:
    states: Tensor               # (NT, 2h)


def open_forget_gate(b: np.ndarray, hidden: int) -> np.ndarray:
    """Set the forget-gate slice of an LSTM bias to 1.0 (in place) so memory
    is open early in training."""
    b[hidden:2 * hidden] = 1.0
    return b


def init_lstm_direction(rng, input_dim: int, hidden: int, scale: float = INIT_SCALE):
    """Uniform init of one direction, then the forget-gate opening."""
    w = rng.uniform(-scale, scale, size=(input_dim + hidden, 4 * hidden))
    b = rng.uniform(-scale, scale, size=(4 * hidden,))
    return w, open_forget_gate(b, hidden)


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
    fw = ad.lstm_sequence(X, p.fw_W, p.fw_b, p.hidden, lengths)
    bw = ad.lstm_sequence(X, p.bw_W, p.bw_b, p.hidden, lengths, reverse=True)
    out = ad.concat([fw, bw], axis=2)
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


def encode_sentences(document, enc: EncoderParams) -> SentenceStates:
    word_states, lengths = encode_words(document.sentences, enc)
    pooled = ad.tsum(word_states, axis=1)       # padding is zero
    if not enc.sum_pool:
        pooled = pooled * (1.0 / lengths[:, None])
    states = bilstm(pooled, enc.sentence)
    return SentenceStates(states=states, word_states=word_states, lengths=lengths,
                          pooled=pooled)


def encode_frames(frames, enc: EncoderParams) -> FrameStates:
    if enc.frame is None:
        raise EncodeError("model was built without a frame encoder")
    X = ad.as_tensor(frames)
    if X.shape[0] < 1:
        raise EncodeError("need at least one frame")
    if X.shape[1] != enc.frame.input_dim:
        raise EncodeError(f"frame feature dim {X.shape[1]} does not match "
                          f"encoder input dim {enc.frame.input_dim}")
    return FrameStates(states=bilstm(X, enc.frame))


def encode_transcript(token_ids, enc: EncoderParams) -> TranscriptStates:
    if enc.transcript is None:
        raise EncodeError("model was built without a transcript encoder")
    if len(token_ids) == 0:
        return TranscriptStates(states=Tensor(np.zeros((0, 2 * enc.hidden))))
    emb = ad.take_rows(enc.embedding, token_ids)
    return TranscriptStates(states=bilstm(emb, enc.transcript))
