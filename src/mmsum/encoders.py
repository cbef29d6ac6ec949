"""Recurrent encoders: hierarchical article encoder (word then sentence
level), frame-sequence encoder over precomputed feature vectors, and the
transcript encoder. All four stacks are parameter-disjoint bidirectional
LSTMs sharing one embedding table for text."""
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
    word_states: list[Tensor]    # per sentence, (N_i, 2h)
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


def lstm_states(X: Tensor, W: Tensor, b: Tensor, hidden: int,
                reverse: bool = False) -> list[Tensor]:
    """Unidirectional pass over the rows of X; returns per-step hidden states
    in the original row order."""
    T = X.shape[0]
    steps = range(T - 1, -1, -1) if reverse else range(T)
    h = Tensor(np.zeros(hidden))
    c = Tensor(np.zeros(hidden))
    out: list[Tensor] = [None] * T  # type: ignore[list-item]
    for t in steps:
        z = ad.concat([X[t], h]) @ W + b
        i = ad.sigmoid(ad.slice1d(z, 0, hidden))
        f = ad.sigmoid(ad.slice1d(z, hidden, 2 * hidden))
        o = ad.sigmoid(ad.slice1d(z, 2 * hidden, 3 * hidden))
        g = ad.tanh(ad.slice1d(z, 3 * hidden, 4 * hidden))
        c = f * c + i * g
        h = o * ad.tanh(c)
        out[t] = h
    return out


def bilstm(X: Tensor, p: BiLSTM) -> Tensor:
    """(T, input_dim) -> (T, 2h): forward states beside backward states."""
    if X.shape[1] != p.input_dim:
        raise EncodeError(f"input dim {X.shape[1]} does not match encoder "
                          f"input dim {p.input_dim}")
    fw = lstm_states(X, p.fw_W, p.fw_b, p.hidden)
    bw = lstm_states(X, p.bw_W, p.bw_b, p.hidden, reverse=True)
    return ad.concat([ad.stack_rows(fw), ad.stack_rows(bw)], axis=1)


def encode_words(sentence_ids, enc: EncoderParams) -> Tensor:
    if len(sentence_ids) == 0:
        raise EncodeError("cannot encode an empty sentence")
    emb = ad.take_rows(enc.embedding, sentence_ids)
    return bilstm(emb, enc.word)


def encode_sentences(document, enc: EncoderParams) -> SentenceStates:
    word_states = [encode_words(ids, enc) for ids in document.sentences]
    pool = ad.tsum if enc.sum_pool else ad.tmean
    pooled = ad.stack_rows([pool(ws, axis=0) for ws in word_states])
    states = bilstm(pooled, enc.sentence)
    return SentenceStates(states=states, word_states=word_states, pooled=pooled)


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
