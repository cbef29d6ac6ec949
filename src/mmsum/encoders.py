"""Recurrent encoders: hierarchical article encoder (word then sentence
level), frame-sequence encoder over precomputed feature vectors, and the
transcript encoder. All four stacks are parameter-disjoint bidirectional
LSTMs sharing one embedding table for text. The word BiLSTM is a single
``autodiff.bilstm_sequences`` tape node that runs both directions in one
recurrence loop, storing the reverse direction in its own step order. Input is
right-padded: the word encoder runs all sentences of a document as one
(NS, T_max, E) batch with their lengths, and its states are zero at padding,
where X gets no gradient and its values change nothing. One
``autodiff.mean_pool`` node pools each sentence's word states. The sentence,
frame and transcript BiLSTMs each run one sequence, and once the word states
are pooled none needs another's output, so ``encode_sample`` runs the three
as the groups of one such node, in one step loop. Each encoder returns its
states as one Tensor, (N, 2h) per sentence, frame or transcript token; the
hidden size h is read off the LSTM bias, which is (4h,)."""
from __future__ import annotations

from concurrent import futures
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


def _group(X, p: BiLSTM, lengths=None) -> tuple:
    """One ``autodiff.bilstm_sequences`` group: X run by the BiLSTM ``p``."""
    if X.shape[-1] != p.input_dim:
        raise EncodeError(f"input dim {X.shape[-1]} does not match encoder "
                          f"input dim {p.input_dim}")
    return X, p.fw_W, p.fw_b, p.bw_W, p.bw_b, lengths


def bilstm(X: Tensor, p: BiLSTM, lengths=None) -> Tensor:
    """(T, input_dim) -> (T, 2h): forward states beside backward states. A
    right-padded batch (B, T, input_dim) with its sequence lengths maps to
    (B, T, 2h), zero at padding."""
    return ad.bilstm_sequences([_group(X, p, lengths)])[0]


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


def _pooled_words(document, enc: EncoderParams) -> Tensor:
    """The sentence BiLSTM's input: the mean (or, with ``sum_pool``, the sum)
    of each sentence's word states."""
    word_states, lengths = encode_words(document.sentences, enc)
    return ad.mean_pool(word_states, lengths, mean=not enc.sum_pool)


def _frame_input(frames, enc: EncoderParams) -> Tensor:
    if enc.frame is None:
        raise EncodeError("model was built without a frame encoder")
    X = ad.as_tensor(frames)
    if X.shape[0] < 1:
        raise EncodeError("need at least one frame")
    return X


def _transcript_input(token_ids, enc: EncoderParams) -> Tensor | None:
    """The transcript's embeddings, or None for an empty transcript."""
    if enc.transcript is None:
        raise EncodeError("model was built without a transcript encoder")
    if len(token_ids) == 0:
        return None
    return ad.take_rows(enc.embedding, token_ids)


def _no_states(p: BiLSTM) -> Tensor:
    return Tensor(np.zeros((0, 2 * p.hidden)))


def encode_sentences(document, enc: EncoderParams) -> Tensor:
    """(NS, 2h) sentence states: the sentence BiLSTM over the pooled word
    states of each sentence."""
    return bilstm(_pooled_words(document, enc), enc.sentence)


def encode_frames(frames, enc: EncoderParams) -> Tensor:
    return bilstm(_frame_input(frames, enc), enc.frame)


def encode_transcript(token_ids, enc: EncoderParams) -> Tensor:
    X = _transcript_input(token_ids, enc)
    return _no_states(enc.transcript) if X is None else bilstm(X, enc.transcript)


def encode_sample(sample, enc: EncoderParams) -> tuple[Tensor, Tensor | None,
                                                       Tensor | None]:
    """The sentence, frame and transcript states of a sample, as
    ``encode_sentences``, ``encode_frames`` and ``encode_transcript`` give
    them, from one BiLSTM node over the three sequences (after the word
    batch's own). Frame and transcript states are None when the model has no
    such encoder; an empty transcript has (0, 2h) states and no group. The
    frame group's input GEMMs start first, on the worker when they pay, and
    run beside the word BiLSTM; nothing is left running on a raise."""
    frame = ()
    if enc.frame is not None:
        frame = ad.start_projection(_group(_frame_input(sample.frames, enc), enc.frame))
    try:
        groups = {"sentence": _group(_pooled_words(sample.document, enc), enc.sentence)}
        if enc.frame is not None:
            groups["frame"] = frame
        if enc.transcript is not None:
            X = _transcript_input(sample.transcript.tokens, enc)
            if X is not None:
                groups["transcript"] = _group(X, enc.transcript)
        states = dict(zip(groups, ad.bilstm_sequences(list(groups.values()))))
    finally:
        futures.wait(frame[6:])
    transcript = states.get("transcript")
    if transcript is None and enc.transcript is not None:
        transcript = _no_states(enc.transcript)
    return states["sentence"], states.get("frame"), transcript
