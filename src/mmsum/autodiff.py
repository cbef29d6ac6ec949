"""Minimal reverse-mode automatic differentiation over numpy arrays.

A float64 tape of layer nodes, only those the package uses. Each op is a
function that records one node through ``_node`` with a hand-written
backward; a Tensor has no operators. The ops: ``take_rows``, the row gather
(embedding lookup); ``concat``; ``mean_pool``, the sentence pool of the word
states; ``scorer``, the two-layer extraction scorer sigmoid(tanh(X W1 + b1)
w2 + b2) of every fusion head; the attention scores ``gated_score`` (gated
projection, its two tanh projections inside) and ``additive_score``
(Bahdanau, Cho & Bengio, arXiv:1409.0473); ``attend``, the row softmax and
the weighted sum of values; ``tensor_fusion``, the [s; 1] (x) [c; 1] product
(Zadeh et al., arXiv:1707.07250); ``late_pair``, the late(+) fusion
penalties and pair; the loss nodes ``log_likelihood_sum``, the clipped
Bernoulli log-likelihood summed and then scaled (the CE loss and the
REINFORCE surrogate), and ``weighted_sum``, the mix of the two losses; and
``bilstm_sequences``, both directions of a BiLSTM over each of several
groups of sequences, whose docstring states its padding contract and buffer
layout. Under ``no_grad`` a node keeps no parents and no backward.

Each node computes the same numpy expressions in the same order as the
composition of single ops it stands for, and lists its parents so that
backward walks the rest of the graph in the same order, so values and
gradients are bitwise those of the composition. The single ops (``add``,
``mul``, ``tsum``, ``reshape`` and the rest, on one node builder ``_op``)
are kept as test oracles in ``tests/composed_ops.py``, beside a copy of the
BiLSTM node from before its per-call costs were cut. A loss node replays
its composition's chain of scalar products in order, forward and backward.
Gradients are exact and are cross-checked against central finite
differences by the gradient-check harness and the test suite.

A gradient is written by its first producer and added to by the rest, into
``grad_slot`` when the Tensor has one (a parameter's view of the optimizer's
store), else into a new array. ``_acc`` writes g + 0.0, bitwise zeros + g;
``take_rows`` zero-fills the slot and scatter-adds into it; the BiLSTM's
weight GEMMs write the slot directly and may leave a -0.0.

Threading: this is the one statement of the worker-thread contract.
Importing ``mmsum`` sets each BLAS thread variable of
``mmsum.BLAS_THREAD_VARS`` that the caller left unset to 1, but only while
numpy is not yet loaded, as BLAS reads them once, when numpy loads.
``use_worker()`` holds when at least one of them is set, every one set
reads 1, and the process has more than one usable CPU. So a program that
loads numpy first without setting them to 1, or a process pinned to one CPU
(``taskset -c 0``), takes the one-thread path, on which all work runs
inline. Otherwise one worker thread per process, started by the first
``handoff`` (and again in a forked child), runs large numpy work beside the
caller's thread; it touches no tape. It gets three kinds of work, each
only when its rule holds:

* the input GEMMs of a BiLSTM group that ``start_projection`` starts
  (``encode_sample`` starts the frame group's before the word BiLSTM), when
  ``_hands_off`` holds: the weight's input rows W[:D] hold at least
  ``WORKER_MIN_VALUES`` values and ``use_worker()`` holds;
* under the same rule, the weight-gradient GEMMs with which the BiLSTM
  backward first fills a weight's ``grad_slot``, on a copy of the rows of
  dZ they read;
* every other block of columns of ``training.Adagrad.step``, each thread
  with its own scratch, when the store has more than one block and
  ``use_worker()`` holds.

A handed-off call is the same numpy expression on the same operands, with
the same shapes and strides, as the inline one (Adagrad's is elementwise),
so results equal the inline path bit for bit. ``backward`` and
``Adagrad.step`` return, or raise, with no work pending on the worker.
"""
from __future__ import annotations

import functools
import os
import threading
from concurrent import futures

import numpy as np

from . import BLAS_THREAD_VARS

WORKER_MIN_VALUES = 1 << 17     # the smallest weight operand worth a handoff
_GRAD_ENABLED = True


class no_grad:
    """Disable tape recording inside a ``with`` block (plain numpy forward)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled():
    return _GRAD_ENABLED


@functools.cache
def use_worker() -> bool:
    """Whether the worker thread may take work (the module docstring's
    rule); read once, as BLAS reads its thread variables once."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    values = [os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ]
    return (cpus or 1) > 1 and bool(values) and all(v == "1" for v in values)


_worker = None      # the worker's executor, made by the first handoff
_worker_lock = threading.Lock()


def _forget_worker():
    """A forked child has no worker thread, only its parent's executor."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def handoff(fn, *args) -> futures.Future:
    """Run fn(*args) on the worker thread, started on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = futures.ThreadPoolExecutor(1, thread_name_prefix="mmsum-worker")
    return _worker.submit(fn, *args)


class Tensor:
    # ``grad_slot``: where the gradient is written, a parameter's view of the
    # optimizer's gradient store (set by ``training.Adagrad``), else None
    __slots__ = ("data", "grad", "grad_slot", "requires_grad", "_parents", "_bw")

    # numpy refuses a Tensor operand, so ``ndarray * Tensor`` raises
    # TypeError rather than looping over the Tensor as an object; a Tensor
    # has no operators, and every op is a function that records one node
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = self.grad_slot = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._bw = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _acc(t, g):
    """Add g to t's gradient; the first producer writes g + 0.0 (a copy, as g
    may be another node's grad) into ``t.grad_slot`` or a new array."""
    if t.grad is None:
        t.grad = g + 0.0 if t.grad_slot is None else np.add(g, 0.0, out=t.grad_slot)
    else:
        t.grad += g


def _node(data, parents, bw):
    req = False
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                req = True
                break
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = parents
        out._bw = bw
    return out


def _grad_left(g, a, b):
    """The gradient of a @ b with respect to a, given the upstream g; a 1-D b
    is one column."""
    b2 = b.reshape(b.shape[0], -1)
    return (g.reshape(-1, b2.shape[1]) @ b2.T).reshape(a.shape)


def _grad_right(g, a, b):
    """The gradient of a @ b with respect to b; a 1-D a is one row."""
    a2 = a.reshape(-1, a.shape[-1])
    return (a2.T @ g.reshape(len(a2), -1)).reshape(b.shape)


def _sigmoid(x):
    """Logistic function that never overflows exp."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _tanh_grad(g, y):
    """The gradient through y = tanh(z), given the upstream g."""
    return g * (1.0 - y * y)


def _layer_grads(dz, x, W, b=None):
    """The backward of x @ W + b for the upstream dz, as a node would run it:
    x, W and b, each when it requires a gradient and in that order, get
    their terms; b is (F,), or (1,) for a (D,) W with one output unit."""
    if x.requires_grad:
        _acc(x, _grad_left(dz, x.data, W.data))
    if W.requires_grad:
        _acc(W, _grad_right(dz, x.data, W.data))
    if b is not None and b.requires_grad:
        _acc(b, dz.sum(axis=0).reshape(b.data.shape))


def take_rows(a, indices):
    """Row gather (embedding lookup); backward scatter-adds into the table."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = a.data[idx]

    def bw(g):      # recorded only when ``a`` requires a gradient
        if a.grad is None:
            if a.grad_slot is None:
                a.grad = np.zeros_like(a.data)
            else:
                a.grad = a.grad_slot
                a.grad.fill(0.0)
        np.add.at(a.grad, idx, g)

    return _node(out_data, (a,), bw)


def concat(parts, axis=0):
    """The parts joined along ``axis``, as one node; backward hands each part
    its slice of the upstream gradient."""
    parts = tuple(as_tensor(p) for p in parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)

    def bw(g):
        lo = 0
        for p in parts:
            hi = lo + p.data.shape[axis]
            if p.requires_grad:
                _acc(p, g[lead + (slice(lo, hi),)])
            lo = hi

    return _node(out, parts, bw)


def mean_pool(states, lengths, mean=True):
    """The sum over steps of (B, T, D) right-padded states, which are zero at
    padding, (B, D), as one node; with ``mean``, each row is then scaled by 1
    / its length. Forward and backward compute the expressions of a sum node
    and then a product node, in their order."""
    states = as_tensor(states)
    out = states.data.sum(axis=1)
    if mean:
        scale = 1.0 / np.asarray(lengths)[:, None]
        out = out * scale

    def bw(g):
        if mean:
            g = g * scale
        _acc(states, np.broadcast_to(g[:, None], states.data.shape))

    return _node(out, (states,), bw)


def scorer(X, W1, b1, w2, b2):
    """The two-layer extraction scorer sigmoid(tanh(X @ W1 + b1) @ w2 + b2) of
    (N, D) rows X, (N,), as one node, for a (D, F) W1 with a (F,) bias b1 and
    a (F,) w2 with a (1,) bias b2. The hidden layer is a Tensor off the tape,
    whose gradient ``_acc`` writes as for a node of its own and which
    backward drops once the first layer has read it."""
    X, W1, b1, w2, b2 = parents = tuple(map(as_tensor, (X, W1, b1, w2, b2)))
    hid = Tensor(np.tanh(X.data @ W1.data + b1.data),
                 requires_grad=X.requires_grad or W1.requires_grad or b1.requires_grad)
    out = _sigmoid(hid.data @ w2.data + b2.data)

    def bw(g):
        _layer_grads(g * out * (1.0 - out), hid, w2, b2)
        if hid.requires_grad:
            _layer_grads(_tanh_grad(hid.grad, hid.data), X, W1, b1)
            hid.grad = None

    return _node(out, parents, bw)


def gated_score(queries, keys, W_q, b_q, W_k, b_k, V):
    """The gated-projection score (r*V) @ q.T + q @ V + (r @ V)[:, None] of
    (NQ, Dq) queries against (NK, Dk) keys, (NQ, NK), as one node, over the
    projections r = tanh(queries @ W_q + b_q) and q = tanh(keys @ W_k + b_k)
    with a (d,) weight V. r and q are Tensors off the tape: ``_acc`` writes
    each one's two terms, the first plus 0.0 and then the second added, and
    backward drops them once read. Each parent gets its terms in the order of
    the composition of single ops for the expression, and the tape lists the
    keys and their weights first, so that backward runs the keys' subgraph
    first, as it does there."""
    keys, W_k, b_k, queries, W_q, b_q, V = parents = tuple(
        map(as_tensor, (keys, W_k, b_k, queries, W_q, b_q, V)))
    r, q = (Tensor(np.tanh(x.data @ W.data + b.data),
                   requires_grad=x.requires_grad or W.requires_grad or b.requires_grad)
            for x, W, b in ((queries, W_q, b_q), (keys, W_k, b_k)))
    rV = r.data * V.data
    out = rV @ q.data.T + q.data @ V.data + (r.data @ V.data)[:, None]

    def bw(g):
        g_rV = g @ q.data
        g_q, g_r = g.sum(axis=0), g.sum(axis=1)
        if r.requires_grad:
            _acc(r, g_rV * V.data)
            _acc(r, _grad_left(g_r, r.data, V.data))
        if q.requires_grad:
            _acc(q, (rV.T @ g).T)
            _acc(q, _grad_left(g_q, q.data, V.data))
        if V.requires_grad:
            _acc(V, (g_rV * r.data).sum(axis=0))
            _acc(V, _grad_right(g_q, q.data, V.data))
            _acc(V, _grad_right(g_r, r.data, V.data))
        for y, x, W, b in ((q, keys, W_k, b_k), (r, queries, W_q, b_q)):
            if y.requires_grad:
                _layer_grads(_tanh_grad(y.grad, y.data), x, W, b)
                y.grad = None

    return _node(out, parents, bw)


def log_likelihood_sum(p, y, eps, scales=()):
    """The sum over units of y log p + (1 - y) log(1 - p), for constant labels
    y with p clipped to [eps, 1 - eps], then times each of ``scales`` in
    turn, as one node; (1/n, -1.0) makes it the mean negative log-likelihood.
    A clipped p gets zero gradient. Backward multiplies the upstream gradient
    by the scales in reverse order, as the chain of single-op nodes would."""
    p = as_tensor(p)
    pc = np.clip(p.data, eps, 1.0 - eps)
    not_y, not_pc = 1.0 - y, 1.0 - pc
    out = (np.log(pc) * y + np.log(not_pc) * not_y).sum()
    for c in scales:
        out = out * c

    def bw(g):
        for c in reversed(scales):
            g = g * c
        g = g + 0.0     # each node of the chain took a copy: -0.0 turns to 0.0
        inside = (p.data >= eps) & (p.data <= 1.0 - eps)
        _acc(p, ((g * y) / pc - (g * not_y) / not_pc) * inside)

    return _node(out, (p,), bw)


def weighted_sum(tensors, weights):
    """tensors[0] * weights[0] + tensors[1] * weights[1] + ..., for constant
    weights, added left to right, as one node."""
    tensors = tuple(as_tensor(t) for t in tensors)
    out = tensors[0].data * weights[0]
    for t, w in zip(tensors[1:], weights[1:]):
        out = out + t.data * w

    def bw(g):
        if len(tensors) > 1:
            g = g + 0.0     # the sum's node hands each term a copy
        for t, w in zip(tensors, weights):
            if t.requires_grad:
                _acc(t, g * w)

    return _node(out, tensors, bw)


def _power_grad(g, a, p):
    """The gradient of a**p for a constant p other than 0, given the upstream
    g. Its slope at a == 0 with 0 < p < 1 is unbounded; it is taken as 0, so
    that a saturated fusion weight never puts inf on the tape."""
    if p == 1.0:
        return g
    nonzero = a != 0.0
    base = np.where(nonzero, a, 1.0)
    return g * np.where(nonzero, p * np.power(base, p - 1.0), 0.0)


def late_pair(f, g, beta, prose=False):
    """The late-fusion pair [a, b] of the (n,) unimodal scores f and g, (n, 2),
    as one node: each score is scaled by a confidence penalty, a = (1 - g)^beta
    f and b = (1 - f)^beta g, or with ``prose`` a = f^beta f and b = g^beta g.
    A zero base gets slope 0. Plain late fusion is beta = 0: both penalties
    are exactly 1, so the pair is [f, g] bit for bit and no gradient goes
    through the penalties. Backward gives f and g each term in the order of
    the composition of single ops for the same expression."""
    f, g = as_tensor(f), as_tensor(g)
    p = float(beta)
    bases = (f.data, g.data) if prose else (1.0 - g.data, 1.0 - f.data)
    ws, wc = np.power(bases[0], p), np.power(bases[1], p)
    pair = np.concatenate([(ws * f.data)[:, None], (wc * g.data)[:, None]], axis=1)

    def bw(u):
        ga, gb = u[:, 0], u[:, 1]
        if p == 0.0:      # constant penalties
            f_terms, g_terms = [ga * ws], [gb * wc]
        else:
            d_s = _power_grad(ga * f.data, bases[0], p)
            d_c = _power_grad(gb * g.data, bases[1], p)
            if prose:
                f_terms, g_terms = [ga * ws, d_s], [gb * wc, d_c]
            else:
                f_terms, g_terms = [ga * ws, -d_c], [-d_s, gb * wc]
        for t, terms in ((f, f_terms), (g, g_terms)):
            if t.requires_grad:
                for term in terms:
                    _acc(t, term)

    return _node(pair, (f, g), bw)


def attend(scores, values):
    """Row-softmax (NQ, NK) scores, max-subtracted, and take the weighted sum
    of (NK, D) values: (NQ, D), as one node. Also returns the weights as a
    plain array."""
    scores, values = as_tensor(scores), as_tensor(values)
    e = np.exp(scores.data - scores.data.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        if values.requires_grad:
            _acc(values, _grad_right(g, w, values.data))
        if scores.requires_grad:
            gw = _grad_left(g, w, values.data)
            _acc(scores, w * (gw - (gw * w).sum(axis=1, keepdims=True)))

    return _node(w @ values.data, (scores, values), bw), w


def additive_score(q, k, W_q, W_k, b, V):
    """The additive attention score V . tanh(q_i W_q + k_j W_k + b) of (NQ, Dq)
    queries q against (NK, Dk) keys k, (NQ, NK), as one node. Backward keeps
    the (NQ, NK, d) tanh. The tape lists the parents so that backward visits
    them in the order the composition of single ops does."""
    q, k, W_q, W_k, b, V = (as_tensor(t) for t in (q, k, W_q, W_k, b, V))
    nq, nk = q.data.shape[0], k.data.shape[0]
    t = np.tanh((q.data @ W_q.data).reshape(nq, 1, -1)
                + (k.data @ W_k.data).reshape(1, nk, -1) + b.data)

    def bw(g):
        if V.requires_grad:
            _acc(V, _grad_right(g, t, V.data))
        dz = _tanh_grad(_grad_left(g, t, V.data), t)
        if b.requires_grad:
            _acc(b, dz.sum(axis=(0, 1)))
        # q's rows broadcast over the keys, axis 1, and k's over the queries
        _layer_grads(dz.sum(axis=1), q, W_q)
        _layer_grads(dz.sum(axis=0), k, W_k)

    return _node(t @ V.data, (q, W_q, k, W_k, b, V), bw)


def tensor_fusion(S, C):
    """Row i is [S_i; 1] (x) [C_i; 1] flattened, for (n, ds) rows S and
    (n, dc) rows C: (n, (ds + 1)(dc + 1)), as one node."""
    S, C = as_tensor(S), as_tensor(C)
    n = S.data.shape[0]
    one = np.ones((n, 1))
    s1 = np.concatenate([S.data, one], axis=1).reshape(n, -1, 1)
    c1 = np.concatenate([C.data, one], axis=1).reshape(n, 1, -1)

    def bw(g):
        g = g.reshape(n, s1.shape[1], c1.shape[2])
        for x, other, axis in ((S, c1, 2), (C, s1, 1)):
            if x.requires_grad:
                _acc(x, (g * other).sum(axis=axis)[:, :-1])

    return _node((s1 * c1).reshape(n, -1), (S, C), bw)


def _step_buffer(steps, shape, keep):
    """A (steps, *shape) buffer, or, when ``keep`` is false, one step's buffer
    seen ``steps`` times through a zero stride, so each step overwrites it.
    Keep it: allocating every step's buffers under ``no_grad`` too slowed the
    ``eval_paper`` benchmark (seed 11, 2 vCPU) from 53.5-54.7 to 49.6-50.7
    samples/s, in 3 of 3 alternating pairs."""
    if keep:
        return np.empty((steps,) + shape)
    one = np.empty(shape)
    return np.ndarray((steps,) + shape, buffer=one, strides=(0,) + one.strides)


def _to_front(a, axis):
    """``a`` with its (negative) ``axis`` moved to the front, as a view;
    ``np.moveaxis`` costs about 20 times as much per call."""
    k = a.ndim + axis
    return a.transpose((k, *range(k), *range(k + 1, a.ndim)))


def _lstm_steps(A, Wh, H, C, TC):
    """The recurrence of one phase of ``bilstm_sequences`` over step-major
    views of its buffers, in place. A, (S, n, 4, 2, B, h), holds the input
    pre-activations and becomes the gate activations. Wh, (n, 2, h, 4h), holds
    the recurrent weights unscaled, so each step's recurrent product is one
    matmul batched over the directions and stacked over the n groups. As
    sigmoid(z) = 0.5 tanh(z / 2) + 0.5, each step then halves i|f|o (exact in
    binary) and one tanh covers all four gates. From H[0] and C[0], H[s + 1],
    C[s + 1] and TC[s] get the state, cell and tanh(cell) after step s."""
    n, _, B, h = H.shape[1:]
    hz, ig = np.empty((n, 2, B, 4 * h)), np.empty(H.shape[1:])
    hz4 = hz.reshape(n, 2, B, 4, h).transpose(0, 3, 1, 2, 4)    # A's order
    c_prev = C[0]       # then each step's c
    for a, ifo, i, f, o, g, c, tc, h_prev, h_next in zip(
            A, A[:, :, :3], *_to_front(A, -4), C[1:], TC, H, H[1:]):
        np.matmul(h_prev, Wh, out=hz)
        a += hz4
        ifo *= 0.5
        np.tanh(a, out=a)
        ifo *= 0.5
        ifo += 0.5
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_next)
        c_prev = c


def _gate_grads(A, C, TC, local):
    """The gate derivatives of one phase for its BPTT loop, from its (S, n, 4,
    2, B, h) gates A. ``local``, a step-major (S, n, 2, B, 4h) view of the
    caller's zeroed dZ, gets the [i, f, 0, g] derivatives (the loop scales
    all four gates by dc and then overwrites o, so the o column starts at
    zero rather than unset); the o derivative and dc/dh are returned. The
    products swap operands at most:
    I * (1 - I) is taken as (1 - I) * I and O * (1 - TC^2) as
    (1 - TC^2) * O, which are bitwise the same."""
    h = A.shape[-1]
    I, F, O, G = _to_front(A, -4)
    not_ifo = 1.0 - A[:, :, :3]
    local_o = TC * O
    local_o *= not_ifo[:, :, 2]
    not_ifo[:, :, :2] *= A[:, :, :2]
    np.multiply(G, not_ifo[:, :, 0], out=local[..., :h])
    np.multiply(C[:-1], not_ifo[:, :, 1], out=local[..., h:2 * h])
    local_g = local[..., 3 * h:]
    np.multiply(G, G, out=local_g)
    np.subtract(1.0, local_g, out=local_g)
    local_g *= I
    dc_dh = TC * TC
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= O
    return local_o, dc_dh


def _project(x, fw_W, bw_W):
    """A group's input GEMMs, x @ W[:D] for both directions, over the (T * B,
    D) rows of its (B, T, D) batch ``x`` in time order."""
    B, T, D = x.shape
    Xt = x.transpose(1, 0, 2).reshape(T * B, D)
    return Xt @ fw_W[:D], Xt @ bw_W[:D]


def _batch(X):
    """A group's X as a (B, T, D) batch; one (T, D) sequence is B = 1."""
    return X if X.ndim == 3 else X[None]


def _hands_off(W, D) -> bool:
    """Whether a BiLSTM group's GEMMs over the weight ``W``, whose input rows
    are W[:D], go to the worker (the module docstring's rule)."""
    return W[:D].size >= WORKER_MIN_VALUES and use_worker()


def start_projection(group):
    """``group`` with a seventh member, the future of its input GEMMs started
    on the worker, which ``bilstm_sequences`` reads in place of running them;
    ``group`` itself when ``_hands_off`` does not hold. A caller that may
    raise before ``bilstm_sequences`` runs waits for ``group[6:]``."""
    X, fw_W, _, bw_W = (as_tensor(t).data for t in group[:4])
    if not _hands_off(fw_W, X.shape[-1]):
        return group
    return (*group, handoff(_project, _batch(X), fw_W, bw_W))


def _weight_grad(x, h_prev, dz, dW=None):
    """The gradient [x, h_prev]^T dz of a (D + h, 4h) LSTM weight, written
    by two GEMMs into ``dW``, or into a new array."""
    if dW is None:
        dW = np.empty((x.shape[1] + h_prev.shape[1], dz.shape[1]))
    np.matmul(x.T, dz, out=dW[:x.shape[1]])
    np.matmul(h_prev.T, dz, out=dW[x.shape[1]:])
    return dW


def _slice_of(node, data, lo):
    """Group output ``data``, which starts at ``lo`` in the flat output of
    ``node``, as a node whose gradient is assigned into the node's."""
    def bw(g):
        if node.grad is None:
            node.grad = np.zeros(node.data.shape)
        node.grad[lo:lo + g.size].reshape(g.shape)[...] = g

    return _node(data, (node,), bw)


def bilstm_sequences(groups):
    """Both directions of a BiLSTM over each of several groups of sequences,
    as one tape node with one recurrence loop. Returns one Tensor per group.

    A group is (X, fw_W, fw_b, bw_W, bw_b, lengths), with its own weights, and
    may have a seventh member from ``start_projection``. X is a right-padded
    (B, T, D) batch whose sequence k is X[k, :lengths[k]] (whole when
    ``lengths`` is None), or one (T, D) sequence; each W is (D + h, 4h) over
    [x; h] with gate order i|f|o|g and each b is (4h,), which sets the hidden
    size h. A group maps to (B, T, 2h), or (T, 2h), the forward states beside
    the backward states. B and h are shared by all groups; T and D are each
    group's own, and a single BiLSTM is the call with one group. Padding
    contract: at positions t >= lengths[k] the output is zero, X gets zero
    gradient, and finite values of X change nothing.

    Forward and backward walk one list of group records, sorted longest
    first, stably. Each quantity has one time-major buffer over the longest
    T steps and all N groups in that order: the gates (S, N, 4, 2, B, h),
    group-major and then gate-major so that the live groups' slice of a step
    is contiguous, the states, cells and tanh(c) (S, N, 2, B, h), and in
    backward the upstream gradient and dZ, group-major (N, 2, S, B, 4h), so
    that a group's slice feeds its weight GEMMs. Direction 0 is stored in
    time order and direction 1 in its own step order (step s reads time
    T-1-s), so both directions of a group are live exactly for s < T. A
    phase covers the steps in which the first n groups are live and runs on
    the [:n] views of its steps, from the state the phase before it left;
    each step's recurrent product is one matmul, batched over the two
    directions and stacked over the n groups' weights, one copy as given
    that backward reads transposed. Backward walks the phases last first
    through the same views, dh and dc starting at zero; a group's dZ and
    prior states are slices of the shared buffers, with no per-phase pieces
    to join. Input pre-activations are zeroed at padding; a step with zero
    input from h = c = 0 stays at 0, so the reverse direction starts from
    zeros at each sequence's last token. Zeroing the output, the upstream
    gradient and dZ at padding, outside the loop, cuts off the forward
    direction's trailing padding. A group with no sequence shorter than T
    skips the masks.

    The input GEMMs and the X, weight and bias gradients run per group over
    its own T rows, each with the shape a one-group node gives it, so each
    group's values and gradients are byte-equal to those of the copy in
    ``tests/composed_ops.py`` run on that group alone. Backward returns the
    futures of the weight-gradient GEMMs it hands to the worker (see the
    module docstring). The cell states and tanh(c) are kept per step only
    when a gradient is recorded. The groups' outputs lie in the given order
    in one flat output, handed out by a slice node per group. Parents are
    listed last group first, so backward walks the last group's input first.
    """
    # record: (T, D, x, tensors, pad2, offset, started)
    recs, parents, size = [], (), 0
    for X, fw_W, fw_b, bw_W, bw_b, lengths, *started in groups:
        ts = tuple(map(as_tensor, (X, fw_W, fw_b, bw_W, bw_b)))
        x = _batch(ts[0].data)
        B, T, D = x.shape
        h = ts[2].data.shape[0] // 4
        pad2 = None
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=np.intp)
            if (lengths < T).any():
                pad = np.arange(T)[:, None] >= lengths      # (T, B), time order
                pad2 = np.stack([pad, pad[::-1]], axis=1)   # (T, 2, B), step order
        recs.append((T, D, x, ts, pad2, size, started))
        size += B * T * 2 * h
        parents = ts + parents
    keep = _GRAD_ENABLED and any(t.requires_grad for t in parents)
    flat = np.empty(size)

    def block(a, T, lo):
        """A group's (B, T, 2h) block of the flat output, or of its gradient."""
        return a[lo:lo + B * T * 2 * h].reshape(B, T, 2 * h)

    # each group's output, shaped as its X, with its offset
    outs = [(block(flat, T, lo).reshape(*ts[0].data.shape[:-1], 2 * h), lo)
            for T, _, _, ts, _, lo, _ in recs]
    recs.sort(key=lambda rec: rec[0], reverse=True)     # longest first, stably
    N, S, Ts = len(recs), recs[0][0], [rec[0] for rec in recs] + [0]
    # (s0, s1, n) in step order: steps s0 <= s < s1 run the first n groups
    phases = [(Ts[n], Ts[n - 1], n) for n in range(N, 0, -1) if Ts[n - 1] > Ts[n]]
    A = np.empty((S, N, 4, 2, B, h))
    # the recurrent weights as one C-order array, by copies (``np.stack``
    # costs several times more per call)
    Wh = np.empty((N, 2, h, 4 * h))
    for j, (T, D, x, (_, fw_W, fw_b, bw_W, bw_b), pad2, _, started) in enumerate(recs):
        Wh[j, 0], Wh[j, 1] = fw_W.data[D:], bw_W.data[D:]
        fw_z, bw_z = (started[0].result() if started
                      else _project(x, fw_W.data, bw_W.data))
        Ag = A[:T, j].transpose(0, 2, 3, 1, 4)  # (T, 2, B, 4, h), the GEMMs' order
        np.add(fw_z.reshape(T, B, 4, h), fw_b.data.reshape(4, h), out=Ag[:, 0])
        np.add(bw_z.reshape(T, B, 4, h)[::-1], bw_b.data.reshape(4, h), out=Ag[:, 1])
        if pad2 is not None:    # assignment, so no inf or nan survives
            Ag[pad2] = 0.0
    del fw_z, bw_z      # free before the recurrence

    H = np.empty((S + 1, N, 2, B, h))   # H[s + 1]: state after step s
    C = _step_buffer(S + 1, (N, 2, B, h), keep)
    TC = _step_buffer(S, (N, 2, B, h), keep)
    H[0] = C[0] = 0.0
    for s0, s1, n in phases:
        _lstm_steps(A[s0:s1, :n], Wh[:n], H[s0:s1 + 1, :n], C[s0:s1 + 1, :n],
                    TC[s0:s1, :n])
    for j, (T, _, _, _, pad2, lo, _) in enumerate(recs):
        out = block(flat, T, lo)
        out[:, :, :h] = H[1:T + 1, j, 0].transpose(1, 0, 2)
        out[:, ::-1, h:] = H[1:T + 1, j, 1].transpose(1, 0, 2)
        if pad2 is not None:
            out[pad2[:, 0].T] = 0.0

    def bw(g):
        g = g.reshape(-1)
        U = np.empty((S, N, 2, B, h))   # upstream, in step order
        for j, (T, _, _, _, pad2, lo, _) in enumerate(recs):
            gk = block(g, T, lo)
            U[:T, j, 0] = gk[:, :, :h].transpose(1, 0, 2)
            U[:T, j, 1] = gk[:, ::-1, h:].transpose(1, 0, 2)
            if pad2 is not None:
                U[:T, j][pad2] = 0.0
        # group-major with the steps inside, for the weight GEMMs
        dZ = np.zeros((N, 2, S, B, 4 * h))
        local, dZ4 = _to_front(dZ, -3), _to_front(dZ.reshape(N, 2, S, B, 4, h), -4)
        dh, dc, tmp = np.zeros((3, N, 2, B, h))
        for s0, s1, n in reversed(phases):
            local_o, dc_dh = _gate_grads(A[s0:s1, :n], C[s0:s1 + 1, :n], TC[s0:s1, :n],
                                         local[s0:s1, :n])
            # a transposed view of a C-order block: a C-order (., 4h, h) copy
            # sends the recurrent product down another BLAS path and changes
            # the gradients in the last bit
            dhn, dcn, tmpn, Whn = dh[:n], dc[:n], tmp[:n], Wh[:n].swapaxes(-1, -2)
            dc3 = dcn[..., None, :]
            # step views in reverse step order; the last step's dh and dc are
            # never read, so its recurrent product is skipped
            for s, u, dcdh, lo, dz, dz4, dz_o, f in zip(
                    range(s1 - 1, s0 - 1, -1), U[s0:s1, :n][::-1], dc_dh[::-1],
                    local_o[::-1], local[s0:s1, :n][::-1], dZ4[s0:s1, :n][::-1],
                    dZ4[s0:s1, :n, ..., 2, :][::-1], A[s0:s1, :n, 1][::-1]):
                dhn += u
                np.multiply(dhn, dcdh, out=tmpn)
                dcn += tmpn
                dz4 *= dc3
                np.multiply(lo, dhn, out=dz_o)
                if s:
                    np.matmul(dz, Whn, out=dhn)
                    dcn *= f
        pending = []
        for j, (T, D, x, (X, fw_W, fw_b, bw_W, bw_b), pad2, _, _) in enumerate(recs):
            if pad2 is not None:
                dZ[j, :, :T][pad2.transpose(1, 0, 2)] = 0.0
            # the worker's GEMMs get a copy of the rows they read, not a view
            # that keeps all of dZ alive; a copy of the same layout, so that
            # the reversed view below has dZ's strides (see ``Whn``)
            hand = _hands_off(fw_W.data, D)
            dZj = dZ[j, :, :T].copy() if hand else dZ[j, :, :T]
            # in time order; the reverse direction's is its step order reversed
            dZf = dZj[0].reshape(T * B, 4 * h)
            dZb = dZj[1][::-1].reshape(T * B, 4 * h)
            if X.requires_grad:
                _acc(X, (dZf @ fw_W.data[:D].T + dZb @ bw_W.data[:D].T)
                     .reshape(T, B, D).transpose(1, 0, 2).reshape(X.data.shape))
            Xt = x.transpose(1, 0, 2).reshape(T * B, D)
            # the state before each step
            for W, b, dz, h_prev in ((fw_W, fw_b, dZf, H[:T, j, 0]),
                                     (bw_W, bw_b, dZb, H[:T, j, 1][::-1])):
                if W.requires_grad:
                    hp = h_prev.reshape(T * B, h)
                    if W.grad is None and W.grad_slot is not None:
                        # the first producer's GEMMs write into the slot; a
                        # -0.0 they leave steps Adagrad as +0.0 would
                        W.grad = W.grad_slot
                        if hand:
                            pending.append(handoff(_weight_grad, Xt, hp, dz, W.grad))
                        else:
                            _weight_grad(Xt, hp, dz, W.grad)
                    else:
                        _acc(W, _weight_grad(Xt, hp, dz))
                if b.requires_grad:
                    _acc(b, dz.sum(axis=0))
        return pending

    if len(outs) == 1:
        return [_node(outs[0][0], parents, bw)]
    node = _node(flat, parents, bw)
    return [_slice_of(node, out, lo) for out, lo in outs]


def _walk(t):
    """The nodes backward runs from ``t``, parents after every child that
    feeds them: a depth-first post-order, reversed by the caller. Only nodes
    with a backward are pushed, so the parameter leaves are never walked; a
    leaf was popped and appended with nothing in between, so this leaves the
    order of the other nodes as it was."""
    order = []
    visited = set()
    stack = [(t, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._bw is not None and id(p) not in visited:
                stack.append((p, False))
    return order


def backward(t):
    """Run reverse-mode accumulation from ``t`` (seeded with ones). A node's
    backward may return the futures of work it handed to the worker; all are
    joined before this returns or raises."""
    order = _walk(t)
    t.grad = np.ones_like(t.data)
    pending = []
    try:
        for node in reversed(order):
            # only ``t`` itself can lack a backward, when it is a leaf
            if node._bw is not None and node.grad is not None:
                pending += node._bw(node.grad) or ()
    finally:
        futures.wait(pending)
    for done in pending:
        done.result()       # raises the worker's error, if any
