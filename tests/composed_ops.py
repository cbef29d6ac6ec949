"""Test oracles built from single autodiff ops.

The single ops here (sub, matmul, transpose, tanh, sigmoid, log, power,
clip, softmax_rows, tmean) are ones that no package path calls any more. Each
records its node through ``autodiff._op``, as the package's own ops do. From
them come the compositions of single ops that each fused op of
``mmsum.autodiff`` stands for, so a fused op can be checked against its
composition bit for bit, and ``use_compositions`` runs the model on the
compositions instead of the fused ops.
"""
from __future__ import annotations

import operator

import numpy as np

from mmsum import autodiff as ad
from mmsum.autodiff import Tensor, _acc, _node, as_tensor


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return ad._op(a.data - b.data, (a, b), ad._identity, np.negative)


def matmul(a, b):
    """a @ b for 1-D and 2-D operands (a may have more leading axes)."""
    a, b = as_tensor(a), as_tensor(b)
    return ad._op(a.data @ b.data, (a, b), lambda g: ad._grad_left(g, a.data, b.data),
                  lambda g: ad._grad_right(g, a.data, b.data))


def transpose(a):
    a = as_tensor(a)
    return ad._op(a.data.T, (a,), operator.attrgetter("T"))


def _activation(name, a):
    f, rule = ad._ACTIVATIONS[name]
    a = as_tensor(a)
    out = f(a.data)
    return ad._op(out, (a,), lambda g: rule(g, out))


def tanh(a):
    return _activation("tanh", a)


def sigmoid(a):
    return _activation("sigmoid", a)


def log(a):
    a = as_tensor(a)
    return ad._op(np.log(a.data), (a,), lambda g: g / a.data)


def power(a, exponent):
    """Elementwise a**p for a constant float p; a**0 is a constant, and the
    slope at a == 0 is taken as 0."""
    p = float(exponent)
    a = as_tensor(a)
    out = np.power(a.data, p)
    if p == 0.0:
        return Tensor(out)
    if p == 1.0:
        return ad._op(out, (a,), ad._identity)

    def rule(g):
        nonzero = a.data != 0.0
        base = np.where(nonzero, a.data, 1.0)
        return g * np.where(nonzero, p * np.power(base, p - 1.0), 0.0)

    return ad._op(out, (a,), rule)


def clip(a, lo, hi):
    a = as_tensor(a)
    return ad._op(np.clip(a.data, lo, hi), (a,),
                  lambda g: g * ((a.data >= lo) & (a.data <= hi)))


def softmax_rows(a):
    """Row-wise softmax with max subtraction for numerical stability."""
    a = as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)
    return ad._op(out, (a,), lambda g: out * (g - (g * out).sum(axis=1, keepdims=True)))


def tmean(a, axis=None):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return ad.mul(ad.tsum(a, axis=axis), 1.0 / n)


def outer(u, v):
    """Outer product of two vectors, from broadcasting ops."""
    u, v = as_tensor(u), as_tensor(v)
    return ad.reshape(u, (-1, 1)) * ad.reshape(v, (1, -1))


# ---------------------------------------------------------------------------
# the compositions that the fused ops replace

def dense_reference(X, W, b, act):
    return _activation(act, matmul(X, W) + b)


def bilinear_reference(r, q, V):
    return (matmul(r * V, transpose(q)) + matmul(q, V)
            + ad.reshape(matmul(r, V), (r.shape[0], 1)))


def log_likelihood_reference(probs, y, eps):
    """y log p + (1 - y) log(1 - p) per unit, p clipped to [eps, 1 - eps]."""
    p = clip(probs, eps, 1.0 - eps)
    return y * log(p) + (1.0 - y) * log(sub(1.0, p))


def log_likelihood_sum_reference(p, y, eps, scales=()):
    """tsum of the per-unit log-likelihood, then one mul node per scale. With
    scales (1/n, -1.0) this is the mean negative log-likelihood of
    ``training.ce_loss`` as ``-tmean(...)`` built it; with (-(R - b),) it is
    the REINFORCE surrogate of ``training.video_loss``, -(R - b) * sum."""
    out = ad.tsum(log_likelihood_reference(p, y, eps))
    for c in scales:
        out = out * c
    return out


def weighted_sum_reference(tensors, weights):
    """tensors[0] * weights[0] + ... from mul and add nodes, as
    ``training.bistream_loss`` built alpha_ts * ce + alpha_vs * surrogate."""
    total = None
    for t, w in zip(tensors, weights):
        term = w * t
        total = term if total is None else total + term
    return total


def late_decision_reference(f, g, head=None, beta=None, prose=False):
    f, g = as_tensor(f), as_tensor(g)
    n = f.shape[0]
    if beta is not None:
        if prose:
            w_s, w_c = power(f, beta), power(g, beta)
        else:
            w_s, w_c = power(sub(1.0, g), beta), power(sub(1.0, f), beta)
        f, g = w_s * f, w_c * g
    pair = ad.concat([ad.reshape(f, (n, 1)), ad.reshape(g, (n, 1))], axis=1)
    if head is None:
        return tmean(pair, axis=1)
    W1, b1, w2, b2 = head
    return ad.dense(ad.dense(pair, W1, b1, "tanh"), w2, b2, "sigmoid")


def attend_reference(scores, values):
    weights = softmax_rows(scores)
    return matmul(weights, values), weights.data


def additive_score_reference(q, k, W_q, W_k, b, V):
    nq, nk = q.shape[0], k.shape[0]
    a = ad.reshape(matmul(q, W_q), (nq, 1, -1))
    c = ad.reshape(matmul(k, W_k), (1, nk, -1))
    return matmul(tanh(a + c + b), V)


def tensor_fusion_reference(S, C):
    S, C = as_tensor(S), as_tensor(C)
    n = S.shape[0]
    one = Tensor(np.ones((n, 1)))
    s1 = ad.reshape(ad.concat([S, one], axis=1), (n, -1, 1))
    c1 = ad.reshape(ad.concat([C, one], axis=1), (n, 1, -1))
    return ad.reshape(s1 * c1, (n, -1))


# ---------------------------------------------------------------------------
# the BiLSTM node as it was before its per-call costs were cut: the code of
# ``autodiff.bilstm_sequence`` and its helpers, copied verbatim but for the
# oracle's name and the module-level reads of ``autodiff``, so that the new
# node can be checked against it byte for byte

def _step_buffer(steps, shape, keep):
    """A (steps, *shape) buffer, or, when ``keep`` is false, one step's buffer
    seen ``steps`` times through a zero stride, so each step overwrites it.
    Keep it: allocating every step's buffers under ``no_grad`` too slowed the
    ``eval_paper`` benchmark (seed 11, 2 vCPU) from 53.5-54.7 to 49.6-50.7
    samples/s, in 3 of 3 alternating pairs."""
    if keep:
        return np.empty((steps,) + shape)
    one = np.empty(shape)
    return np.lib.stride_tricks.as_strided(one, (steps,) + shape, (0,) + one.strides)


def _lstm_steps(A, fw_Wh, bw_Wh, H, C, TC):
    """The recurrence of ``bilstm_sequence`` over its step-major buffers, in
    place: A holds the input pre-activations with i|f|o halved and becomes
    the gate activations; H[s + 1], C[s + 1] and TC[s] get the state, cell
    and tanh(cell) after step s."""
    h = H.shape[-1]
    Wh2 = np.stack([fw_Wh, bw_Wh])      # (2, h, 4h)
    Wh2[..., :3 * h] *= 0.5
    I, F, O, G = (A[..., k * h:(k + 1) * h] for k in range(4))
    hz, ig = np.empty(A.shape[1:]), np.empty(H.shape[1:])
    for a, ifo, i, f, o, g, c_prev, c, tc, h_prev, h_next in zip(
            A, A[..., :3 * h], I, F, O, G, C[:-1], C[1:], TC, H[:-1], H[1:]):
        np.matmul(h_prev, Wh2, out=hz)
        a += hz
        np.tanh(a, out=a)
        ifo *= 0.5
        ifo += 0.5
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_next)


def _weight_grad(x, h_prev, dz):
    """The gradient [x, h_prev]^T dz of a (D + h, 4h) LSTM weight, written
    into one array by two GEMMs."""
    dW = np.empty((x.shape[1] + h_prev.shape[1], dz.shape[1]))
    np.matmul(x.T, dz, out=dW[:x.shape[1]])
    np.matmul(h_prev.T, dz, out=dW[x.shape[1]:])
    return dW


def bilstm_sequence_oracle(X, fw_W, fw_b, bw_W, bw_b, lengths=None):
    """Both directions of a BiLSTM over a right-padded batch, as one tape node.

    X is (B, T, D) and sequence k is X[k, :lengths[k]] (every sequence is
    whole when ``lengths`` is None); each W is (D + h, 4h) over [x; h] with
    gate order i|f|o|g and each b is (4h,), which sets the hidden size h.
    Returns (B, T, 2h), the forward states beside the backward states. A
    (T, D) X is one sequence and maps to (T, 2h). Padding contract: at
    positions t >= lengths[k] the output is zero, X gets zero gradient, and
    finite values of X change nothing.

    The recurrence runs over time-major (T, 2, B, .) buffers indexed by step.
    Direction 0 is stored in time order and direction 1 in its own step order
    (step s reads time T-1-s), so each step's (2, B, .) slice is contiguous and
    its recurrent product is one matmul batched over the two directions. The
    input pre-activations are zeroed at padding, and a step with zero input
    from h = c = 0 stays at 0, so the reverse direction crosses its leading
    padding and starts from zeros at each sequence's last token. The forward
    direction runs on through its trailing padding; zeroing the output, the
    upstream gradient and dZ there, outside the loop, cuts it off.

    sigmoid(z) = 0.5 tanh(z / 2) + 0.5, so the i|f|o pre-activations are
    halved (exact in binary) and one tanh covers all four gates. The input
    GEMM runs once per direction for all steps, and its buffer turns into the
    gate activations in place. The cell states and tanh(c) are kept per step
    only when a gradient is recorded. Backward is hand-written BPTT over both
    directions in one reversed loop.
    """
    X, fw_W, fw_b, bw_W, bw_b = parents = tuple(
        as_tensor(t) for t in (X, fw_W, fw_b, bw_W, bw_b))
    x = X.data if X.data.ndim == 3 else X.data[None]
    B, T, D = x.shape
    h = fw_b.data.shape[0] // 4
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths, dtype=np.intp)
    pad = np.arange(T)[:, None] >= lengths      # (T, B), time order
    pad2 = np.stack([pad, pad[::-1]], axis=1)   # (T, 2, B), step order
    Xt = x.transpose(1, 0, 2).reshape(T * B, D)

    A = np.empty((T, 2, B, 4 * h))
    np.add((Xt @ fw_W.data[:D]).reshape(T, B, 4 * h), fw_b.data, out=A[:, 0])
    np.add((Xt @ bw_W.data[:D]).reshape(T, B, 4 * h)[::-1], bw_b.data, out=A[:, 1])
    del Xt              # backward rebuilds it rather than hold a copy
    A[pad2] = 0.0       # assignment, not a product, so no inf or nan survives
    A[..., :3 * h] *= 0.5

    keep = ad.grad_enabled() and any(t.requires_grad for t in parents)
    H = np.zeros((T + 1, 2, B, h))      # H[s + 1] is the state after step s
    C = _step_buffer(T + 1, (2, B, h), keep)
    C[0] = 0.0
    TC = _step_buffer(T, (2, B, h), keep)
    _lstm_steps(A, fw_W.data[D:], bw_W.data[D:], H, C, TC)
    if not keep:
        A = None        # nothing reads it again; free it before out
    out = np.empty((B, T, 2 * h))
    out[:, :, :h] = H[1:, 0].transpose(1, 0, 2)
    out[:, :, h:] = H[:0:-1, 1].transpose(1, 0, 2)
    out[pad.T] = 0.0
    if X.data.ndim == 2:
        out = out[0]
    if not keep:
        return Tensor(out)

    def bw(g):
        g = g.reshape(B, T, 2 * h)
        I, F, O, G = (A[..., k * h:(k + 1) * h] for k in range(4))
        U = np.empty((T, 2, B, h))      # upstream, in step order
        U[:, 0] = g[:, :, :h].transpose(1, 0, 2)
        U[:, 1] = g[:, ::-1, h:].transpose(1, 0, 2)
        U[pad2] = 0.0
        # dz = [dc, dc, dh, dc] * local, with local the gate derivatives. Each
        # step scales all four gates by dc and then overwrites o, so the o
        # column starts at zero rather than unset.
        dZ = np.zeros((2, T, B, 4 * h))     # direction-major for the weight GEMMs
        local = dZ.transpose(1, 0, 2, 3)
        np.multiply(G, I * (1.0 - I), out=local[..., :h])
        np.multiply(C[:-1], F * (1.0 - F), out=local[..., h:2 * h])
        np.multiply(I, 1.0 - G * G, out=local[..., 3 * h:])
        local_o = TC * O * (1.0 - O)
        dc_dh = O * (1.0 - TC * TC)
        WhT = np.stack([fw_W.data[D:].T, bw_W.data[D:].T])     # (2, 4h, h)
        dh, dc, tmp = np.zeros((2, B, h)), np.zeros((2, B, h)), np.empty((2, B, h))
        dZ4 = dZ.reshape(2, T, B, 4, h)
        for s in range(T - 1, -1, -1):
            dh += U[s]
            np.multiply(dh, dc_dh[s], out=tmp)
            dc += tmp
            dz4 = dZ4[:, s]
            dz4 *= dc[:, :, None]
            np.multiply(local_o[s], dh, out=dz4[:, :, 2])
            np.matmul(dZ[:, s], WhT, out=dh)
            dc *= F[s]
        dZ[pad2.transpose(1, 0, 2)] = 0.0
        dZf = dZ[0].reshape(T * B, 4 * h)
        dZb = dZ[1, ::-1].reshape(T * B, 4 * h)     # a copy, in time order
        if X.requires_grad:
            _acc(X, (dZf @ fw_W.data[:D].T + dZb @ bw_W.data[:D].T)
                 .reshape(T, B, D).transpose(1, 0, 2).reshape(X.data.shape))
        Xt = x.transpose(1, 0, 2).reshape(T * B, D)
        for W, b, dz, h_prev in ((fw_W, fw_b, dZf, H[:-1, 0]),
                                 (bw_W, bw_b, dZb, H[-2::-1, 1])):
            if W.requires_grad:
                _acc(W, _weight_grad(Xt, h_prev.reshape(T * B, h), dz))
            if b.requires_grad:
                _acc(b, dz.sum(axis=0))

    return _node(out, parents, bw)


def bilstm_sequence_reference(X, fw_W, fw_b, bw_W, bw_b, lengths=None):
    """The oracle; a (T, D) input goes in as a batch of one, through reshape
    nodes."""
    X = as_tensor(X)
    if X.ndim == 3:
        return bilstm_sequence_oracle(X, fw_W, fw_b, bw_W, bw_b, lengths)
    out = bilstm_sequence_oracle(ad.reshape(X, (1,) + X.shape), fw_W, fw_b, bw_W, bw_b,
                                 [X.shape[0]])
    return ad.reshape(out, out.shape[1:])


def bilstm_sequences_reference(groups):
    """One oracle node per group, as the encoders ran before their groups
    shared a node."""
    return [bilstm_sequence_reference(*group) for group in groups]


def walk_reference(t):
    """backward's walk as it was: every parent that requires a gradient is
    pushed, the parameter leaves too."""
    order, visited, stack = [], set(), [(t, False)]
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
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


COMPOSITIONS = {
    "log_likelihood_sum": log_likelihood_sum_reference,
    "weighted_sum": weighted_sum_reference,
    "late_decision": late_decision_reference,
    "attend": attend_reference,
    "additive_score": additive_score_reference,
    "tensor_fusion": tensor_fusion_reference,
    "bilstm_sequences": bilstm_sequences_reference,
    "_walk": walk_reference,
}


def use_compositions(monkeypatch):
    """Replace each fused op and the leaf-skipping walk with its oracle."""
    for name, reference in COMPOSITIONS.items():
        monkeypatch.setattr(ad, name, reference)
