"""Test oracles built from single autodiff ops.

The single ops here (sub, matmul, transpose, tanh, sigmoid, log, power,
clip, softmax_rows) are ones that no package path calls any more. Each
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
from mmsum.autodiff import Tensor, as_tensor


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
    p = clip(probs, eps, 1.0 - eps)
    return y * log(p) + (1.0 - y) * log(sub(1.0, p))


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
        return ad.tmean(pair, axis=1)
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


_bilstm_sequence = ad.bilstm_sequence


def bilstm_sequence_reference(X, fw_W, fw_b, bw_W, bw_b, lengths=None):
    """A (T, D) input as a batch of one, through reshape nodes."""
    X = as_tensor(X)
    if X.ndim == 3:
        return _bilstm_sequence(X, fw_W, fw_b, bw_W, bw_b, lengths)
    out = _bilstm_sequence(ad.reshape(X, (1,) + X.shape), fw_W, fw_b, bw_W, bw_b,
                           [X.shape[0]])
    return ad.reshape(out, out.shape[1:])


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
    "late_decision": late_decision_reference,
    "attend": attend_reference,
    "additive_score": additive_score_reference,
    "tensor_fusion": tensor_fusion_reference,
    "bilstm_sequence": bilstm_sequence_reference,
    "_walk": walk_reference,
}


def use_compositions(monkeypatch):
    """Replace each fused op and the leaf-skipping walk with its oracle."""
    for name, reference in COMPOSITIONS.items():
        monkeypatch.setattr(ad, name, reference)
