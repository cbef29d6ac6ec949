"""Minimal reverse-mode automatic differentiation over numpy arrays.

Float64 tape with just the operations the summarizer needs: broadcasting
arithmetic, matmul, activations, row gather/scatter, row softmax, a few
shape utilities, and one LSTM direction over a whole padded batch as a
single node. Gradients are exact and are cross-checked against central
finite differences by the gradient-check harness and the test suite.

Every op but ``take_rows`` and ``lstm_sequence`` records its node through
``_op``: it gives its forward value and one gradient rule per parent, and the
builder does the rest of the backward bookkeeping.
"""
from __future__ import annotations

import operator

import numpy as np

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    # make numpy defer to the reflected operators instead of broadcasting
    # elementwise over the Tensor object
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
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

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _acc(t, g):
    if t.grad is None:
        # a copy, since g may be another node's grad; bit-equal to zeros + g
        t.grad = g + 0.0
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


def _unbroadcast(g, shape):
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _op(data, parents, *rules):
    """Record the node with forward value ``data``. Rule k maps the upstream
    gradient to parent k's gradient; it runs only when that parent requires a
    gradient, and its result is summed back over broadcast axes and
    accumulated into the parent."""
    out = _node(data, parents, None)
    if out.requires_grad:
        def bw(g):
            for p, rule in zip(parents, rules):
                if p.requires_grad:
                    gp = rule(g)
                    if gp.shape != p.data.shape:
                        gp = _unbroadcast(gp, p.data.shape)
                    _acc(p, gp)

        out._bw = bw
    return out


def _identity(g):
    return g


_transposed = operator.attrgetter("T")


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data + b.data, (a, b), _identity, _identity)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data - b.data, (a, b), _identity, np.negative)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data * b.data, (a, b), lambda g: g * b.data, lambda g: g * a.data)


def matmul(a, b):
    """a @ b for 1-D and 2-D operands (a may have more leading axes). In
    backward a 1-D left operand is one row and a 1-D right operand one column."""
    a, b = as_tensor(a), as_tensor(b)

    def grad_a(g):
        b2 = b.data.reshape(b.data.shape[0], -1)
        return (g.reshape(-1, b2.shape[1]) @ b2.T).reshape(a.data.shape)

    def grad_b(g):
        a2 = a.data.reshape(-1, a.data.shape[-1])
        return (a2.T @ g.reshape(len(a2), -1)).reshape(b.data.shape)

    return _op(a.data @ b.data, (a, b), grad_a, grad_b)


def transpose(a):
    a = as_tensor(a)
    return _op(a.data.T, (a,), _transposed)


def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    return _op(out_data, (a,), lambda g: g * (1.0 - out_data * out_data))


def _sigmoid(x):
    """Logistic function that never overflows exp."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a):
    a = as_tensor(a)
    out_data = _sigmoid(a.data)
    return _op(out_data, (a,), lambda g: g * out_data * (1.0 - out_data))


def log(a):
    a = as_tensor(a)
    return _op(np.log(a.data), (a,), lambda g: g / a.data)


def power(a, exponent):
    """Elementwise a**p for a constant float p; a**0 is a constant.

    The derivative at a == 0 with 0 < p < 1 is unbounded; it is defined as 0
    here so that saturated fusion weights never poison the tape with inf.
    """
    p = float(exponent)
    a = as_tensor(a)
    out_data = np.power(a.data, p)
    if p == 0.0:
        return Tensor(out_data)
    if p == 1.0:
        return _op(out_data, (a,), _identity)

    def rule(g):
        nonzero = a.data != 0.0
        base = np.where(nonzero, a.data, 1.0)
        return g * np.where(nonzero, p * np.power(base, p - 1.0), 0.0)

    return _op(out_data, (a,), rule)


def clip(a, lo, hi):
    a = as_tensor(a)
    return _op(np.clip(a.data, lo, hi), (a,),
               lambda g: g * ((a.data >= lo) & (a.data <= hi)))


def tsum(a, axis=None):
    a = as_tensor(a)

    def rule(g):
        kept = g if axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(kept, a.data.shape)

    return _op(a.data.sum(axis=axis), (a,), rule)


def tmean(a, axis=None):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def concat(parts, axis=0):
    parts = tuple([as_tensor(p) for p in parts])
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    lead = (slice(None),) * (axis % out_data.ndim)
    rules, lo = [], 0
    for p in parts:
        hi = lo + p.data.shape[axis]
        rules.append(operator.itemgetter(lead + (slice(lo, hi),)))
        lo = hi
    return _op(out_data, parts, *rules)


def take_rows(a, indices):
    """Row gather (embedding lookup); backward scatter-adds into the table."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = a.data[idx]

    def bw(g):      # recorded only when ``a`` requires a gradient
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return _node(out_data, (a,), bw)


def reshape(a, shape):
    a = as_tensor(a)
    return _op(a.data.reshape(shape), (a,), lambda g: g.reshape(a.data.shape))


def outer(u, v):
    u, v = as_tensor(u), as_tensor(v)
    return _op(np.outer(u.data, v.data), (u, v), lambda g: g @ v.data,
               lambda g: u.data @ g)


def softmax_rows(a):
    """Row-wise softmax with max subtraction for numerical stability."""
    a = as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    out_data = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        return out_data * (g - (g * out_data).sum(axis=1, keepdims=True))

    return _op(out_data, (a,), rule)


def lstm_sequence(X, W, b, hidden, lengths, reverse=False):
    """One LSTM direction over a right-padded batch, as a single tape node.

    X is (B, T, D) and sequence k is X[k, :lengths[k]]; W is (D + h, 4h) over
    [x; h] with gate order i|f|o|g, b is (4h,). Returns the hidden states
    (B, T, h). Padding contract: at positions t >= lengths[k] the output is
    zero, X gets zero gradient, and finite values of X change nothing.

    Full and ragged batches run the same loop. The input pre-activations are
    zeroed at padding, and a step with zero input from h = c = 0 stays at 0,
    so the reverse direction crosses its leading padding and starts from
    zeros at each sequence's last token. The forward direction runs on
    through its trailing padding; zeroing the output, the upstream gradient
    and dZ there, outside the loop, cuts it off. The input GEMM X @ W[:D]
    runs once for all steps; only h @ W[D:] stays in the recurrence.
    Backward is hand-written BPTT.
    """
    X, W, b = as_tensor(X), as_tensor(W), as_tensor(b)
    B, T, D = X.data.shape
    h = hidden
    lengths = np.asarray(lengths, dtype=np.intp)
    Wx, Wh = W.data[:D], W.data[D:]
    steps = range(T - 1, -1, -1) if reverse else range(T)
    pad = np.arange(T) >= lengths[:, None]      # (B, T)

    z_in = (X.data.reshape(B * T, D) @ Wx + b.data).reshape(B, T, 4 * h)
    z_in[pad] = 0.0     # assignment, not a product, so no inf or nan survives
    acts = np.empty((B, T, 4 * h))      # sigmoid(i|f|o), tanh(g)
    h_prev = np.empty((B, T, h))
    c_prev = np.empty((B, T, h))
    tanh_c = np.empty((B, T, h))
    out = np.empty((B, T, h))
    hs, cs = np.zeros((B, h)), np.zeros((B, h))
    for t in steps:
        z = z_in[:, t] + hs @ Wh
        a = acts[:, t]
        a[:, :3 * h] = _sigmoid(z[:, :3 * h])
        a[:, 3 * h:] = np.tanh(z[:, 3 * h:])
        c = a[:, h:2 * h] * cs + a[:, :h] * a[:, 3 * h:]
        tc = np.tanh(c)
        h_prev[:, t], c_prev[:, t], tanh_c[:, t] = hs, cs, tc
        hs, cs = a[:, 2 * h:3 * h] * tc, c
        out[:, t] = hs
    out[pad] = 0.0

    def bw(g):
        g = np.where(pad[:, :, None], 0.0, g)
        i, f, o, gg = (acts[:, :, k * h:(k + 1) * h] for k in range(4))
        # dz = [dc, dc, dh, dc] * local, with local the gate derivatives
        local = np.concatenate([gg * i * (1.0 - i), c_prev * f * (1.0 - f),
                                tanh_c * o * (1.0 - o), i * (1.0 - gg * gg)], axis=2)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dZ = np.empty((B, T, 4 * h))
        dh, dc = np.zeros((B, h)), np.zeros((B, h))
        for t in reversed(steps):
            dh_t = dh + g[:, t]
            dc_t = dc + dh_t * dc_dh[:, t]
            dz = local[:, t] * np.concatenate((dc_t, dc_t, dh_t, dc_t), axis=1)
            dh, dc = dz @ Wh.T, dc_t * f[:, t]
            dZ[:, t] = dz
        dZ[pad] = 0.0
        dZ2 = dZ.reshape(B * T, 4 * h)
        if X.requires_grad:
            _acc(X, (dZ2 @ Wx.T).reshape(B, T, D))
        if W.requires_grad:
            dW = np.empty_like(W.data)
            np.matmul(X.data.reshape(B * T, D).T, dZ2, out=dW[:D])
            np.matmul(h_prev.reshape(B * T, h).T, dZ2, out=dW[D:])
            _acc(W, dW)
        if b.requires_grad:
            _acc(b, dZ2.sum(axis=0))

    return _node(out, (X, W, b), bw)


def backward(t):
    """Run reverse-mode accumulation from ``t`` (seeded with ones)."""
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
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    t.grad = np.ones_like(t.data)
    for node in reversed(order):
        # grad can stay None when no child contributed (e.g. x**0 is constant)
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)
