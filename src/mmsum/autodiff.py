"""Minimal reverse-mode automatic differentiation over numpy arrays.

Float64 tape with just the operations the summarizer needs: broadcasting
arithmetic, matmul, activations, row gather/scatter, row softmax, a few
shape utilities, and ``bilstm_sequence``, both directions of a BiLSTM over a
whole right-padded batch as a single node, its hidden size read off the (4h,)
bias. Its padding contract: the output is zero at padded positions, which send
no gradient to X and whose values change nothing. Both directions share one
recurrence loop over time-major buffers, the reverse direction stored in its
own step order. Gradients are exact and are cross-checked against central
finite differences by the gradient-check harness and the test suite.

Every op but ``take_rows`` and ``bilstm_sequence`` records its node through
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


def softmax_rows(a):
    """Row-wise softmax with max subtraction for numerical stability."""
    a = as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    out_data = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        return out_data * (g - (g * out_data).sum(axis=1, keepdims=True))

    return _op(out_data, (a,), rule)


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


def bilstm_sequence(X, fw_W, fw_b, bw_W, bw_b, lengths):
    """Both directions of a BiLSTM over a right-padded batch, as one tape node.

    X is (B, T, D) and sequence k is X[k, :lengths[k]]; each W is (D + h, 4h)
    over [x; h] with gate order i|f|o|g and each b is (4h,), which sets the
    hidden size h. Returns (B, T, 2h), the forward states beside the backward
    states. Padding contract: at positions t >= lengths[k] the output is zero,
    X gets zero gradient, and finite values of X change nothing.

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
    B, T, D = X.data.shape
    h = fw_b.data.shape[0] // 4
    lengths = np.asarray(lengths, dtype=np.intp)
    pad = np.arange(T)[:, None] >= lengths      # (T, B), time order
    pad2 = np.stack([pad, pad[::-1]], axis=1)   # (T, 2, B), step order
    Xt = X.data.transpose(1, 0, 2).reshape(T * B, D)

    A = np.empty((T, 2, B, 4 * h))
    np.add((Xt @ fw_W.data[:D]).reshape(T, B, 4 * h), fw_b.data, out=A[:, 0])
    np.add((Xt @ bw_W.data[:D]).reshape(T, B, 4 * h)[::-1], bw_b.data, out=A[:, 1])
    del Xt              # backward rebuilds it rather than hold a copy
    A[pad2] = 0.0       # assignment, not a product, so no inf or nan survives
    A[..., :3 * h] *= 0.5

    keep = _GRAD_ENABLED and any(t.requires_grad for t in parents)
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
    if not keep:
        return Tensor(out)

    def bw(g):
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
                 .reshape(T, B, D).transpose(1, 0, 2))
        Xt = X.data.transpose(1, 0, 2).reshape(T * B, D)
        for W, b, dz, h_prev in ((fw_W, fw_b, dZf, H[:-1, 0]),
                                 (bw_W, bw_b, dZb, H[-2::-1, 1])):
            if W.requires_grad:
                _acc(W, _weight_grad(Xt, h_prev.reshape(T * B, h), dz))
            if b.requires_grad:
                _acc(b, dz.sum(axis=0))

    return _node(out, parents, bw)


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
