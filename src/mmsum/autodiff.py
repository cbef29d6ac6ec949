"""Minimal reverse-mode automatic differentiation over numpy arrays.

Float64 tape with just the operations the summarizer needs: broadcasting
add and mul, sums, row gather/scatter, a few shape utilities, and fused
layers, each a single node: ``dense`` (act(X @ W + b)); the attention
scores ``bilinear`` (gated projection) and ``additive_score`` (Bahdanau,
Cho & Bengio, arXiv:1409.0473); ``attend``, the row softmax and the
weighted sum of values; ``tensor_fusion``, the [s; 1] (x) [c; 1] product
(Zadeh et al., arXiv:1707.07250); ``late_decision``, the late(+) fusion
penalties, pair and decision head; the loss nodes ``log_likelihood_sum``,
the clipped Bernoulli log-likelihood summed and then scaled (the CE loss
and the REINFORCE surrogate), and ``weighted_sum``, the mix of the two
losses; and ``bilstm_sequences``, both directions of a BiLSTM over each of
several groups of sequences with their own weights, each group a whole
right-padded batch or one (T, D) sequence, the hidden size read off the
(4h,) bias. The BiLSTM's padding contract: the output is zero at padded
positions, which send no gradient to X and whose values change nothing. A
group with no sequence shorter than T has no padding, and skips the masks.
All directions of all groups share one recurrence loop over time-major
buffers, the reverse direction stored in its own step order. Sorted longest
first, the groups run in phases: a phase covers the steps in which the same
groups are live, over contiguous buffers of just those groups, and a phase
of one group runs exactly as a one-group node does. Gradients are exact and
are cross-checked against central finite differences by the
gradient-check harness and the test suite.

``add``, ``mul``, ``tsum``, ``concat`` and ``reshape`` record their node
through ``_op``: an op gives its forward value and one gradient rule per
parent, and the builder does the rest of the backward bookkeeping.
``take_rows`` and the fused layers give ``_node`` a hand-written backward.
The fused layers compute the same numpy expressions in the same order as
the compositions of single ops they stand for, and list their parents so
that backward walks the rest of the graph in the same order, so values and
gradients are bitwise those of the compositions. A loss node replays its
composition's chain of scalar products in order, forward and backward.
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

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


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


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data + b.data, (a, b), _identity, _identity)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data * b.data, (a, b), lambda g: g * b.data, lambda g: g * a.data)


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


# activation name -> (forward, rule mapping the upstream gradient g and the
# output y to the input's gradient)
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda g, y: g * (1.0 - y * y)),
    "sigmoid": (_sigmoid, lambda g, y: g * y * (1.0 - y)),
}


def tsum(a, axis=None):
    a = as_tensor(a)

    def rule(g):
        kept = g if axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(kept, a.data.shape)

    return _op(a.data.sum(axis=axis), (a,), rule)


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


def dense(X, W, b, act):
    """act(X @ W + b) as one node, with act "tanh" or "sigmoid". W is (D, F),
    or (D,) for one output unit, and b broadcasts against X @ W. Backward
    keeps only the output, which both activations' derivatives read."""
    X, W, b = parents = as_tensor(X), as_tensor(W), as_tensor(b)
    f, rule = _ACTIVATIONS[act]
    out = f(X.data @ W.data + b.data)

    def bw(g):
        dz = rule(g, out)
        if X.requires_grad:
            _acc(X, _grad_left(dz, X.data, W.data))
        if W.requires_grad:
            _acc(W, _grad_right(dz, X.data, W.data))
        if b.requires_grad:
            _acc(b, _unbroadcast(dz, b.data.shape))

    return _node(out, parents, bw)


def bilinear(r, q, V):
    """The gated-projection score (r*V) @ q.T + q @ V + (r @ V)[:, None] of
    (NQ, d) rows r against (NK, d) rows q with a (d,) weight V, (NQ, NK), as
    one node. Backward adds each parent's terms in the order that the
    composition of single ops for that expression does, and the tape lists q
    before r so that backward runs q's subgraph first, as it does there;
    both keep the gradients bitwise equal to the composition's."""
    r, q, V = as_tensor(r), as_tensor(q), as_tensor(V)
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

    return _node(out, (q, r, V), bw)


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


def late_decision(f, g, head=None, beta=None, prose=False):
    """The late-fusion decision over the (n,) unimodal scores f and g, (n,),
    as one node. The pair [a, b] goes through the decision head ``head`` =
    (W1, b1, w2, b2), a tanh dense layer and then a sigmoid one, or is
    averaged when ``head`` is None. Without ``beta`` the pair is [f, g]. With
    it, each score is scaled by a confidence penalty, a = (1 - g)^beta f and
    b = (1 - f)^beta g, or with ``prose`` a = f^beta f and b = g^beta g; a
    zero base gets slope 0, and beta = 0 sends no gradient through the
    penalty. Backward gives f and g each term in the order of the
    composition of single ops for the same expression."""
    f, g = as_tensor(f), as_tensor(g)
    head = () if head is None else tuple(as_tensor(t) for t in head)
    n = f.data.shape[0]
    if beta is None:
        a, b = f.data, g.data
    else:
        p = float(beta)
        bases = (f.data, g.data) if prose else (1.0 - g.data, 1.0 - f.data)
        ws, wc = np.power(bases[0], p), np.power(bases[1], p)
        a, b = ws * f.data, wc * g.data
    pair = np.concatenate([a.reshape(n, 1), b.reshape(n, 1)], axis=1)
    if head:
        W1, b1, w2, b2 = head
        hid = np.tanh(pair @ W1.data + b1.data)
        out = _sigmoid(hid @ w2.data + b2.data)
    else:
        out = pair.sum(axis=1) * (1.0 / 2)

    def bw(u):
        if head:
            dz2 = _ACTIVATIONS["sigmoid"][1](u, out)
            dz1 = _ACTIVATIONS["tanh"][1](_grad_left(dz2, hid, w2.data), hid)
            for X, W, bias, dz in ((hid, w2, b2, dz2), (pair, W1, b1, dz1)):
                if W.requires_grad:
                    _acc(W, _grad_right(dz, X, W.data))
                if bias.requires_grad:
                    _acc(bias, _unbroadcast(dz, bias.data.shape))
            d_pair = _grad_left(dz1, pair, W1.data)
            ga, gb = d_pair[:, 0], d_pair[:, 1]
        else:
            ga = gb = u * (1.0 / 2)
        if beta is None:
            f_terms, g_terms = [ga], [gb]
        elif p == 0.0:      # constant penalties
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

    return _node(out, (f, g) + head, bw)


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
        dz = _ACTIVATIONS["tanh"][1](_grad_left(g, t, V.data), t)
        if b.requires_grad:
            _acc(b, _unbroadcast(dz, b.data.shape))
        d = t.shape[2]
        for x, W, shape in ((q, W_q, (nq, 1, d)), (k, W_k, (1, nk, d))):
            dxw = _unbroadcast(dz, shape).reshape(x.data.shape[0], d)
            if x.requires_grad:
                _acc(x, _grad_left(dxw, x.data, W.data))
            if W.requires_grad:
                _acc(W, _grad_right(dxw, x.data, W.data))

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
        for x, own, other in ((S, s1, c1), (C, c1, s1)):
            if x.requires_grad:
                _acc(x, _unbroadcast(g * other, own.shape).reshape(n, -1)[:, :-1])

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
    """The recurrence of one phase of ``bilstm_sequences`` over its step-major
    buffers, in place. A, (S, 4, *lead, B, h) and gate-major within a step,
    holds the input pre-activations with i|f|o halved and becomes the gate
    activations; lead is (2,), the directions, for one group and (n, 2) for n
    groups. Wh, (*lead, h, 4h), holds the recurrent weights with i|f|o
    halved, so each step's recurrent product is one matmul batched over the
    directions and stacked over the groups. From H[0] and C[0], H[s + 1],
    C[s + 1] and TC[s] get the state, cell and tanh(cell) after step s."""
    *lead, B, h = H.shape[1:]
    hz, ig = np.empty((*lead, B, 4 * h)), np.empty(H.shape[1:])
    hz4 = _to_front(hz.reshape(*lead, B, 4, h), -2)     # gate-major view
    c_prev = C[0]       # then each step's c
    for a, i, f, o, g, c, tc, h_prev, h_next in zip(
            A, *A.swapaxes(0, 1), C[1:], TC, H, H[1:]):
        np.matmul(h_prev, Wh, out=hz)
        a += hz4
        np.tanh(a, out=a)
        ifo = a[:3]
        ifo *= 0.5
        ifo += 0.5
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_next)
        c_prev = c


def _gate_grads(A, C, TC):
    """The gate derivatives of one phase for its BPTT loop: dZ, (*lead, S, B,
    4h) with the steps inside for the weight GEMMs, and its step-major view
    hold [i, f, 0, g] derivatives (the loop scales all four gates by dc and
    then overwrites o, so the o column starts at zero rather than unset),
    beside the o derivative and dc/dh. The products swap operands at most:
    I * (1 - I) is taken as (1 - I) * I and O * (1 - TC^2) as
    (1 - TC^2) * O, which are bitwise the same."""
    S, _, *lead, B, h = A.shape
    I, F, O, G = A.swapaxes(0, 1)
    dZ = np.zeros((*lead, S, B, 4 * h))
    local = _to_front(dZ, -3)
    not_ifo = 1.0 - A[:, :3]
    local_o = TC * O
    local_o *= not_ifo[:, 2]
    not_ifo[:, :2] *= A[:, :2]
    np.multiply(G, not_ifo[:, 0], out=local[..., :h])
    np.multiply(C[:-1], not_ifo[:, 1], out=local[..., h:2 * h])
    local_g = local[..., 3 * h:]
    np.multiply(G, G, out=local_g)
    np.subtract(1.0, local_g, out=local_g)
    local_g *= I
    dc_dh = TC * TC
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= O
    return dZ, local, local_o, dc_dh


def _weight_grad(x, h_prev, dz):
    """The gradient [x, h_prev]^T dz of a (D + h, 4h) LSTM weight, written
    into one array by two GEMMs."""
    dW = np.empty((x.shape[1] + h_prev.shape[1], dz.shape[1]))
    np.matmul(x.T, dz, out=dW[:x.shape[1]])
    np.matmul(h_prev.T, dz, out=dW[x.shape[1]:])
    return dW


def _joined(parts):
    """Per-phase pieces of one group's buffer as one array: the piece itself
    when the group is live in one phase, else one copy."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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

    A group is (X, fw_W, fw_b, bw_W, bw_b) or (..., lengths), with its own
    weights. X is a right-padded (B, T, D) batch whose sequence k is
    X[k, :lengths[k]] (whole when ``lengths`` is None or missing), or one
    (T, D) sequence; each W is (D + h, 4h) over [x; h] with gate order
    i|f|o|g and each b is (4h,), which sets the hidden size h. A group maps to
    (B, T, 2h), or (T, 2h), the forward states beside the backward states. B
    and h are shared by all groups; T and D are each group's own. Padding
    contract: at positions t >= lengths[k] the output is zero, X gets zero
    gradient, and finite values of X change nothing.

    The recurrence runs over time-major buffers indexed by step. Direction 0
    is stored in time order and direction 1 in its own step order (step s
    reads time T-1-s), so both directions of a group are live exactly for
    s < T. The groups are sorted longest first, stably, and the steps cut
    into phases: a phase covers the steps in which its first n groups are
    live, over contiguous (S, n, 2, B, .) buffers, group-major, so that the
    first groups' rows and weights are a contiguous prefix; each step's
    recurrent product is one matmul, batched over the two directions and
    stacked over the n groups' weights. A phase's last state carries into the
    next as its first groups' rows, and backward carries dh and dc back the
    same way, from zero for the groups that join. A phase of one group runs
    on (S, 2, B, .) views, the arrays of a one-group node. Gates are
    gate-major within a step, (S, 4, n, 2, B, h), so each gate's slice of a
    step is contiguous too. Input pre-activations are zeroed at padding; a
    step with zero input from h = c = 0 stays at 0, so the reverse direction
    starts from zeros at each sequence's last token. Zeroing the output, the
    upstream gradient and dZ at padding, outside the loop, cuts off the
    forward direction's trailing padding. A group with no sequence shorter
    than T skips the masks.

    sigmoid(z) = 0.5 tanh(z / 2) + 0.5, so the i|f|o pre-activations are
    halved (exact in binary) and one tanh covers all four gates. The input
    GEMMs and the X, weight and bias gradients run per group over its own T
    rows, each with the shape a one-group node gives it. The cell states and
    tanh(c) are kept per step only when a gradient is recorded. Backward is
    hand-written BPTT over both directions, the phases walked last first.
    Several groups share one flat output, handed out by a slice node per
    group. Parents are listed last group first, so backward walks the last
    group's input first.
    """
    seqs, parents = [], ()
    for group in groups:
        ts = tuple(map(as_tensor, group[:5]))
        x = ts[0].data if ts[0].data.ndim == 3 else ts[0].data[None]
        pad2 = None
        if len(group) > 5 and group[5] is not None:
            lengths = np.asarray(group[5], dtype=np.intp)
            if (lengths < x.shape[1]).any():
                pad = np.arange(x.shape[1])[:, None] >= lengths     # (T, B), time order
                pad2 = np.stack([pad, pad[::-1]], axis=1)   # (T, 2, B), step order
        seqs.append((x.shape[1], x, ts, pad2))
        parents = ts + parents
    B, h = seqs[0][1].shape[0], seqs[0][2][2].data.shape[0] // 4
    keep = _GRAD_ENABLED and any(t.requires_grad for t in parents)
    start = [0]         # group k's (B, T, 2h) block of the one flat output
    for s in seqs:
        start.append(start[-1] + B * s[0] * 2 * h)
    flat = np.empty(start[-1])
    # longest first, stably; (s0, s1, n) in step order: steps s0 <= s < s1
    # run the first n sorted groups
    order = sorted(range(len(seqs)), key=[s[0] for s in seqs].__getitem__, reverse=True)
    phases, s0 = [], 0
    for n in range(len(order), 0, -1):
        s1 = seqs[order[n - 1]][0]
        if s1 > s0:
            phases.append((s0, s1, n))
            s0 = s1
    As = [np.empty((s1 - s0, 4, n, 2, B, h)) for s0, s1, n in phases]
    # the recurrent weights as one C-order array, by copies (``np.stack``
    # costs several times more per call)
    Wh = np.empty((len(order), 2, h, 4 * h))
    outs = [None] * len(seqs)
    sorted_seqs = []    # (phases live, pad2, output, output in step order)
    for j, k in enumerate(order):
        T, x, (X, fw_W, fw_b, bw_W, bw_b), pad2 = seqs[k]
        D = x.shape[2]
        Wh[j, 0], Wh[j, 1] = fw_W.data[D:], bw_W.data[D:]
        Xt = x.transpose(1, 0, 2).reshape(T * B, D)
        zf = (Xt @ fw_W.data[:D]).reshape(T, B, 4, h)
        zb = (Xt @ bw_W.data[:D]).reshape(T, B, 4, h)[::-1]
        live = 0
        for (s0, s1, n), A in zip(phases, As):
            if n <= j:
                break
            live += 1
            Ag = A.transpose(0, 2, 3, 4, 1, 5)[:, j]    # (S, 2, B, 4, h), the GEMMs' order
            np.add(zf[s0:s1], fw_b.data.reshape(4, h), out=Ag[:, 0])
            np.add(zb[s0:s1], bw_b.data.reshape(4, h), out=Ag[:, 1])
            if pad2 is not None:    # assignment, so no inf or nan survives
                Ag[pad2[s0:s1]] = 0.0
        out = flat[start[k]:start[k + 1]].reshape(B, T, 2 * h)
        sorted_seqs.append((live, pad2, out, out[:, ::-1]))
        outs[k] = out if X.data.ndim == 3 else out[0]
    del Xt, zf, zb      # backward rebuilds Xt rather than hold a copy
    for A in As:
        A[:, :3] *= 0.5
    WhT = Wh.copy() if keep else None   # backward's, not halved
    Wh[..., :3 * h] *= 0.5

    Hs, Cs, TCs = [], [], []
    for (s0, s1, n), A in zip(phases, As):
        H = np.empty((s1 - s0 + 1, n, 2, B, h))     # H[s + 1]: state after step s
        C = _step_buffer(s1 - s0 + 1, (n, 2, B, h), keep)
        TC = _step_buffer(s1 - s0, (n, 2, B, h), keep)
        H[0] = Hs[-1][-1, :n] if Hs else 0.0
        C[0] = Cs[-1][-1, :n] if Cs else 0.0
        if n == 1:
            _lstm_steps(A[:, :, 0], Wh[0], H[:, 0], C[:, 0], TC[:, 0])
        else:
            _lstm_steps(A, Wh[:n], H, C, TC)
        for j, (_, _, out, out_steps) in enumerate(sorted_seqs[:n]):
            out[:, s0:s1, :h] = H[1:, j, 0].transpose(1, 0, 2)
            out_steps[:, s0:s1, h:] = H[1:, j, 1].transpose(1, 0, 2)
        Hs.append(H), Cs.append(C), TCs.append(TC)
    if not keep:
        As = None       # nothing reads them again
    for _, pad2, out, _ in sorted_seqs:
        if pad2 is not None:
            out[pad2[:, 0].T] = 0.0
    if not keep:
        return [Tensor(out) for out in outs]

    def bw(g):
        g = g.reshape(-1)
        dZs, carry = [], None
        for p in range(len(phases) - 1, -1, -1):
            (s0, s1, n), A = phases[p], As[p]
            U = np.empty((s1 - s0, n, 2, B, h))     # upstream, in step order
            for j, (_, pad2, _, _) in enumerate(sorted_seqs[:n]):
                gk = g[start[order[j]]:start[order[j] + 1]].reshape(B, -1, 2 * h)
                U[:, j, 0] = gk[:, s0:s1, :h].transpose(1, 0, 2)
                U[:, j, 1] = gk[:, ::-1][:, s0:s1, h:].transpose(1, 0, 2)
                if pad2 is not None:
                    U[:, j][pad2[s0:s1]] = 0.0
            dh, dc, tmp = np.zeros((3, n, 2, B, h))
            if carry is not None:       # the groups that join here start at 0
                dh[:len(carry[0])], dc[:len(carry[0])] = carry
            # a phase of one group runs on the arrays of a one-group node
            Ap, Cp, TCp, Up, dhp, dcp, tmpp, WhTp = (
                (A[:, :, 0], Cs[p][:, 0], TCs[p][:, 0], U[:, 0], dh[0], dc[0], tmp[0], WhT[0])
                if n == 1 else (A, Cs[p], TCs[p], U, dh, dc, tmp, WhT[:n]))
            # a transposed view of a C-order block: a C-order (., 4h, h) copy
            # sends the recurrent product down another BLAS path and changes
            # the gradients in the last bit
            WhTp = WhTp.swapaxes(-1, -2)
            dZ, local, local_o, dc_dh = _gate_grads(Ap, Cp, TCp)
            dc3 = dcp[..., None, :]
            dZ4 = _to_front(dZ.reshape(*dZ.shape[:-1], 4, h), -4)
            # step views in reverse step order; the last step's dh and dc are
            # never read, so its recurrent product is skipped
            for s, u, dcdh, lo, dz, dz4, dz_o, f in zip(
                    range(s1 - 1, s0 - 1, -1), Up[::-1], dc_dh[::-1], local_o[::-1],
                    local[::-1], dZ4[::-1], dZ4[::-1, ..., 2, :],
                    Ap[::-1, 1]):
                dhp += u
                np.multiply(dhp, dcdh, out=tmpp)
                dcp += tmpp
                dz4 *= dc3
                np.multiply(lo, dhp, out=dz_o)
                if s:
                    np.matmul(dz, WhTp, out=dhp)
                    dcp *= f
            carry = dh, dc
            dZ = dZ.reshape(n, 2, s1 - s0, B, 4 * h)
            for j, (_, pad2, _, _) in enumerate(sorted_seqs[:n]):
                if pad2 is not None:
                    dZ[j][pad2[s0:s1].transpose(1, 0, 2)] = 0.0
            dZs.insert(0, dZ)
        for j, (k, (live, _, _, _)) in enumerate(zip(order, sorted_seqs)):
            T, x, (X, fw_W, fw_b, bw_W, bw_b), _ = seqs[k]
            D = x.shape[2]
            # in time order; the reverse direction's is its step order reversed
            dZf = _joined([dZ[j, 0] for dZ in dZs[:live]]).reshape(T * B, 4 * h)
            dZb = _joined([dZ[j, 1, ::-1] for dZ in dZs[live - 1::-1]]).reshape(T * B, 4 * h)
            if X.requires_grad:
                _acc(X, (dZf @ fw_W.data[:D].T + dZb @ bw_W.data[:D].T)
                     .reshape(T, B, D).transpose(1, 0, 2).reshape(X.data.shape))
            Xt = x.transpose(1, 0, 2).reshape(T * B, D)
            # the state before each step
            for W, b, dz, h_prev in (
                    (fw_W, fw_b, dZf, _joined([H[:-1, j, 0] for H in Hs[:live]])),
                    (bw_W, bw_b, dZb, _joined([H[-2::-1, j, 1] for H in Hs[live - 1::-1]]))):
                if W.requires_grad:
                    _acc(W, _weight_grad(Xt, h_prev.reshape(T * B, h), dz))
                if b.requires_grad:
                    _acc(b, dz.sum(axis=0))

    if len(seqs) == 1:
        return [_node(outs[0], parents, bw)]
    node = _node(flat, parents, bw)
    return [_slice_of(node, out, a) for out, a in zip(outs, start)]


def bilstm_sequence(X, fw_W, fw_b, bw_W, bw_b, lengths=None):
    """``bilstm_sequences`` over the one group X: its Tensor alone."""
    return bilstm_sequences([(X, fw_W, fw_b, bw_W, bw_b, lengths)])[0]


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
    """Run reverse-mode accumulation from ``t`` (seeded with ones)."""
    order = _walk(t)
    t.grad = np.ones_like(t.data)
    for node in reversed(order):
        # only ``t`` itself can lack a backward, when it is a leaf
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)
