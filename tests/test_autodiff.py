import contextlib
import multiprocessing
import operator
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

import composed_ops as ops
from composed_ops import outer
from mmsum import autodiff as ad
from mmsum.autodiff import Tensor

mm, tr, pw = ops.matmul, ops.transpose, ops.power


def numeric_grad(fn, x, step=1e-6):
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn()
        flat[i] = orig - step
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return g


@pytest.mark.parametrize("build", [
    lambda a, b: ops.tsum(mm(a, b)),
    lambda a, b: ops.tsum(ops.sub(ops.add(ops.mul(ops.tanh(a), ops.sigmoid(tr(b))), a), tr(b))),
    lambda a, b: ops.tsum(ops.softmax_rows(mm(a, b))),
    lambda a, b: ops.tmean(ops.log(ops.add(ops.sigmoid(mm(a, b)), 1.0))),
    lambda a, b: ops.tsum(pw(ad.concat([a, tr(b)], axis=0), 2.0)),
    lambda a, b: ops.tsum(mm(ops.tanh(ops.add(ops.reshape(a, (3, 1, 4)),
                                              ops.reshape(tr(b), (1, 3, 4)))),
                             ops.tsum(b, axis=1))),
    lambda a, b: ops.tsum(pw(ops.tanh(ad.concat([a, tr(b)], axis=1)), 2.0)),
    lambda a, b: ops.tsum(pw(ops.tanh(ad.concat([ops.reshape(a, (3, 2, 2)),
                                                 ops.reshape(tr(b), (3, 2, 2))], axis=2)),
                             2.0)),
    lambda a, b: ops.tsum(pw(ops.tanh(ad.concat([ops.reshape(a, (3, 2, 2)),
                                                 ops.reshape(tr(b), (3, 2, 2))], axis=-1)),
                             2.0)),
    lambda a, b: ops.tsum(pw(ops.tanh(ops.tsum(ops.mul(a, tr(b)), axis=0)), 2.0)),
    lambda a, b: ops.tsum(ops.mul(ops.tanh(a), ops.tsum(b))),
    lambda a, b: ops.tsum(pw(ops.tanh(ops.sub(a, ops.tsum(b, axis=1))), 2.0)),
    lambda a, b: ops.tsum(pw(ops.tanh(ops.sub(a, ops.reshape(ops.tsum(b, axis=0), (3, 1)))),
                             2.0)),
    lambda a, b: ops.tsum(ops.tanh(ops.mul(a, ops.reshape(ops.tsum(b, axis=0), (3, 1))))),
    lambda a, b: ops.tsum(ops.tanh(ops.mul(a, ops.tsum(b, axis=1)))),
    lambda a, b: ops.tsum(ops.mul(pw(ops.tanh(a), 1.0), tr(b))),
    lambda a, b: ops.tsum(ops.mul(pw(ops.add(ops.sigmoid(a), 0.5), 0.3), tr(b))),
    lambda a, b: ops.tsum(ops.mul(ops.clip(a, -0.5, 0.5), tr(b))),
    lambda a, b: ops.tsum(ops.tanh(outer(ops.tsum(a, axis=1), ops.tsum(b, axis=1)))),
])
def test_composite_gradients_match_finite_differences(build, rng):
    a_data = rng.normal(size=(3, 4))
    b_data = rng.normal(size=(4, 3))
    a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
    loss = build(a, b)
    ad.backward(loss)

    def fn():
        with ad.no_grad():
            return float(build(a, b).data)

    npt.assert_allclose(a.grad, numeric_grad(fn, a.data), rtol=1e-5, atol=1e-7)
    npt.assert_allclose(b.grad, numeric_grad(fn, b.data), rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("a_shape,b_shape", [((3, 4), (4, 2)), ((3, 4), (4,)),
                                              ((4,), (4, 2)), ((4,), (4,))],
                         ids=["2@2", "2@1", "1@2", "1@1"])
def test_matmul_gradients_match_finite_differences(rng, a_shape, b_shape):
    a = Tensor(rng.normal(size=a_shape), requires_grad=True)
    b = Tensor(rng.normal(size=b_shape), requires_grad=True)
    upstream = rng.normal(size=(a.data @ b.data).shape)
    ad.backward(ops.tsum(ops.mul(mm(a, b), upstream)))

    def fn():
        return float(((a.data @ b.data) * upstream).sum())

    npt.assert_allclose(a.grad, numeric_grad(fn, a.data), rtol=1e-6, atol=1e-8)
    npt.assert_allclose(b.grad, numeric_grad(fn, b.data), rtol=1e-6, atol=1e-8)


LABELS = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
POOL_LENGTHS = np.array([7, 1, 4, 7, 2])    # ragged, with a one-token sentence
EPS = 1e-7
SCALES = (1.0 / 6, -1.0)     # ce_loss's mean and sign
HEAD = [(2, 3), (3,), (3,), (1,)]   # the decision head F: W1, b1, w2, b2


def late(beta=None, prose=False, head=True):
    """late_decision and its composition over (f, g, *F), or (f, g) alone when
    there is no head."""
    def pick(op):
        def run(f, g, *F):
            return op(f, g, F if head else None, beta, prose)
        return run
    return pick(ad.late_decision), pick(ops.late_decision_reference)


def first(op):
    return lambda *inputs: op(*inputs)[0]


# name -> (fused op, reference composition, input shapes)
FUSED_OPS = {
    "dense-tanh": (lambda X, W, b: ad.dense(X, W, b, "tanh"),
                   lambda X, W, b: ops.dense_reference(X, W, b, "tanh"),
                   [(4, 3), (3, 5), (5,)]),
    "dense-sigmoid": (lambda X, W, b: ad.dense(X, W, b, "sigmoid"),
                      lambda X, W, b: ops.dense_reference(X, W, b, "sigmoid"),
                      [(4, 3), (3, 5), (5,)]),
    "dense-1d-weight": (lambda X, W, b: ad.dense(X, W, b, "sigmoid"),
                        lambda X, W, b: ops.dense_reference(X, W, b, "sigmoid"),
                        [(4, 3), (3,), (1,)]),
    "dense-1d-weight-one-row": (lambda X, W, b: ad.dense(X, W, b, "tanh"),
                                lambda X, W, b: ops.dense_reference(X, W, b, "tanh"),
                                [(1, 3), (3,), (1,)]),
    "bilinear": (ad.bilinear, ops.bilinear_reference, [(3, 4), (5, 4), (4,)]),
    "bilinear-one-key": (ad.bilinear, ops.bilinear_reference, [(3, 4), (1, 4), (4,)]),
    "log-likelihood": (lambda p: ad.log_likelihood_sum(p, LABELS, EPS),
                       lambda p: ops.log_likelihood_sum_reference(p, LABELS, EPS), [(6,)]),
    "log-likelihood-scaled": (lambda p: ad.log_likelihood_sum(p, LABELS, EPS, SCALES),
                              lambda p: ops.log_likelihood_sum_reference(p, LABELS, EPS,
                                                                         SCALES),
                              [(6,)]),
    "log-likelihood-one-unit": (
        lambda p: ad.log_likelihood_sum(p, LABELS[:1], EPS, SCALES),
        lambda p: ops.log_likelihood_sum_reference(p, LABELS[:1], EPS, SCALES), [(1,)]),
    "weighted-sum": (lambda a, b: ad.weighted_sum((a, b), (0.7, 1.3)),
                     lambda a, b: ops.weighted_sum_reference((a, b), (0.7, 1.3)), [(), ()]),
    "weighted-sum-one-term": (lambda a: ad.weighted_sum((a,), (0.7,)),
                              lambda a: ops.weighted_sum_reference((a,), (0.7,)), [()]),
    "late": (*late(), [(5,), (5,)] + HEAD),
    "late-mean": (*late(head=False), [(5,), (5,)]),
    "late-plus": (*late(0.3), [(5,), (5,)] + HEAD),
    "late-plus-mean": (*late(0.3, head=False), [(5,), (5,)]),
    "late-plus-prose": (*late(0.5, prose=True), [(5,), (5,)] + HEAD),
    "late-plus-beta-0": (*late(0.0), [(5,), (5,)] + HEAD),
    "late-plus-beta-1": (*late(1.0), [(5,), (5,)] + HEAD),
    "late-plus-prose-beta-2": (*late(2.0, prose=True), [(5,), (5,)] + HEAD),
    "late-plus-one-row": (*late(0.3), [(1,), (1,)] + HEAD),
    "attend": (first(ad.attend), first(ops.attend_reference), [(3, 5), (5, 4)]),
    "attend-one-key": (first(ad.attend), first(ops.attend_reference), [(3, 1), (1, 4)]),
    "attend-one-query": (first(ad.attend), first(ops.attend_reference), [(1, 5), (5, 4)]),
    "additive-score": (ad.additive_score, ops.additive_score_reference,
                       [(3, 4), (5, 2), (4, 3), (2, 3), (3,), (3,)]),
    "additive-score-one-key": (ad.additive_score, ops.additive_score_reference,
                               [(3, 4), (1, 2), (4, 3), (2, 3), (3,), (3,)]),
    "additive-score-one-query": (ad.additive_score, ops.additive_score_reference,
                                 [(1, 4), (5, 2), (4, 3), (2, 3), (3,), (3,)]),
    "tensor-fusion": (ad.tensor_fusion, ops.tensor_fusion_reference, [(3, 4), (3, 2)]),
    "tensor-fusion-one-row": (ad.tensor_fusion, ops.tensor_fusion_reference,
                              [(1, 4), (1, 2)]),
    "bilstm-one-sequence": (lambda *ts: ad.bilstm_sequences([(*ts, None)])[0],
                            ops.bilstm_sequence_reference,
                            [(4, 3), (5, 8), (8,), (5, 8), (8,)]),
    "mean-pool": (lambda X: ad.mean_pool(X, POOL_LENGTHS),
                  lambda X: ops.mean_pool_reference(X, POOL_LENGTHS), [(5, 7, 3)]),
    "sum-pool": (lambda X: ad.mean_pool(X, POOL_LENGTHS, mean=False),
                 lambda X: ops.mean_pool_reference(X, POOL_LENGTHS, mean=False),
                 [(5, 7, 3)]),
    "concat-rows": (lambda *parts: ad.concat(parts), lambda *parts: ops.concat(parts),
                    [(2, 3), (1, 3), (4, 3)]),
    "concat-columns": (lambda a, b: ad.concat([a, b], axis=1),
                       lambda a, b: ops.concat([a, b], axis=1), [(3, 4), (3, 2)]),
}


def fused_inputs(rng, name):
    """Data for the inputs of one fused op; probabilities for the
    log-likelihood and for the scores f and g of a late-fusion decision."""
    shapes = FUSED_OPS[name][2]
    n_probs = (1 if name.startswith("log-likelihood")
               else 2 if name.startswith("late") else 0)
    return ([rng.uniform(0.05, 0.95, size=shape) for shape in shapes[:n_probs]]
            + [rng.normal(size=shape) for shape in shapes[n_probs:]])


@pytest.mark.parametrize("name", FUSED_OPS)
def test_fused_op_is_bitwise_its_composition(rng, name):
    """Output and every input gradient equal those of the composition of
    single ops it replaces, bit for bit."""
    fused, reference, _ = FUSED_OPS[name]
    data = fused_inputs(rng, name)
    runs = []
    for op in (fused, reference):
        inputs = [Tensor(a, requires_grad=True) for a in data]
        out = op(*inputs)
        upstream = np.random.default_rng(1).normal(size=out.shape)
        ad.backward(ops.tsum(ops.mul(out, upstream)))
        runs.append([(t.shape, t.tobytes()) for t in [out.data] + [t.grad for t in inputs]])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", FUSED_OPS)
def test_fused_op_gradients_match_finite_differences(rng, name):
    fused = FUSED_OPS[name][0]
    inputs = [Tensor(a, requires_grad=True) for a in fused_inputs(rng, name)]
    upstream = rng.normal(size=fused(*inputs).shape)
    ad.backward(ops.tsum(ops.mul(fused(*inputs), upstream)))

    def fn():
        with ad.no_grad():
            return float((fused(*inputs).data * upstream).sum())

    for t in inputs:
        npt.assert_allclose(t.grad, numeric_grad(fn, t.data), rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("mean", [True, False], ids=["mean", "sum"])
def test_mean_pool_is_bitwise_the_sum_and_product_nodes(rng, mean):
    """The pool node's value, and the gradient into the word states, equal
    those of a ``tsum`` node over the steps followed, for the mean, by a
    ``mul`` node by 1 / length: over a ragged batch, zero at padding, with a
    one-token sentence, through the word BiLSTM to its input and weights."""
    lengths = POOL_LENGTHS
    x = rng.normal(size=(len(lengths), lengths.max(), 3))
    weights = [rng.uniform(-0.5, 0.5, size=s) for s in ((3 + 4, 16), 16) * 2]
    upstream = rng.normal(size=(len(lengths), 8))
    upstream[:, ::3] = -0.0
    runs = []
    for pool in (ad.mean_pool, ops.mean_pool_reference):
        X = Tensor(x, requires_grad=True)
        params = [Tensor(w, requires_grad=True) for w in weights]
        states = ad.bilstm_sequences([(X, *params, lengths)])[0]
        out = pool(states, lengths, mean)
        ad.backward(ops.tsum(ops.mul(out, upstream)))
        runs.append([out.data, states.grad, X.grad] + [p.grad for p in params])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_concat_is_bitwise_the_op_concat(rng, axis):
    """The concat node's value and each part's gradient are those of the
    concat that recorded one slicing rule per part, and a part that needs no
    gradient gets none."""
    wide = [2, 3, 4]
    wide[axis] = 5
    data = [rng.normal(size=shape) for shape in ((2, 3, 4), wide, (2, 3, 4))]
    runs = []
    for op in (ad.concat, ops.concat):
        parts = [Tensor(a, requires_grad=k != 2) for k, a in enumerate(data)]
        out = op(parts, axis=axis)
        ad.backward(ops.tsum(ops.mul(out, np.random.default_rng(1).normal(size=out.shape))))
        runs.append([out.data] + [p.grad for p in parts[:2]])
        assert parts[2].grad is None
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_log_likelihood_gradient_is_zero_where_p_is_clipped():
    p = Tensor(np.array([0.0, 1.0, 0.3, 0.0, 1.0, 0.6]), requires_grad=True)
    ad.backward(ad.log_likelihood_sum(p, LABELS, EPS, SCALES))
    ref = Tensor(p.data, requires_grad=True)
    ad.backward(ops.log_likelihood_sum_reference(ref, LABELS, EPS, SCALES))
    npt.assert_array_equal(p.grad[[0, 1, 3, 4]], 0.0)
    assert np.all(p.grad[[2, 5]] != 0.0)
    npt.assert_array_equal(p.grad, ref.grad)


@pytest.mark.parametrize("name", FUSED_OPS)
def test_fused_op_records_nothing_under_no_grad(rng, name):
    inputs = [Tensor(a, requires_grad=True) for a in fused_inputs(rng, name)]
    with ad.no_grad():
        out = FUSED_OPS[name][0](*inputs)
    assert not out.requires_grad
    assert out._bw is None and out._parents == ()


# name -> larger input shapes, at which the arrays a recorded node keeps for
# backward dwarf the interpreter's own allocations
LARGE_INPUTS = {
    "late-plus": [(4000,), (4000,)] + HEAD,
    "attend": [(60, 80), (80, 30)],
    "additive-score": [(30, 8), (40, 6), (8, 16), (6, 16), (16,), (16,)],
    "tensor-fusion": [(500, 8), (500, 6)],
}


@pytest.mark.parametrize("name", LARGE_INPUTS)
def test_fused_op_keeps_no_arrays_under_no_grad(rng, name):
    """Under ``no_grad`` a fused op holds nothing but what it returns once
    it is done; a recorded call keeps the arrays its backward reads."""
    fused = FUSED_OPS[name][0]
    shapes = LARGE_INPUTS[name]
    n_probs = 2 if name.startswith("late") else 0
    inputs = [Tensor(rng.uniform(0.05, 0.95, size=shape) if k < n_probs
                     else rng.normal(size=shape), requires_grad=True)
              for k, shape in enumerate(shapes)]

    def held(recording):
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if recording else ad.no_grad():
                # attend also returns its weights
                outs = ad.attend(*inputs) if name == "attend" else (fused(*inputs),)
            returned = sum(np.asarray(getattr(o, "data", o)).nbytes for o in outs)
            return tracemalloc.get_traced_memory()[0] - returned
        finally:
            tracemalloc.stop()

    assert held(False) < 4 * 1024
    if name != "attend":    # its backward reads only the weights it returns
        assert held(True) > 16 * 1024


@pytest.mark.parametrize("prose", [False, True])
def test_late_decision_at_saturated_scores(prose):
    """f or g exactly 1 (or 0 with ``prose``) makes a penalty base 0: the
    slope of base**beta there counts as 0, the gradients stay finite and
    equal the composition's bit for bit, and a zero penalty shuts the score
    it scales out of the decision."""
    one = 0.0 if prose else 1.0
    data = [np.array([one, 0.3, 0.6, one]), np.array([0.2, one, one, 0.7])]
    F = [np.random.default_rng(2).normal(size=shape) for shape in HEAD]
    runs = []
    for op in (ad.late_decision, ops.late_decision_reference):
        f, g, *head = [Tensor(a, requires_grad=True) for a in data + F]
        out = op(f, g, head, 0.3, prose)
        ad.backward(ops.tsum(out))
        assert np.all(np.isfinite(f.grad)) and np.all(np.isfinite(g.grad))
        runs.append([t.tobytes() for t in [out.data, f.grad, g.grad]
                     + [p.grad for p in head]])
    assert runs[0] == runs[1]
    if not prose:   # rows 1 and 2 have g == 1, so f gets weight 0
        mean = ad.late_decision(Tensor(data[0]), Tensor(data[1]), None, 0.3).data
        npt.assert_allclose(mean[[1, 2]], 0.5 * (1.0 - data[0][[1, 2]]) ** 0.3,
                            rtol=0, atol=1e-15)


def bilstm_params(rng, D, h, scale=0.6):
    """fw_W, fw_b, bw_W, bw_b of a BiLSTM, uniform in [-scale, scale]."""
    return [Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)
            for shape in ((D + h, 4 * h), 4 * h) * 2]


def upstream_on_half(rng, B, T, h, reverse):
    """An upstream gradient for a (B, T, 2h) BiLSTM output that reaches only
    the forward half, or with ``reverse`` only the reverse half."""
    g = rng.normal(size=(B, T, 2 * h))
    g[:, :, slice(0, h) if reverse else slice(h, 2 * h)] = 0.0
    return g


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_ignores_values_at_padding(rng, reverse):
    """For a one-group ``bilstm_sequences``, with the upstream gradient on one direction's
    half, batches that differ only in X at padded positions give bitwise-equal
    outputs and X/W/b gradients."""
    B, T, D, h = 4, 5, 2, 3
    lengths = [5, 2, 1, 3]
    pad = np.arange(T)[None, :] >= np.array(lengths)[:, None]
    x = rng.normal(size=(B, T, D))
    data = [p.data for p in bilstm_params(rng, D, h)]
    upstream = upstream_on_half(rng, B, T, h, reverse)
    runs = []
    for padding_values in (np.zeros((B, T, D)), 50.0 * rng.normal(size=(B, T, D))):
        X = Tensor(np.where(pad[:, :, None], padding_values, x), requires_grad=True)
        params = [Tensor(a, requires_grad=True) for a in data]
        out = ad.bilstm_sequences([(X, *params, lengths)])[0]
        ad.backward(ops.tsum(ops.mul(out, upstream)))
        runs.append([t.tobytes() for t in [out.data, X.grad] + [p.grad for p in params]])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("lengths", [[4, 2, 1], [4, 4, 4]], ids=["ragged", "full"])
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_gradients_match_finite_differences(rng, reverse, lengths):
    """One-group ``bilstm_sequences`` gradients, with the upstream gradient on one
    direction's half; the other direction's W and b get zero gradient."""
    B, T, D, h = 3, 4, 2, 3
    X = Tensor(rng.normal(size=(B, T, D)), requires_grad=True)
    params = bilstm_params(rng, D, h)
    upstream = upstream_on_half(rng, B, T, h, reverse)
    ad.backward(ops.tsum(ops.mul(ad.bilstm_sequences([(X, *params, lengths)])[0],
                                 upstream)))

    def fn():
        with ad.no_grad():
            out = ad.bilstm_sequences([(X, *params, lengths)])[0]
            return float((out.data * upstream).sum())

    for t in [X] + params:
        npt.assert_allclose(t.grad, numeric_grad(fn, t.data), rtol=1e-6, atol=1e-8)
    for idle in params[:2] if reverse else params[2:]:
        npt.assert_array_equal(idle.grad, 0.0)


def test_bilstm_sequence_without_lengths_runs_every_sequence_whole(rng):
    X = rng.normal(size=(3, 4, 2))
    params = bilstm_params(rng, 2, 3)
    with ad.no_grad():
        whole = ad.bilstm_sequences([(X, *params, None)])[0].data
        given = ad.bilstm_sequences([(X, *params, [4, 4, 4])])[0].data
        single = ad.bilstm_sequences([(X[1], *params, None)])[0].data
    assert whole.tobytes() == given.tobytes()
    assert single.shape == (4, 6)
    npt.assert_allclose(single, whole[1], rtol=0, atol=1e-15)


def test_broadcast_add_unbroadcasts_gradient(rng):
    m = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    row = Tensor(rng.normal(size=4), requires_grad=True)
    loss = ops.tsum(ops.mul(ops.add(m, row), 2.0))
    ad.backward(loss)
    npt.assert_allclose(m.grad, np.full((3, 4), 2.0))
    npt.assert_allclose(row.grad, np.full(4, 6.0))


def test_tensor_has_no_operators():
    """Every op records its node through a function: ``+`` and ``*`` on a
    Tensor raise TypeError, from either side, with an ndarray too."""
    t = Tensor(np.ones(2), requires_grad=True)
    for op in (lambda: t + t, lambda: t * 2.0, lambda: 2.0 * t,
               lambda: np.ones(2) * t, lambda: t + np.ones(2)):
        with pytest.raises(TypeError):
            op()


def test_take_rows_scatter_adds():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.take_rows(table, [0, 2, 0])
    ad.backward(ops.tsum(out))
    npt.assert_allclose(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_outer_gradients(rng):
    u = Tensor(rng.normal(size=3), requires_grad=True)
    v = Tensor(rng.normal(size=2), requires_grad=True)
    w = rng.normal(size=(3, 2))
    loss = ops.tsum(ops.mul(outer(u, v), w))
    ad.backward(loss)
    npt.assert_allclose(u.grad, w @ v.data)
    npt.assert_allclose(v.grad, u.data @ w)


def test_power_zero_exponent_has_zero_gradient():
    x = Tensor(np.array([0.0, 0.5, 1.0]), requires_grad=True)
    out = pw(x, 0.0)
    npt.assert_array_equal(out.data, np.ones(3))
    ad.backward(ops.tsum(out))
    assert x.grad is None  # constant output: no gradient contribution


def test_power_fractional_at_zero_is_finite():
    x = Tensor(np.array([0.0, 0.25]), requires_grad=True)
    ad.backward(ops.tsum(pw(x, 0.3)))
    assert np.all(np.isfinite(x.grad))
    npt.assert_array_equal(ad._power_grad(np.ones(2), x.data, 0.3), x.grad)


def test_reused_tensor_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = ops.tsum(ops.add(ops.mul(x, x), x))
    ad.backward(loss)
    npt.assert_allclose(x.grad, [5.0])  # 2x + 1


def test_no_grad_skips_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ops.mul(ops.tsum(ops.mul(x, x)), 2.0)
    assert not out.requires_grad
    assert out._bw is None


def test_clip_blocks_gradient_outside_bounds():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    ad.backward(ops.tsum(ops.clip(x, 0.0, 1.0)))
    npt.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_softmax_rows_sum_to_one(rng):
    e = Tensor(rng.normal(size=(5, 7)) * 10)
    p = ops.softmax_rows(e)
    npt.assert_allclose(p.data.sum(axis=1), np.ones(5), atol=1e-12)
    _, weights = ad.attend(e, Tensor(np.eye(7)))
    npt.assert_array_equal(weights, p.data)


# name -> (B, T, lengths) of a BiLSTM input; B = 0 is one (T, D) sequence
ORACLE_BATCHES = {
    "one-step": (0, 1, None),
    "one-sequence": (0, 24, None),
    "ragged": (5, 7, [7, 2, 1, 5, 3]),
    "lengths-all-T": (3, 6, [6, 6, 6]),
    "no-lengths": (3, 6, None),
}


@pytest.mark.parametrize("recording", ["all", "x-without-grad", "no-grad"])
@pytest.mark.parametrize("batch", ORACLE_BATCHES)
def test_bilstm_sequence_is_bytewise_its_oracle(rng, batch, recording):
    """The output and every gradient of a one-group ``bilstm_sequences`` are
    byte for byte those of the node it replaced
    (``composed_ops.bilstm_sequence_oracle``),
    signed zeros included: with and without padding, with X a constant (the
    frame encoder's input), and under ``no_grad``."""
    B, T, lengths = ORACLE_BATCHES[batch]
    D, h = 5, 16
    shape = (B, T) if B else (T,)
    x = rng.normal(size=shape + (D,))
    weights = [rng.uniform(-0.5, 0.5, size=s) for s in ((D + h, 4 * h), 4 * h) * 2]
    upstream = rng.normal(size=shape + (2 * h,))
    upstream[..., ::7] = -0.0
    runs = []
    for op in (lambda *group: ad.bilstm_sequences([group])[0],
               ops.bilstm_sequence_oracle):
        X = Tensor(x, requires_grad=recording == "all")
        params = [Tensor(w, requires_grad=True) for w in weights]
        with ad.no_grad() if recording == "no-grad" else contextlib.nullcontext():
            out = op(X, *params, lengths)
        if recording != "no-grad":
            ad.backward(ops.tsum(ops.mul(out, upstream)))
        grads = [t.grad for t in [X] + params]
        runs.append([out.data.tobytes()] + [None if g is None else g.tobytes()
                                            for g in grads])
    assert runs[0] == runs[1]
    assert (runs[0][1] is None) == (recording != "all")
    assert all(g is not None for g in runs[0][2:]) == (recording != "no-grad")


# name -> (B, h, (T, D, lengths) of each group[, (weight bound, input scale)]);
# B = 0 gives each group one (T, D) sequence, as the sentence, frame and
# transcript encoders of a sample have. The paper entries are a sample and a
# ragged word batch at the paper's shape. "saturated" draws weights in [-4, 4]
# and inputs 3 times as wide, which puts about 21% of the gates at exactly 0
# or 1 (or -1, for g).
GROUPED_BATCHES = {
    "equal-lengths": (0, 8, [(6, 3, None), (6, 5, None), (6, 7, None)]),
    "tied-lengths": (0, 8, [(4, 3, None), (9, 5, None), (4, 7, None)]),
    "distinct-lengths": (0, 8, [(5, 3, None), (8, 5, None), (24, 7, None)]),
    "one-step-each": (0, 8, [(1, 3, None), (1, 5, None)]),
    "one-step-beside-longer": (0, 8, [(1, 3, None), (1, 5, None), (7, 7, None)]),
    "two-groups": (0, 8, [(6, 3, None), (4, 5, None)]),
    "one-group": (0, 8, [(7, 3, None)]),
    "ragged-batch": (5, 8, [(7, 3, [7, 2, 1, 5, 3])]),
    "ragged-batches": (3, 8, [(5, 3, [5, 2, 4]), (6, 5, None), (3, 7, [3, 3, 1])]),
    "paper-sample": (0, 64, [(25, 128, None), (40, 2048, None), (150, 32, None)]),
    "paper-word-batch": (25, 64, [(20, 32, [20 - 7 * k % 13 for k in range(25)])]),
    "saturated": (3, 8, [(5, 8, [5, 2, 4]), (6, 16, None), (3, 24, [3, 3, 1])], (4.0, 3.0)),
}


@pytest.mark.parametrize("recording", ["all", "x-without-grad", "no-grad"])
@pytest.mark.parametrize("batch", GROUPED_BATCHES)
def test_grouped_bilstm_is_bytewise_the_oracle_per_group(rng, batch, recording):
    """``bilstm_sequences`` over several groups, each with its own weights and
    input width, gives each group's output and every gradient byte for byte
    as the oracle node run on that group alone, signed zeros included: in one
    phase and in several, with tied lengths, with padding, with X a constant,
    under ``no_grad``, at the paper's shape and with saturated gates. Weights
    are uniform in [-0.5, 0.5], narrowed for wide inputs so the gates do not
    saturate, unless the entry gives its own bound and input scale."""
    B, h, groups, *scales = GROUPED_BATCHES[batch]
    data = []
    for T, D, lengths in groups:
        shape = (B, T) if B else (T,)
        upstream = rng.normal(size=shape + (2 * h,))
        upstream[..., ::5] = -0.0
        scale, x_scale = scales[0] if scales else (0.5 * min(1.0, 4.0 / np.sqrt(D + h)), 1.0)
        data.append((x_scale * rng.normal(size=shape + (D,)),
                     [rng.uniform(-scale, scale, size=s) for s in ((D + h, 4 * h), 4 * h) * 2],
                     lengths, upstream))
    runs = []
    for fused in (True, False):
        inputs = [(Tensor(x, requires_grad=recording == "all"),
                   *[Tensor(w, requires_grad=True) for w in weights], lengths)
                  for x, weights, lengths, _ in data]
        with ad.no_grad() if recording == "no-grad" else contextlib.nullcontext():
            outs = (ad.bilstm_sequences(inputs) if fused else
                    [ops.bilstm_sequence_oracle(*group) for group in inputs])
        if recording != "no-grad":
            loss = ops.tsum(ops.mul(outs[0], data[0][3]))
            for out, (*_, upstream) in zip(outs[1:], data[1:]):
                loss = ops.add(loss, ops.tsum(ops.mul(out, upstream)))
            ad.backward(loss)
        runs.append([out.data.tobytes() for out in outs] + [
            None if t.grad is None else t.grad.tobytes()
            for group in inputs for t in group[:5]])
    assert runs[0] == runs[1]
    assert all(g is not None for g in runs[0][len(groups):]) == (recording == "all")


@pytest.mark.parametrize("batch", ["paper-word-batch", "paper-sample"])
def test_bilstm_sequence_keeps_no_step_caches_under_no_grad(rng, batch):
    """At the paper's word-encoder shape, and over a sample's sentence, frame
    and transcript groups, a call under ``no_grad`` holds nothing but its
    outputs once it returns, and peaks no higher than a recorded call, which
    keeps the gate activations, the cell states and tanh(c) for backward."""
    B, h, shapes = GROUPED_BATCHES[batch][:3]
    groups = [(Tensor(rng.normal(size=((B, T) if B else (T,)) + (D,)), requires_grad=True),
               *bilstm_params(rng, D, h, scale=0.08), lengths)
              for T, D, lengths in shapes]

    def traced(recording):
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if recording else ad.no_grad():
                outs = ad.bilstm_sequences(groups)
            held, peak = tracemalloc.get_traced_memory()
            return held - sum(out.data.nbytes for out in outs), peak
        finally:
            tracemalloc.stop()

    held, peak = traced(False)
    held_recording, peak_recording = traced(True)
    B = max(B, 1)
    caches = 8 * sum(T * 2 * B * 4 * h + (2 * T + 1) * 2 * B * h    # A, C, tanh(C)
                     for T, _, _ in shapes)
    assert held < 16 * 1024
    assert held_recording >= caches
    assert peak <= peak_recording


def _add_on_the_worker(a, b):
    return ad.handoff(operator.add, a, b).result(timeout=30)


def test_worker_restarts_in_a_forked_child():
    """A forked child, as ``ablate --workers`` makes them, starts its own worker
    rather than queue work for its parent's thread, which it does not have."""
    assert _add_on_the_worker(1, 2) == 3        # the parent's worker is running
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        assert pool.submit(_add_on_the_worker, 3, 4).result(timeout=60) == 7


def test_first_handoffs_from_many_threads_start_one_worker(monkeypatch):
    """Eight threads, more than the cores here, make the first handoffs at once,
    with the interpreter switching threads often: one worker thread runs them all."""
    monkeypatch.setattr(ad, "_worker", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [None] * 8
        gate = threading.Barrier(len(results))

        def call(k):
            gate.wait(timeout=30)
            results[k] = ad.handoff(threading.current_thread).result(timeout=30)

        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(results))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
        if ad._worker is not None:
            ad._worker.shutdown()
    assert len(set(results)) == 1 and results[0].name.startswith("mmsum-worker")


def test_backward_that_raises_leaves_no_work_pending(rng, handoffs):
    """A node backward that raises after the BiLSTM backward handed its weight
    GEMMs to the worker: ``backward`` raises only once they are done."""
    D, h = 1024, 32
    leaf = Tensor(rng.normal(size=(3, D)), requires_grad=True)

    def fail(g):
        raise ArithmeticError("backward failed")

    X = ad._node(leaf.data, (leaf,), fail)
    weights = [Tensor(rng.uniform(-0.08, 0.08, size=shape), requires_grad=True)
               for shape in ((D + h, 4 * h), (4 * h,)) * 2]
    for W in weights:
        W.grad_slot = np.zeros_like(W.data)
    out = ad.bilstm_sequences([(X, *weights, None)])[0]
    with pytest.raises(ArithmeticError, match="backward failed"):
        ad.backward(out)
    assert len(handoffs) == 2
    assert all(done.done() for done in handoffs)


@pytest.mark.parametrize("cpus, env, expected", [
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, True),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, False),
    ({0, 1}, {"OMP_NUM_THREADS": "4"}, False),
    ({0, 1}, {}, False),
    ({0}, {"OPENBLAS_NUM_THREADS": "1"}, False),
])
def test_use_worker_needs_two_cpus_and_single_threaded_blas(monkeypatch, cpus, env, expected):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert ad.use_worker.__wrapped__() is expected


@pytest.mark.parametrize("numpy_first", [False, True])
def test_package_sets_blas_threads_unless_numpy_loaded_first(numpy_first):
    """Importing mmsum sets the BLAS thread variables to 1, keeping any the caller
    set, only while numpy is not loaded: BLAS reads them when numpy loads."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["MKL_NUM_THREADS"] = "3"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
    code = ("import os\n" + "import numpy\n" * numpy_first + "import mmsum\n"
            "print([os.environ.get(v) for v in mmsum.BLAS_THREAD_VARS])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == ("[None, None, '3']" if numpy_first else "['1', '1', '3']")
