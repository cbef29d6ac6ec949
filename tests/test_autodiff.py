import contextlib
import tracemalloc

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
    lambda a, b: ad.tsum(mm(a, b)),
    lambda a, b: ad.tsum(ops.sub(ops.tanh(a) * ops.sigmoid(tr(b)) + a, tr(b))),
    lambda a, b: ad.tsum(ops.softmax_rows(mm(a, b))),
    lambda a, b: ops.tmean(ops.log(ops.sigmoid(mm(a, b)) + 1.0)),
    lambda a, b: ad.tsum(pw(ad.concat([a, tr(b)], axis=0), 2.0)),
    lambda a, b: ad.tsum(mm(ops.tanh(ad.reshape(a, (3, 1, 4)) + ad.reshape(tr(b), (1, 3, 4))),
                            ad.tsum(b, axis=1))),
    lambda a, b: ad.tsum(pw(ops.tanh(ad.concat([a, tr(b)], axis=1)), 2.0)),
    lambda a, b: ad.tsum(pw(ops.tanh(ad.concat([ad.reshape(a, (3, 2, 2)),
                                                ad.reshape(tr(b), (3, 2, 2))], axis=2)),
                            2.0)),
    lambda a, b: ad.tsum(pw(ops.tanh(ad.concat([ad.reshape(a, (3, 2, 2)),
                                                ad.reshape(tr(b), (3, 2, 2))], axis=-1)),
                            2.0)),
    lambda a, b: ad.tsum(pw(ops.tanh(ad.tsum(a * tr(b), axis=0)), 2.0)),
    lambda a, b: ad.tsum(ops.tanh(a) * ad.tsum(b)),
    lambda a, b: ad.tsum(pw(ops.tanh(ops.sub(a, ad.tsum(b, axis=1))), 2.0)),
    lambda a, b: ad.tsum(pw(ops.tanh(ops.sub(a, ad.reshape(ad.tsum(b, axis=0), (3, 1)))),
                            2.0)),
    lambda a, b: ad.tsum(ops.tanh(a * ad.reshape(ad.tsum(b, axis=0), (3, 1)))),
    lambda a, b: ad.tsum(ops.tanh(a * ad.tsum(b, axis=1))),
    lambda a, b: ad.tsum(pw(ops.tanh(a), 1.0) * tr(b)),
    lambda a, b: ad.tsum(pw(ops.sigmoid(a) + 0.5, 0.3) * tr(b)),
    lambda a, b: ad.tsum(ops.clip(a, -0.5, 0.5) * tr(b)),
    lambda a, b: ad.tsum(ops.tanh(outer(ad.tsum(a, axis=1), ad.tsum(b, axis=1)))),
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
    ad.backward(ad.tsum(mm(a, b) * upstream))

    def fn():
        return float(((a.data @ b.data) * upstream).sum())

    npt.assert_allclose(a.grad, numeric_grad(fn, a.data), rtol=1e-6, atol=1e-8)
    npt.assert_allclose(b.grad, numeric_grad(fn, b.data), rtol=1e-6, atol=1e-8)


LABELS = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
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
    "bilstm-one-sequence": (ad.bilstm_sequence, ops.bilstm_sequence_reference,
                            [(4, 3), (5, 8), (8,), (5, 8), (8,)]),
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
        ad.backward(ad.tsum(out * upstream))
        runs.append([(t.shape, t.tobytes()) for t in [out.data] + [t.grad for t in inputs]])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", FUSED_OPS)
def test_fused_op_gradients_match_finite_differences(rng, name):
    fused = FUSED_OPS[name][0]
    inputs = [Tensor(a, requires_grad=True) for a in fused_inputs(rng, name)]
    upstream = rng.normal(size=fused(*inputs).shape)
    ad.backward(ad.tsum(fused(*inputs) * upstream))

    def fn():
        with ad.no_grad():
            return float((fused(*inputs).data * upstream).sum())

    for t in inputs:
        npt.assert_allclose(t.grad, numeric_grad(fn, t.data), rtol=1e-6, atol=1e-8)


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
        ad.backward(ad.tsum(out))
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
    """For ``bilstm_sequence``, with the upstream gradient on one direction's
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
        out = ad.bilstm_sequence(X, *params, lengths)
        ad.backward(ad.tsum(out * upstream))
        runs.append([t.tobytes() for t in [out.data, X.grad] + [p.grad for p in params]])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("lengths", [[4, 2, 1], [4, 4, 4]], ids=["ragged", "full"])
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_gradients_match_finite_differences(rng, reverse, lengths):
    """``bilstm_sequence`` gradients, with the upstream gradient on one
    direction's half; the other direction's W and b get zero gradient."""
    B, T, D, h = 3, 4, 2, 3
    X = Tensor(rng.normal(size=(B, T, D)), requires_grad=True)
    params = bilstm_params(rng, D, h)
    upstream = upstream_on_half(rng, B, T, h, reverse)
    ad.backward(ad.tsum(ad.bilstm_sequence(X, *params, lengths) * upstream))

    def fn():
        with ad.no_grad():
            out = ad.bilstm_sequence(X, *params, lengths)
            return float((out.data * upstream).sum())

    for t in [X] + params:
        npt.assert_allclose(t.grad, numeric_grad(fn, t.data), rtol=1e-6, atol=1e-8)
    for idle in params[:2] if reverse else params[2:]:
        npt.assert_array_equal(idle.grad, 0.0)


def test_bilstm_sequence_without_lengths_runs_every_sequence_whole(rng):
    X = rng.normal(size=(3, 4, 2))
    params = bilstm_params(rng, 2, 3)
    with ad.no_grad():
        whole = ad.bilstm_sequence(X, *params).data
        given = ad.bilstm_sequence(X, *params, [4, 4, 4]).data
        single = ad.bilstm_sequence(X[1], *params).data
    assert whole.tobytes() == given.tobytes()
    assert single.shape == (4, 6)
    npt.assert_allclose(single, whole[1], rtol=0, atol=1e-15)


def test_bilstm_sequence_keeps_no_step_caches_under_no_grad(rng):
    """At the paper's word-encoder shape, a call under ``no_grad`` holds
    nothing but its output once it returns, and peaks no higher than a
    recorded call, which keeps the gate activations, the cell states and
    tanh(c) for backward."""
    B, T, D, h = 25, 20, 32, 64
    X = Tensor(rng.normal(size=(B, T, D)), requires_grad=True)
    params = bilstm_params(rng, D, h, scale=0.08)

    def traced(recording):
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if recording else ad.no_grad():
                out = ad.bilstm_sequence(X, *params, [T] * B)
            held, peak = tracemalloc.get_traced_memory()
            return held - out.data.nbytes, peak
        finally:
            tracemalloc.stop()

    held, peak = traced(False)
    held_recording, peak_recording = traced(True)
    caches = 8 * (T * 2 * B * 4 * h + (2 * T + 1) * 2 * B * h)   # A, C, tanh(C)
    assert held < 16 * 1024
    assert held_recording >= caches
    assert peak <= peak_recording


def test_broadcast_add_unbroadcasts_gradient(rng):
    m = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    row = Tensor(rng.normal(size=4), requires_grad=True)
    loss = ad.tsum((m + row) * 2.0)
    ad.backward(loss)
    npt.assert_allclose(m.grad, np.full((3, 4), 2.0))
    npt.assert_allclose(row.grad, np.full(4, 6.0))


def test_take_rows_scatter_adds():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.take_rows(table, [0, 2, 0])
    ad.backward(ad.tsum(out))
    npt.assert_allclose(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_outer_gradients(rng):
    u = Tensor(rng.normal(size=3), requires_grad=True)
    v = Tensor(rng.normal(size=2), requires_grad=True)
    w = rng.normal(size=(3, 2))
    loss = ad.tsum(outer(u, v) * w)
    ad.backward(loss)
    npt.assert_allclose(u.grad, w @ v.data)
    npt.assert_allclose(v.grad, u.data @ w)


def test_power_zero_exponent_has_zero_gradient():
    x = Tensor(np.array([0.0, 0.5, 1.0]), requires_grad=True)
    out = pw(x, 0.0)
    npt.assert_array_equal(out.data, np.ones(3))
    ad.backward(ad.tsum(out))
    assert x.grad is None  # constant output: no gradient contribution


def test_power_fractional_at_zero_is_finite():
    x = Tensor(np.array([0.0, 0.25]), requires_grad=True)
    ad.backward(ad.tsum(pw(x, 0.3)))
    assert np.all(np.isfinite(x.grad))
    npt.assert_array_equal(ad._power_grad(np.ones(2), x.data, 0.3), x.grad)


def test_reused_tensor_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = ad.tsum(x * x + x)
    ad.backward(loss)
    npt.assert_allclose(x.grad, [5.0])  # 2x + 1


def test_no_grad_skips_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ad.tsum(x * x) * 2.0
    assert not out.requires_grad
    assert out._bw is None


def test_clip_blocks_gradient_outside_bounds():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    ad.backward(ad.tsum(ops.clip(x, 0.0, 1.0)))
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
    """The output and every gradient of ``bilstm_sequence`` are byte for byte
    those of the node it replaced (``composed_ops.bilstm_sequence_oracle``),
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
    for op in (ad.bilstm_sequence, ops.bilstm_sequence_oracle):
        X = Tensor(x, requires_grad=recording == "all")
        params = [Tensor(w, requires_grad=True) for w in weights]
        with ad.no_grad() if recording == "no-grad" else contextlib.nullcontext():
            out = op(X, *params, lengths)
        if recording != "no-grad":
            ad.backward(ad.tsum(out * upstream))
        grads = [t.grad for t in [X] + params]
        runs.append([out.data.tobytes()] + [None if g is None else g.tobytes()
                                            for g in grads])
    assert runs[0] == runs[1]
    assert (runs[0][1] is None) == (recording != "all")
    assert all(g is not None for g in runs[0][2:]) == (recording != "no-grad")


# name -> (B, T and lengths of each group); B = 0 gives each group one (T, D)
# sequence, as the sentence, frame and transcript encoders of a sample have
GROUPED_BATCHES = {
    "equal-lengths": (0, [(6, None), (6, None), (6, None)]),
    "tied-lengths": (0, [(4, None), (9, None), (4, None)]),
    "distinct-lengths": (0, [(5, None), (8, None), (24, None)]),
    "one-step-each": (0, [(1, None), (1, None)]),
    "one-step-beside-longer": (0, [(1, None), (1, None), (7, None)]),
    "two-groups": (0, [(6, None), (4, None)]),
    "one-group": (0, [(7, None)]),
    "ragged-batch": (5, [(7, [7, 2, 1, 5, 3])]),
    "ragged-batches": (3, [(5, [5, 2, 4]), (6, None), (3, [3, 3, 1])]),
}


@pytest.mark.parametrize("recording", ["all", "x-without-grad", "no-grad"])
@pytest.mark.parametrize("batch", GROUPED_BATCHES)
def test_grouped_bilstm_is_bytewise_the_oracle_per_group(rng, batch, recording):
    """``bilstm_sequences`` over several groups, each with its own weights and
    input width, gives each group's output and every gradient byte for byte
    as the oracle node run on that group alone, signed zeros included: in one
    phase and in several, with tied lengths, with padding, with X a constant
    and under ``no_grad``."""
    B, groups = GROUPED_BATCHES[batch]
    h = 8
    data = []
    for k, (T, lengths) in enumerate(groups):
        D = 3 + 2 * k
        shape = (B, T) if B else (T,)
        upstream = rng.normal(size=shape + (2 * h,))
        upstream[..., ::5] = -0.0
        data.append((rng.normal(size=shape + (D,)),
                     [rng.uniform(-0.5, 0.5, size=s) for s in ((D + h, 4 * h), 4 * h) * 2],
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
            loss = ad.tsum(outs[0] * data[0][3])
            for out, (*_, upstream) in zip(outs[1:], data[1:]):
                loss = loss + ad.tsum(out * upstream)
            ad.backward(loss)
        runs.append([out.data.tobytes() for out in outs] + [
            None if t.grad is None else t.grad.tobytes()
            for group in inputs for t in group[:5]])
    assert runs[0] == runs[1]
    assert all(g is not None for g in runs[0][len(groups):]) == (recording == "all")
