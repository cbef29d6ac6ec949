import contextlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mmsum import autodiff as ad
from mmsum.autodiff import Tensor


def outer(u, v):
    """Reference outer product of two vectors, from broadcasting ops."""
    u, v = ad.as_tensor(u), ad.as_tensor(v)
    return ad.reshape(u, (-1, 1)) * ad.reshape(v, (1, -1))


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
    lambda a, b: ad.tsum(a @ b),
    lambda a, b: ad.tsum(ad.tanh(a) * ad.sigmoid(ad.transpose(b)) + a - ad.transpose(b)),
    lambda a, b: ad.tsum(ad.softmax_rows(a @ b)),
    lambda a, b: ad.tmean(ad.log(ad.sigmoid(a @ b) + 1.0)),
    lambda a, b: ad.tsum(ad.concat([a, ad.transpose(b)], axis=0) ** 2.0),
    lambda a, b: ad.tsum(ad.tanh(ad.reshape(a, (3, 1, 4))
                                 + ad.reshape(ad.transpose(b), (1, 3, 4))) @ ad.tsum(b, axis=1)),
    lambda a, b: ad.tsum(ad.tanh(ad.concat([a, ad.transpose(b)], axis=1)) ** 2.0),
    lambda a, b: ad.tsum(ad.tanh(ad.concat([ad.reshape(a, (3, 2, 2)),
                                            ad.reshape(ad.transpose(b), (3, 2, 2))],
                                           axis=2)) ** 2.0),
    lambda a, b: ad.tsum(ad.tanh(ad.concat([ad.reshape(a, (3, 2, 2)),
                                            ad.reshape(ad.transpose(b), (3, 2, 2))],
                                           axis=-1)) ** 2.0),
    lambda a, b: ad.tsum(ad.tanh(ad.tsum(a * ad.transpose(b), axis=0)) ** 2.0),
    lambda a, b: ad.tsum(ad.tanh(a) * ad.tsum(b)),
    lambda a, b: ad.tsum(ad.tanh(a - ad.tsum(b, axis=1)) ** 2.0),
    lambda a, b: ad.tsum(ad.tanh(a - ad.reshape(ad.tsum(b, axis=0), (3, 1))) ** 2.0),
    lambda a, b: ad.tsum(ad.tanh(a * ad.reshape(ad.tsum(b, axis=0), (3, 1)))),
    lambda a, b: ad.tsum(ad.tanh(a * ad.tsum(b, axis=1))),
    lambda a, b: ad.tsum(ad.tanh(a) ** 1.0 * ad.transpose(b)),
    lambda a, b: ad.tsum((ad.sigmoid(a) + 0.5) ** 0.3 * ad.transpose(b)),
    lambda a, b: ad.tsum(ad.clip(a, -0.5, 0.5) * ad.transpose(b)),
    lambda a, b: ad.tsum(ad.tanh(outer(ad.tsum(a, axis=1), ad.tsum(b, axis=1)))),
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
    ad.backward(ad.tsum((a @ b) * upstream))

    def fn():
        return float(((a.data @ b.data) * upstream).sum())

    npt.assert_allclose(a.grad, numeric_grad(fn, a.data), rtol=1e-6, atol=1e-8)
    npt.assert_allclose(b.grad, numeric_grad(fn, b.data), rtol=1e-6, atol=1e-8)


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
    out = x ** 0.0
    npt.assert_array_equal(out.data, np.ones(3))
    ad.backward(ad.tsum(out))
    assert x.grad is None  # constant output: no gradient contribution


def test_power_fractional_at_zero_is_finite():
    x = Tensor(np.array([0.0, 0.25]), requires_grad=True)
    ad.backward(ad.tsum(x ** 0.3))
    assert np.all(np.isfinite(x.grad))


def test_reused_tensor_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = ad.tsum(x * x + x)
    ad.backward(loss)
    npt.assert_allclose(x.grad, [5.0])  # 2x + 1


def test_no_grad_skips_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ad.tanh(x) * 2.0
    assert not out.requires_grad
    assert out._bw is None


def test_clip_blocks_gradient_outside_bounds():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    ad.backward(ad.tsum(ad.clip(x, 0.0, 1.0)))
    npt.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_softmax_rows_sum_to_one(rng):
    e = Tensor(rng.normal(size=(5, 7)) * 10)
    p = ad.softmax_rows(e)
    npt.assert_allclose(p.data.sum(axis=1), np.ones(5), atol=1e-12)
