import numpy as np
import numpy.testing as npt
import pytest

from mmsum import autodiff as ad
from mmsum.autodiff import Tensor


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


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_ignores_values_at_padding(rng, reverse):
    """Batches that differ only in X at padded positions give bitwise-equal
    outputs and X/W/b gradients."""
    B, T, D, h = 4, 5, 2, 3
    lengths = [5, 2, 1, 3]
    pad = np.arange(T)[None, :] >= np.array(lengths)[:, None]
    x = rng.normal(size=(B, T, D))
    w_data = rng.uniform(-0.6, 0.6, size=(D + h, 4 * h))
    b_data = rng.uniform(-0.6, 0.6, size=4 * h)
    upstream = rng.normal(size=(B, T, h))
    runs = []
    for padding_values in (np.zeros((B, T, D)), 50.0 * rng.normal(size=(B, T, D))):
        X = Tensor(np.where(pad[:, :, None], padding_values, x), requires_grad=True)
        W, b = Tensor(w_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        out = ad.lstm_sequence(X, W, b, h, lengths, reverse)
        ad.backward(ad.tsum(out * upstream))
        runs.append([t.tobytes() for t in (out.data, X.grad, W.grad, b.grad)])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("lengths", [[4, 2, 1], [4, 4, 4]], ids=["ragged", "full"])
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_gradients_match_finite_differences(rng, reverse, lengths):
    B, T, D, h = 3, 4, 2, 3
    X = Tensor(rng.normal(size=(B, T, D)), requires_grad=True)
    W = Tensor(rng.uniform(-0.6, 0.6, size=(D + h, 4 * h)), requires_grad=True)
    b = Tensor(rng.uniform(-0.6, 0.6, size=4 * h), requires_grad=True)
    upstream = rng.normal(size=(B, T, h))
    ad.backward(ad.tsum(ad.lstm_sequence(X, W, b, h, lengths, reverse) * upstream))

    def fn():
        with ad.no_grad():
            out = ad.lstm_sequence(X, W, b, h, lengths, reverse)
            return float((out.data * upstream).sum())

    for t in (X, W, b):
        npt.assert_allclose(t.grad, numeric_grad(fn, t.data), rtol=1e-6, atol=1e-8)


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
    loss = ad.tsum(ad.outer(u, v) * w)
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
