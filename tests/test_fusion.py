import numpy as np
import numpy.testing as npt
import pytest

import composed_ops as ops
from composed_ops import outer
from mmsum import autodiff as ad
from mmsum import fusion
from mmsum.autodiff import Tensor
from mmsum.errors import FusionError
from mmsum.fusion import (FusionHead, ScorerParams, fuse, fuse_early, fuse_late,
                          fuse_late_plus, fuse_tensor, unimodal_decisions)


def outer_with_bias(state, ctx) -> Tensor:
    """Reference tensor feature of one pair: [state;1] (x) [context;1], a
    (|s|+1, |c|+1) matrix whose blocks are s(x)c, s, c and the constant 1."""
    one = Tensor(np.ones(1))
    return outer(ad.concat([ad.as_tensor(state), one]),
                 ad.concat([ad.as_tensor(ctx), one]))


def make_scorer(rng, d_in, d_f=3, zero=False):
    if zero:
        return ScorerParams(W1=Tensor(np.zeros((d_in, d_f)), True),
                            b1=Tensor(np.zeros(d_f), True),
                            w2=Tensor(np.zeros(d_f), True),
                            b2=Tensor(np.zeros(1), True))
    t = lambda shape: Tensor(rng.uniform(-0.7, 0.7, shape), True)
    return ScorerParams(W1=t((d_in, d_f)), b1=t((d_f,)), w2=t((d_f,)), b2=t((1,)))


def late_head(rng, ds, dc, beta=0.3, mean_decision=False, prose=False):
    return FusionHead(mode="late_plus", beta=beta,
                      f=make_scorer(rng, ds), g=make_scorer(rng, dc),
                      F=None if mean_decision else make_scorer(rng, 2),
                      prose_weights=prose)


def test_early_zero_head_gives_exactly_half(rng):
    head = FusionHead(mode="early", joint=make_scorer(rng, 8, zero=True))
    p = fuse_early(rng.normal(size=(1, 4)), rng.normal(size=(1, 4)), head)
    npt.assert_array_equal(p.data, [0.5])


def test_early_output_in_unit_interval(rng):
    head = FusionHead(mode="early", joint=make_scorer(rng, 8))
    for _ in range(50):
        p = fuse_early(rng.normal(size=(5, 4)) * 10, rng.normal(size=(5, 4)) * 10, head)
        assert np.all(p.data > 0) and np.all(p.data < 1)


def test_early_hand_pass(rng):
    head = FusionHead(mode="early", joint=make_scorer(rng, 4, d_f=2))
    s, c = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
    z = np.concatenate([s, c], axis=1)
    h = np.tanh(z @ head.joint.W1.data + head.joint.b1.data)
    expected = 1.0 / (1.0 + np.exp(-(h @ head.joint.w2.data + head.joint.b2.data)))
    npt.assert_allclose(fuse_early(s, c, head).data, expected, atol=1e-12)


def test_outer_with_bias_block_structure(rng):
    s, c = rng.normal(size=3), rng.normal(size=2)
    m = outer_with_bias(Tensor(s), Tensor(c)).data
    assert m.shape == (4, 3)
    npt.assert_allclose(m[:3, :2], np.outer(s, c), atol=1e-12)
    npt.assert_allclose(m[:3, 2], s, atol=1e-12)   # state block
    npt.assert_allclose(m[3, :2], c, atol=1e-12)   # context block
    assert m[3, 2] == 1.0


def test_outer_with_bias_zero_state(rng):
    c = rng.normal(size=3)
    m = outer_with_bias(Tensor(np.zeros(2)), Tensor(c)).data
    npt.assert_array_equal(m[:2], np.zeros((2, 4)))
    npt.assert_allclose(m[2], np.concatenate([c, [1.0]]), atol=1e-12)


def test_outer_with_bias_hand_fixture():
    m = outer_with_bias(Tensor([1.0, 2.0]), Tensor([3.0])).data
    npt.assert_array_equal(m, [[3.0, 1.0], [6.0, 2.0], [3.0, 1.0]])


def test_tensor_feature_length_is_product_of_padded_dims(rng):
    ds, dc = 5, 3
    head = FusionHead(mode="tensor", joint=make_scorer(rng, (ds + 1) * (dc + 1)))
    p = fuse_tensor(rng.normal(size=(2, ds)), rng.normal(size=(2, dc)), head)
    assert p.shape == (2,)
    bad_head = FusionHead(mode="tensor", joint=make_scorer(rng, ds * dc))
    with pytest.raises(FusionError):
        fuse_tensor(rng.normal(size=(2, ds)), rng.normal(size=(2, dc)), bad_head)


def test_tensor_rows_are_outer_with_bias_per_row(rng):
    ds, dc, n = 4, 3, 5
    head = FusionHead(mode="tensor", joint=make_scorer(rng, (ds + 1) * (dc + 1)))
    s_data, c_data = rng.normal(size=(n, ds)), rng.normal(size=(n, dc))
    S, C = Tensor(s_data, True), Tensor(c_data, True)
    p = fuse_tensor(S, C, head)
    ad.backward(ops.tsum(p))

    S_ref, C_ref = Tensor(s_data, True), Tensor(c_data, True)
    rows = [ops.reshape(outer_with_bias(ad.take_rows(S_ref, i), ad.take_rows(C_ref, i)),
                        (1, -1)) for i in range(n)]
    p_ref = fusion.scorer_prob(ad.concat(rows, axis=0), head.joint)
    npt.assert_array_equal(p.data, p_ref.data)
    grads = (S.grad, C.grad) + tuple(t.grad.copy() for t in vars(head.joint).values())
    for t in vars(head.joint).values():
        t.grad = None
    ad.backward(ops.tsum(p_ref))
    ref_grads = (S_ref.grad, C_ref.grad) + tuple(t.grad for t in vars(head.joint).values())
    for g, g_ref in zip(grads, ref_grads):
        npt.assert_allclose(g, g_ref, rtol=0, atol=1e-14)


def test_late_tied_scorers_receive_symmetric_pair(rng):
    head = late_head(rng, 4, 4)
    head.g = head.f  # tie parameters
    x = rng.normal(size=(3, 4))
    f_vals, g_vals = unimodal_decisions(x, x, head)
    npt.assert_array_equal(f_vals.data, g_vals.data)


def test_late_mean_decision_head_averages(rng):
    # construct saturating scorers so f ~= 0.2 and g ~= 0.8 exactly by
    # substituting the decision inputs directly
    head = late_head(rng, 2, 2, mean_decision=True)
    f_vals, g_vals = Tensor(np.array([0.2])), Tensor(np.array([0.8]))
    out = fusion._decide(f_vals, g_vals, head)
    npt.assert_allclose(out.data, [0.5], atol=1e-12)


def test_late_hand_pass_through_decision_head(rng):
    head = late_head(rng, 2, 2)
    f_vals, g_vals = np.array([0.3]), np.array([0.6])
    out = fusion._decide(Tensor(f_vals), Tensor(g_vals), head).data
    z = np.array([0.3, 0.6])
    h = np.tanh(z @ head.F.W1.data + head.F.b1.data)
    expected = 1.0 / (1.0 + np.exp(-(h @ head.F.w2.data + head.F.b2.data)))
    npt.assert_allclose(out, expected, atol=1e-12)


def test_late_plus_beta_zero_is_bitwise_late(rng):
    head = late_head(rng, 4, 3, beta=0.0)
    for _ in range(1000):
        s, c = rng.normal(size=(1, 4)), rng.normal(size=(1, 3))
        a = fuse_late(s, c, head).data
        b = fuse_late_plus(s, c, head).data
        assert a.tobytes() == b.tobytes()


def test_late_plus_full_confidence_suppresses_other_modality(rng):
    head = late_head(rng, 2, 2)
    # saturate g to exactly 1.0: huge positive second-layer weights
    head.g.W1.data[:] = 0.0
    head.g.b1.data[:] = 1.0
    head.g.w2.data[:] = 1e4
    head.g.b2.data[:] = 0.0
    s, c = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
    f_vals, g_vals = unimodal_decisions(s, c, head)
    assert g_vals.data[0] == 1.0
    w_s = (1.0 - g_vals.data[0]) ** head.beta
    assert w_s == 0.0  # text decision fully suppressed going into F


def test_late_plus_penalty_weights_fixture(rng):
    beta, f, g = 0.3, 0.5, 0.2
    w_s, w_c = (1 - g) ** beta, (1 - f) ** beta
    npt.assert_allclose(w_s, 0.8 ** 0.3, atol=1e-12)
    npt.assert_allclose(w_c, 0.5 ** 0.3, atol=1e-12)
    assert round(w_s, 4) == 0.9352 and round(w_c, 4) == 0.8123
    # the head must feed exactly (w_s*f, w_c*g) to the decision stage
    head = late_head(rng, 2, 2, beta=beta, mean_decision=True)
    head.f.W1.data[:] = 0.0
    head.f.b1.data[:] = 0.0
    head.f.w2.data[:] = 0.0
    head.f.b2.data[:] = np.log(f / (1 - f))
    head.g.W1.data[:] = 0.0
    head.g.b1.data[:] = 0.0
    head.g.w2.data[:] = 0.0
    head.g.b2.data[:] = np.log(g / (1 - g))
    out = fuse_late_plus(rng.normal(size=(1, 2)), rng.normal(size=(1, 2)), head)
    npt.assert_allclose(out.data, [(w_s * f + w_c * g) / 2], atol=1e-12)


def test_late_plus_weights_monotone_nonincreasing_in_other_confidence():
    beta = 0.7
    gs = np.linspace(0.0, 1.0, 50)
    w_s = (1.0 - gs) ** beta
    assert np.all(np.diff(w_s) <= 1e-12)
    assert np.all((w_s >= 0) & (w_s <= 1))


def test_prose_variant_self_confidence_weights(rng):
    head = late_head(rng, 2, 2, beta=0.5, mean_decision=True, prose=True)
    s, c = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
    f_vals, g_vals = unimodal_decisions(s, c, head)
    f, g = f_vals.data[0], g_vals.data[0]
    expected = 0.5 * (f ** 0.5 * f + g ** 0.5 * g)
    npt.assert_allclose(fuse_late_plus(s, c, head).data, [expected], atol=1e-12)


def test_all_strategies_stay_in_unit_interval(rng):
    ds, dc = 4, 4
    heads = {
        "early": FusionHead(mode="early", joint=make_scorer(rng, ds + dc)),
        "tensor": FusionHead(mode="tensor", joint=make_scorer(rng, (ds + 1) * (dc + 1))),
        "late": FusionHead(mode="late", f=make_scorer(rng, ds),
                           g=make_scorer(rng, dc), F=make_scorer(rng, 2)),
        "late_plus": late_head(rng, ds, dc),
    }
    for mode, head in heads.items():
        for scale in (0.1, 1.0, 100.0):
            p = fuse(rng.normal(size=(6, ds)) * scale,
                     rng.normal(size=(6, dc)) * scale, head)
            assert np.all((p.data >= 0) & (p.data <= 1)), mode


def test_fuse_rejects_unknown_mode(rng):
    head = FusionHead(mode="mystery")
    with pytest.raises(FusionError):
        fuse(np.zeros((1, 2)), np.zeros((1, 2)), head)


def test_scorer_dim_mismatch(rng):
    head = FusionHead(mode="early", joint=make_scorer(rng, 6))
    with pytest.raises(FusionError):
        fuse_early(np.zeros((1, 2)), np.zeros((1, 2)), head)


@pytest.mark.parametrize("mode", ["early", "tensor", "late", "late_plus"])
@pytest.mark.parametrize("shapes", [((4,), (1, 4)), ((1, 4), (4,)), ((1, 1, 4), (1, 4))],
                         ids=["vector-state", "vector-context", "3d-state"])
def test_fusion_rejects_input_that_is_not_2d_rows(rng, mode, shapes):
    """A state or context that is not a 2-D block of rows is a FusionError,
    not silently reshaped into one row."""
    d = 4
    head = FusionHead(mode=mode, beta=0.3,
                      joint=make_scorer(rng, 2 * d if mode == "early" else (d + 1) ** 2),
                      f=make_scorer(rng, d), g=make_scorer(rng, d), F=make_scorer(rng, 2))
    with pytest.raises(FusionError, match="2-D"):
        fuse(rng.normal(size=shapes[0]), rng.normal(size=shapes[1]), head)
