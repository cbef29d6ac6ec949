"""The four fusion strategies on one (state, context) pair, and how the
late+ confidence penalty reshapes the decision as beta grows."""
import numpy as np

from mmsum.autodiff import Tensor
from mmsum.fusion import FusionHead, ScorerParams, fuse, unimodal_decisions

rng = np.random.default_rng(1)
ds = dc = 6


def scorer(d_in, d_f=8):
    t = lambda shape: Tensor(rng.uniform(-0.7, 0.7, shape), True)
    return ScorerParams(W1=t((d_in, d_f)), b1=t((d_f,)), w2=t((d_f,)), b2=t((1,)))


state = rng.normal(size=(1, ds))   # one (1, d) row each
ctx = rng.normal(size=(1, dc))

heads = {
    "early": FusionHead(mode="early", joint=scorer(ds + dc)),
    "tensor": FusionHead(mode="tensor", joint=scorer((ds + 1) * (dc + 1))),
    "late": FusionHead(mode="late", f=scorer(ds), g=scorer(dc), F=scorer(2)),
    "late_plus": FusionHead(mode="late_plus", beta=0.3, f=scorer(ds),
                            g=scorer(dc), F=scorer(2)),
}
heads["late_plus"].f = heads["late"].f  # share scorers so late vs late+ is comparable
heads["late_plus"].g = heads["late"].g
heads["late_plus"].F = heads["late"].F

print("=== extraction probability per strategy ===")
for name, head in heads.items():
    p = fuse(state, ctx, head)
    print(f"{name:10s} -> {float(p.data[0]):.4f}")

print("\n=== tensor feature: [s;1] (x) [c;1] carries all the blocks ===")
m = np.outer([1.0, 2.0, 1.0], [3.0, 1.0])     # s = [1, 2], c = [3]
print(m, " <- blocks s*c | s | c | 1")

print("\n=== late+ penalty weights across beta ===")
f_vals, g_vals = unimodal_decisions(state, ctx, heads["late"])
f, g = float(f_vals.data[0]), float(g_vals.data[0])
print(f"unimodal decisions: f(state)={f:.4f}  g(context)={g:.4f}")
print(f"{'beta':>6s} {'W_s=(1-g)^b':>12s} {'W_c=(1-f)^b':>12s} {'fused':>8s}")
for beta in (0.0, 0.1, 0.3, 0.5, 1.0, 2.0):
    head = heads["late_plus"]
    head.beta = beta
    p = fuse(state, ctx, head)
    print(f"{beta:6.1f} {(1 - g) ** beta:12.4f} {(1 - f) ** beta:12.4f} "
          f"{float(p.data[0]):8.4f}")
print("beta=0 row equals plain late fusion bit-for-bit.")
