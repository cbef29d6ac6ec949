"""Tests for the benchmark's own helpers.

    python3 -m pytest -q bench/test_bench.py
"""
import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# percentiles

@pytest.mark.parametrize("n, q", [(1000, 99), (999, 90), (100, 90), (99, 75),
                                  (40, 75), (39, 50), (20, 50), (19, None), (0, None)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert measure.tail_percentile(n) == q
    if q is not None:
        assert n * (100 - q) / 100 >= 10
        higher = [p for p in measure.TAIL_LADDER if p > q]
        assert all(n * (100 - p) / 100 < 10 for p in higher)


def test_tail_percentile_has_ten_samples_beyond_it_in_data():
    values = list(np.random.default_rng(0).permutation(100).astype(float))
    q = measure.tail_percentile(len(values))
    cut = measure.percentile(values, q)
    assert sum(1 for v in values if v > cut) >= 10


def test_percentile_matches_numpy():
    values = np.random.default_rng(1).normal(size=37)
    for q in (0, 25, 50, 75, 90, 99, 100):
        assert measure.percentile(values, q) == pytest.approx(np.percentile(values, q))


# ---------------------------------------------------------------------------
# spans and self time

def step_self_sum_gaps(spans):
    """Per step, |sum of the self times of its spans - its root's duration|."""
    sums, roots = {}, {}
    for sp, st in zip(spans, tracing.self_times(spans)):
        if sp.step >= 0:
            sums[sp.step] = sums.get(sp.step, 0.0) + st
            if sp.name == tracing.OP:
                roots[sp.step] = sp.duration
    return [abs(sums[k] - roots[k]) for k in sorted(roots)]


def test_self_time_subtracts_nested_children():
    spans = [Span("op", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("a.inner", 2.0, 3.0, 1, 0),
             Span("b", 5.0, 9.0, 0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert step_self_sum_gaps(spans) == [0.0]
    assert tracing.op_self_shares(spans) == [0.3]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("op", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 5.0, 0, 0),
             Span("b", 3.0, 7.0, 0, 0),
             Span("c", 9.0, 12.0, 0, 0)]    # clipped to the parent's end
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_and_assigns_steps():
    clock = itertools.count().__next__
    tr = tracing.Tracer(clock=lambda: float(clock()))
    with tr.span("setup"):
        pass
    tr.begin_op()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    tr.end_op()
    names = [(s.name, s.parent, s.step) for s in tr.spans]
    assert names == [("setup", -1, -1), ("op", -1, 0), ("outer", 1, 0), ("inner", 2, 0)]
    assert step_self_sum_gaps(tr.spans) == [0.0]
    with pytest.raises(RuntimeError):
        tr.close(tr.open("x") - 1)


# ---------------------------------------------------------------------------
# metric names

def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_per_layer_metrics_match_the_spec():
    layer = tracing.layer_metrics(tracing.Tracer(), 0.0)
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]
    assert {k: u for k, (_, u) in layer.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class FakeWorkload:
    name, op_label, min_ops, setup_reps = "fake", "operations", 20, 3
    specific_names = ("fake_per_s", "fake_ms")

    def make_corpus(self, seed, workdir):
        pass

    def setup(self, seed, workdir):
        return seed

    def round(self, state, ops):
        ops.run(lambda: True)

    def finish(self, states):
        return {"fake check": True}, 0.5, []


def test_end_to_end_metrics_match_the_spec(tmp_path):
    metrics, checks, _, attempted, failed, _, _ = run.timed_run(
        FakeWorkload(), 1, 0.1, tmp_path, measure)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert {k: u for k, (_, u, _) in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert attempted >= FakeWorkload.min_ops and failed == 0 and all(checks.values())


def test_speed_probe_scales_by_the_median_sample():
    samples = [(2e-3, 4e-3, 1e-3), (1e-3, 1e-3, 1e-3), (4e-3, 4e-3, 1e-3)]
    assert measure.probe_scale(samples) == pytest.approx((0.5 * 0.25 * 1.0) ** (1 / 3))
    assert all(t > 0 for t in measure.probe())


def test_op_timer_counts_raised_and_rejected_operations():
    ops = measure.OpTimer()
    ops.run(lambda: True)
    ops.run(lambda: False)
    ops.run(lambda: 1 / 0)
    ops.run(lambda: {"status": "error"}, ok=lambda row: row["status"] == "ok")
    assert (ops.attempted, ops.failed) == (4, 3)


# ---------------------------------------------------------------------------
# the workloads' copies of the package's loops

def test_train_step_epoch_matches_train_model(tmp_path):
    wl = workloads.WORKLOADS["train_tiny"]
    wl.make_corpus(3, tmp_path)
    st = wl.setup(3, tmp_path)
    for _ in st.samples:
        assert workloads.train_step(st)
    assert workloads.matches_train_model(st)
    st.model.params[next(iter(st.model.params))].data[0] += 1e-6
    assert not workloads.matches_train_model(st)


def test_eval_sample_reproduces_its_row(tmp_path):
    from mmsum.data import SynthConfig
    synth = SynthConfig(n_samples=3, n_sentences=4, sentence_len=5, n_frames=10,
                        feature_dim=2048, vocab_size=40, transcript_len=10)
    wl = workloads.EvalWorkload("eval_small", synth, min_ops=1, setup_reps=1)
    wl.make_corpus(5, tmp_path)
    st = wl.setup(5, tmp_path)
    for _ in range(2 * len(st.manifest.entries)):
        assert workloads.eval_sample(st)
    checks, ce_mean, _ = wl.finish([st])
    assert all(checks.values()) and np.isfinite(ce_mean)


# ---------------------------------------------------------------------------
# wrapping and restoring the package's functions

def _package_attributes():
    from mmsum import model, training
    snap = {}
    for mod in tracing._package_modules():
        snap.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls in (model.SummarizerModel, training.Adagrad):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def _one_training_step():
    from mmsum import autodiff as ad, model, training
    from mmsum.config import RunConfig
    cfg = RunConfig(hidden=2, embed_dim=2, attn_dim=2, fusion_dim=2, feature_dim=2,
                    fps_group=1, seed=0)
    rng = np.random.default_rng(0)
    sample = training.make_check_sample(cfg, rng)
    m = model.SummarizerModel(model.build_parameters(cfg, 7, rng), cfg, 7)
    out = m.forward(sample)
    loss = training.ce_loss(out.sent_probs, [1.0, 0.0])
    ad.backward(loss)
    training.Adagrad(m.params, lr=0.1).step()


def test_wrapped_functions_are_restored_after_the_traced_run():
    _one_training_step()              # imports every module the step touches
    before = _package_attributes()
    tr = tracing.Tracer()
    with tracing.traced_layers(tr):
        assert _package_attributes() != before
        tr.begin_op()
        _one_training_step()
        tr.end_op()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tr.spans}
    assert {"model.forward", "encoders.word", "autodiff.backward",
            "training.optimizer_step", "model.build"} <= names
    assert tr.counts["autodiff.tape_nodes"] > 0
    assert step_self_sum_gaps(tr.spans) == [0.0]


def test_wrapped_functions_are_restored_when_the_block_raises():
    before = _package_attributes()
    with pytest.raises(ZeroDivisionError):
        with tracing.traced_layers(tracing.Tracer()):
            1 / 0
    after = _package_attributes()
    assert all(after[k] is before[k] for k in before)


# ---------------------------------------------------------------------------
# the spec file itself

def test_spec_keeps_to_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) \
        == list(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
