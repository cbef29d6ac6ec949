"""Traced runs: spans recorded around calls into mmsum's public functions.

The wrappers are installed from here by replacing module attributes (every
mmsum module attribute bound to the function, so ``from .x import f`` aliases
are covered too) and class attributes such as ``Adagrad.step``, and they are
restored when the traced block ends. Nothing inside the package changes.

Spans are kept in memory as (name, start, end, parent, step) and written out
at the end. A step is one closed-loop operation; its root span is named
``op``. Self time is a span's duration minus the part of it that its child
spans cover, so the self times of one step sum to the step's wall time, and
the ``op`` span's self time is the part of a step outside every traced layer.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

OP = "op"
HOOK = "trace.hook"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into the span list, -1 for a root
    step: int          # operation index, -1 outside operations (set-up)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()        # counters summed over operations
        self.label_keys: set = set()            # distinct label computations
        self.n_ops = 0
        self._stack: list[int] = []
        self._step = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self._step))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def begin_op(self) -> None:
        self._step = self.n_ops
        self.n_ops += 1
        self.open(OP)

    def end_op(self) -> None:
        self.close(self._stack[-1])
        self._step = -1

    @property
    def in_op(self) -> bool:
        return self._step >= 0

    def count(self, key: str, n: float = 1) -> None:
        if self.in_op:
            self.counts[key] += n

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self_t = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, st) in enumerate(zip(self.spans, self_t)):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "step": s.step, "self": st}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def self_time_by_name(spans: list[Span]) -> Counter:
    """Summed self time per span name over the spans of operations."""
    out = Counter()
    for s, st in zip(spans, self_times(spans)):
        if s.step >= 0:
            out[s.name] += st
    return out


def op_self_shares(spans: list[Span]) -> list[float]:
    """Per step, the self time of its ``op`` root as a share of the step:
    the part of the operation that no traced layer accounts for."""
    return [st / s.duration for s, st in zip(spans, self_times(spans))
            if s.name == OP and s.parent < 0 and s.step >= 0]


# ---------------------------------------------------------------------------
# wrapping the package's public functions

def _tape_nodes(loss) -> int:
    """Count the nodes backward() will visit, walking the graph read-only."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _feature_bytes(manifest, entry, *args, **kwargs) -> int:
    paths = [entry.features] + ([entry.ref_features] if entry.ref_features else [])
    return sum(os.path.getsize(manifest.root / p) for p in paths)


def _hooks(tracer: Tracer) -> dict:
    """Counters taken at layer boundaries, keyed by span name. ``before``
    sees the call's arguments, ``after`` its result."""
    from mmsum import autodiff as ad

    def on_forward(*args, **kwargs):
        if ad.grad_enabled():
            tracer.count("training.forwards")

    def on_ce(*args, **kwargs):
        if ad.grad_enabled():
            tracer.count("training.ce_computed")

    def on_labels(document, gold_summary, cap=4):
        if tracer.in_op:
            tracer.label_keys.add((document.id, tuple(gold_summary), cap))

    def on_cell(row):
        if row.get("status") != "ok":
            tracer.count("cli.cells_failed")

    return {
        "model.forward": (on_forward, None),
        "training.ce_loss": (on_ce, None),
        "training.labels": (on_labels, None),
        "autodiff.backward": (lambda loss: tracer.count("autodiff.tape_nodes",
                                                        _tape_nodes(loss)), None),
        "data.load_sample": (lambda *a, **k: tracer.count("data.feature_bytes_read",
                                                          _feature_bytes(*a, **k)),
                             None),
        "cli.cell": (None, on_cell),
    }


# (module, attribute, span name); "Class.method" names a method.
LAYERS = (
    ("mmsum.encoders", "encode_words", "encoders.word"),
    ("mmsum.encoders", "encode_sentences", "encoders.sentence"),
    ("mmsum.encoders", "encode_frames", "encoders.frame"),
    ("mmsum.encoders", "encode_transcript", "encoders.transcript"),
    ("mmsum.attention", "sentence_context", "attention.sentence"),
    ("mmsum.attention", "frame_context", "attention.frame"),
    ("mmsum.fusion", "fuse", "fusion.fuse"),
    ("mmsum.fusion", "unimodal_decisions", "fusion.unimodal"),
    ("mmsum.model", "SummarizerModel.forward", "model.forward"),
    ("mmsum.model", "SummarizerModel.__init__", "model.build"),
    ("mmsum.model", "build_parameters", "model.build"),
    ("mmsum.training", "greedy_labels", "training.labels"),
    ("mmsum.training", "ce_loss", "training.ce_loss"),
    ("mmsum.training", "video_loss", "training.video_loss"),
    ("mmsum.training", "bistream_loss", "training.bistream_loss"),
    ("mmsum.training", "Adagrad.step", "training.optimizer_step"),
    ("mmsum.training", "train_model", "training.train_model"),
    ("mmsum.autodiff", "backward", "autodiff.backward"),
    ("mmsum.data", "load_sample", "data.load_sample"),
    ("mmsum.data", "prepare_for_model", "data.prepare"),
    ("mmsum.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("mmsum.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("mmsum.evaluation", "summarize", "evaluation.summarize"),
    ("mmsum.evaluation", "rouge_all", "evaluation.score"),
    ("mmsum.evaluation", "cos_image_similarity", "evaluation.score"),
    ("mmsum.evaluation", "evaluate_dataset", "evaluation.evaluate_dataset"),
    ("mmsum.cli", "run_ablate_cell", "cli.cell"),
)


def _wrap(fn, name: str, tracer: Tracer, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            with tracer.span(HOOK):
                before(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            with tracer.span(HOOK):
                after(result)
        return result

    return traced


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mmsum" or name.startswith("mmsum."))]


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    hooks = _hooks(tracer)
    patches = Patches()
    try:
        for mod_name, attr, span_name in LAYERS:
            module = importlib.import_module(mod_name)
            before, after = hooks.get(span_name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                patches.set(cls, meth, _wrap(cls.__dict__[meth], span_name, tracer,
                                             before, after))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(original, span_name, tracer, before, after)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.set(mod, key, wrapper)
        yield
    finally:
        patches.restore()


@contextlib.contextmanager
def op_boundary(owner, attr: str, ops, ok):
    """Make each call of ``owner.attr`` one timed operation of ``ops``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        return ops.run(original, *args, ok=ok, **kwargs)

    patches = Patches()
    patches.set(owner, attr, timed)
    try:
        yield
    finally:
        patches.restore()


# ---------------------------------------------------------------------------
# per-layer metrics

def _outermost_totals(spans: list[Span]) -> tuple[Counter, Counter]:
    """Per span name, summed duration and call count over operation spans,
    counting a span nested in another of the same name only once."""
    total, calls = Counter(), Counter()
    for s in spans:
        if s.step < 0:
            continue
        calls[s.name] += 1
        p, nested = s.parent, False
        while p >= 0:
            if spans[p].name == s.name:
                nested = True
                break
            p = spans[p].parent
        if not nested:
            total[s.name] += s.duration
    return total, calls


def layer_metrics(tracer: Tracer, overhead_share: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit). Times and counts are
    per operation of the traced phase; checkpoint times are per call,
    set-up included; ratios read 0 when the layer was never called."""
    spans = tracer.spans
    n = max(tracer.n_ops, 1)
    total, calls = _outermost_totals(spans)
    self_by_name = self_time_by_name(spans)

    def ms(name):
        return 1e3 * total[name] / n

    def self_ms(name):
        return 1e3 * self_by_name[name] / n

    def per_call_ms(name):
        ds = [s.duration for s in spans if s.name == name]
        return 1e3 * sum(ds) / len(ds) if ds else 0.0

    c = tracer.counts
    nodes = c["autodiff.tape_nodes"]
    backward_calls = calls["autodiff.backward"]
    label_calls = calls["training.labels"]
    return {
        "encoders.word_ms": (ms("encoders.word"), "ms"),
        "encoders.word_calls": (calls["encoders.word"] / n, "count"),
        "encoders.sentence_self_ms": (self_ms("encoders.sentence"), "ms"),
        "encoders.frame_ms": (ms("encoders.frame"), "ms"),
        "encoders.transcript_ms": (ms("encoders.transcript"), "ms"),
        "autodiff.backward_ms": (ms("autodiff.backward"), "ms"),
        "autodiff.tape_nodes": (nodes / backward_calls if backward_calls else 0.0,
                                "count"),
        "autodiff.backward_us_per_node": (
            1e6 * total["autodiff.backward"] / nodes if nodes else 0.0, "us"),
        "training.optimizer_step_ms": (ms("training.optimizer_step"), "ms"),
        "training.ce_loss_ms": (ms("training.ce_loss"), "ms"),
        "training.video_loss_ms": (ms("training.video_loss"), "ms"),
        "training.ce_skipped": (
            (c["training.forwards"] - c["training.ce_computed"]) / n, "count"),
        "data.load_sample_ms": (ms("data.load_sample"), "ms"),
        "data.prepare_ms": (ms("data.prepare"), "ms"),
        "data.feature_bytes_read": (c["data.feature_bytes_read"] / n, "bytes"),
        "checkpoint.load_ms": (per_call_ms("checkpoint.load"), "ms"),
        "checkpoint.save_ms": (per_call_ms("checkpoint.save"), "ms"),
        "evaluation.summarize_ms": (ms("evaluation.summarize"), "ms"),
        "evaluation.score_ms": (ms("evaluation.score"), "ms"),
        "attention.sentence_ms": (ms("attention.sentence"), "ms"),
        "attention.frame_ms": (ms("attention.frame"), "ms"),
        "fusion.fuse_ms": (ms("fusion.fuse"), "ms"),
        "fusion.unimodal_ms": (ms("fusion.unimodal"), "ms"),
        "model.forward_self_ms": (self_ms("model.forward"), "ms"),
        "model.build_ms": (ms("model.build"), "ms"),
        "training.labels_ms": (ms("training.labels"), "ms"),
        "training.labels_calls": (label_calls / n, "count"),
        "training.labels_useful_share": (
            len(tracer.label_keys) / label_calls if label_calls else 0.0, "share"),
        "cli.cell_ms": (ms("cli.cell"), "ms"),
        "cli.cell_self_ms": (self_ms("cli.cell"), "ms"),
        "cli.cells_failed": (c["cli.cells_failed"], "count"),
        "trace.op_self_share": (statistics.median(op_self_shares(spans) or [0.0]),
                                "share"),
        "trace.overhead_share": (overhead_share, "share"),
    }
