import hashlib
import itertools
import json
import os
import struct

import numpy as np
import numpy.testing as npt
import pytest

from conftest import tiny_config
from mmsum import attention, checkpoint, data, encoders, model
from mmsum.config import RunConfig
from mmsum.errors import CheckpointError
from mmsum.model import (SummarizerModel, build_parameters, check_parameters,
                         parameter_spec, parameter_views)
from mmsum.training import make_check_sample

# distinct sizes, so a dimension used in the wrong place changes some shape
ODD_DIMS = dict(hidden=3, embed_dim=4, attn_dim=5, fusion_dim=6, feature_dim=7)


def test_parameter_allocation_matches_configuration():
    rng = np.random.default_rng(0)
    full = build_parameters(tiny_config(), 7, rng)
    assert "encoders/transcript/fw_W" in full
    assert "attention/tr_over_frames/W_q" in full
    assert "fusion/frame/F/W1" in full

    no_tr = build_parameters(tiny_config(use_transcript=False), 7, rng)
    assert "encoders/transcript/fw_W" not in no_tr
    assert "attention/sent_query/W_q" in no_tr  # fallback single-hop set remains

    text_only = build_parameters(tiny_config(use_frames=False), 7, rng)
    assert set(text_only) == {
        "encoders/embedding",
        "encoders/word/fw_W", "encoders/word/fw_b",
        "encoders/word/bw_W", "encoders/word/bw_b",
        "encoders/sentence/fw_W", "encoders/sentence/fw_b",
        "encoders/sentence/bw_W", "encoders/sentence/bw_b",
        "fusion/text/f/W1", "fusion/text/f/b1",
        "fusion/text/f/w2", "fusion/text/f/b2",
    }

    early = build_parameters(tiny_config(fusion="early", attention="concat_product"),
                             7, rng)
    assert "attention/sent_query/b_joint" in early
    assert "fusion/text/joint/W1" in early
    assert "fusion/text/f/W1" not in early


@pytest.mark.parametrize("attention", ["none", "concat_product", "bilinear", "bihop"])
@pytest.mark.parametrize("fusion_mode", ["early", "tensor", "late", "late_plus"])
def test_parameter_spec_is_the_layout_build_parameters_draws(attention, fusion_mode):
    for use_frames, use_transcript in itertools.product((True, False), repeat=2):
        cfg = tiny_config(**ODD_DIMS, attention=attention, fusion=fusion_mode,
                          use_frames=use_frames, use_transcript=use_transcript)
        params = build_parameters(cfg, 11, np.random.default_rng(0))
        assert list(parameter_spec(cfg, 11).items()) == \
            [(k, v.shape) for k, v in params.items()]


def _digest(params):
    h = hashlib.sha256()
    for name, arr in params.items():
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


# (attention, fusion, use_frames, use_transcript) -> digest of the init
PINNED_INIT = {
    ("bihop", "late_plus", True, True):
        "7d1191da314c20b944165b9f1ed8d72ce30816b2aabf50d1f727438c368bb4ee",
    ("concat_product", "tensor", True, True):
        "3592c0cf10bd5b571e06585b634b1bf502c795e9c8dc5930c101d801559d8cb7",
    ("bilinear", "early", True, False):
        "23d2c72db0c7753d1fc0382fff6859a0a8ee8869322017bc9b49502b67cf81cd",
    ("none", "late", True, True):
        "ae74887615bc98104ccb89fcf2ed5581b4cf2315d5bd244b51c997c88828cbad",
    ("bihop", "late_plus", False, True):
        "b49bb7ed6b4607c3e44b3372314758e2a9359be5912c24be24b53d6242f4649a",
    ("bihop", "late", True, False):
        "2a4dcccfa184b8a9cb7a07da3d86e7384680930e123867bb21b8f00bd3ca57a8",
}


def test_initialization_is_pinned():
    """Names, order and values of the init; fails if the draw order or the
    init rule ever changes."""
    for (attention, fusion_mode, use_frames, use_transcript), want in PINNED_INIT.items():
        cfg = RunConfig(**ODD_DIMS, attention=attention, fusion=fusion_mode,
                        use_frames=use_frames, use_transcript=use_transcript)
        assert _digest(build_parameters(cfg, 11, np.random.default_rng(7))) == want
    assert _digest(build_parameters(RunConfig(**ODD_DIMS), 11, np.random.default_rng(0),
                                    init_scale=0.5)) == \
        "12d1e8dba9a9a299c1a0efff683c83eaf0ef189758f901a9c96c664d49f417e2"
    assert _digest(build_parameters(RunConfig(), 50, np.random.default_rng(0))) == \
        "f5d87ce3f4cffe9bfd123251ebce0933e53679f23e678dfcc35d90a4fd5e1180"


def test_same_seed_same_initialization():
    cfg = tiny_config()
    a = build_parameters(cfg, 7, np.random.default_rng(5))
    b = build_parameters(cfg, 7, np.random.default_rng(5))
    assert set(a) == set(b)
    for name in a:
        npt.assert_array_equal(a[name], b[name])


def test_model_rejects_mismatched_parameters():
    cfg = tiny_config()
    params = build_parameters(cfg, 7, np.random.default_rng(0))
    with pytest.raises(CheckpointError, match=r"wrong_shape=\[[^]]*'encoders/word/fw_W'"):
        SummarizerModel(params, tiny_config(hidden=3), 7)
    with pytest.raises(CheckpointError, match=r"unexpected=\['encoders/transcript/bw_W'"):
        SummarizerModel(params, tiny_config(use_transcript=False), 7)
    params.pop("encoders/embedding")
    with pytest.raises(CheckpointError, match=r"missing=\['encoders/embedding'\]"):
        SummarizerModel(params, cfg, 7)


VOCAB7 = {"<unk>": 0, **{f"w{i}": i for i in range(1, 7)}}


@pytest.mark.parametrize("edit,match", [
    (lambda p: p.pop("encoders/embedding"), r"missing=\['encoders/embedding'\]"),
    (lambda p: p.update(extra=np.zeros(2)), r"unexpected=\['extra'\]"),
    (lambda p: p.update({"fusion/text/f/b2": np.zeros(2)}),
     r"wrong_shape=\['fusion/text/f/b2'\]"),
], ids=["missing", "unexpected", "wrong-shape"])
def test_save_checkpoint_refuses_parameters_off_the_spec(tmp_path, edit, match):
    """save_checkpoint writes parameter_spec's layout, so it checks the dict
    against it first, with the model's rule and message, and writes nothing."""
    cfg = tiny_config()
    params = build_parameters(cfg, 7, np.random.default_rng(0))
    assert check_parameters(params, cfg, 7) == parameter_spec(cfg, 7)
    edit(params)
    with pytest.raises(CheckpointError, match=match):
        check_parameters(params, cfg, 7)
    with pytest.raises(CheckpointError, match=match):
        checkpoint.save_checkpoint(tmp_path / "ck", params, cfg, VOCAB7)
    assert list(tmp_path.iterdir()) == []


def test_model_binding_draws_no_random_numbers(monkeypatch):
    cfg = tiny_config()
    params = build_parameters(cfg, 7, np.random.default_rng(0))

    def forbidden(*args, **kwargs):
        raise AssertionError("model construction must not draw an init")

    monkeypatch.setattr(model, "build_parameters", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    SummarizerModel(params, cfg, 7)


def _attention_weights(model, sample):
    """The sentence and frame attention weights of ``model``'s forward pass."""
    sents, frames, t_states = encoders.encode_sample(sample, model.encoder)
    return (attention.sentence_context(model.attn, sents, frames, t_states).weights.data,
            attention.frame_context(model.attn, frames, sents, t_states).weights.data)


@pytest.mark.parametrize("attention", ["none", "concat_product", "bilinear", "bihop"])
@pytest.mark.parametrize("fusion_mode", ["early", "tensor", "late", "late_plus"])
def test_forward_shapes_all_configs(attention, fusion_mode):
    cfg = tiny_config(attention=attention, fusion=fusion_mode)
    rng = np.random.default_rng(1)
    sample = make_check_sample(cfg, rng)
    model = SummarizerModel(build_parameters(cfg, 7, rng), cfg, 7)
    out = model.forward(sample)
    ns = len(sample.document.sentences)
    nm = sample.frames.shape[0]
    assert out.sent_probs.shape == (ns,)
    assert out.frame_probs.shape == (nm,)
    assert np.all((out.sent_probs.data > 0) & (out.sent_probs.data < 1))
    sent_weights, frame_weights = _attention_weights(model, sample)
    assert sent_weights.shape[0] == ns
    npt.assert_allclose(sent_weights.sum(axis=1), np.ones(ns), atol=1e-6)
    npt.assert_allclose(frame_weights.sum(axis=1), np.ones(nm), atol=1e-6)


def test_bihop_model_with_empty_transcript_falls_back():
    import dataclasses
    cfg = tiny_config(attention="bihop")
    rng = np.random.default_rng(6)
    sample = make_check_sample(cfg, rng)
    sample = dataclasses.replace(
        sample, transcript=dataclasses.replace(sample.transcript,
                                               tokens=np.array([], dtype=int)))
    model = SummarizerModel(build_parameters(cfg, 7, rng), cfg, 7)
    model.forward(sample)  # single-hop fallback, no error
    nm = sample.frames.shape[0]
    assert _attention_weights(model, sample)[0].shape == (2, nm)  # attends frames directly


def test_text_only_forward_has_no_frame_outputs():
    cfg = tiny_config(use_frames=False)
    rng = np.random.default_rng(2)
    sample = make_check_sample(cfg, rng)
    model = SummarizerModel(build_parameters(cfg, 7, rng), cfg, 7)
    out = model.forward(sample)
    assert out.frame_probs is None and out.frame_states is None


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config()
    params = build_parameters(cfg, 7, np.random.default_rng(4))
    vocab = {"<unk>": 0, "a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6}
    checkpoint.save_checkpoint(tmp_path / "ck", params, cfg, vocab)
    loaded, cfg2, vocab2 = checkpoint.load_checkpoint(tmp_path / "ck")
    assert cfg2 == cfg and vocab2 == vocab
    assert list(loaded) == list(parameter_spec(cfg, len(vocab)))
    for name, arr in params.items():
        npt.assert_array_equal(loaded[name],
                               arr.astype(np.float32).astype(np.float64),
                               err_msg=name)
    # one 1 x n feature file: every parameter, flattened, in parameter_spec order
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == \
        ["config.json", "index.json", "params.bin", "vocab.json"]
    flat = np.concatenate([params[name].ravel() for name in parameter_spec(cfg, 7)])
    stored = data.read_feature_file(tmp_path / "ck" / "params.bin")
    assert stored.tobytes() == flat.astype("<f4").reshape(1, -1).tobytes()
    assert json.loads((tmp_path / "ck" / "index.json").read_text()) == \
        {"format": 2, "extra": {}}
    # loaded parameters drive a working model
    model = SummarizerModel(loaded, cfg2, len(vocab2))
    sample = make_check_sample(cfg2, np.random.default_rng(0))
    assert model.forward(sample).sent_probs.shape == (2,)


def _tree(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_failed_save_leaves_the_previous_checkpoint_whole(tmp_path, monkeypatch):
    """A save over a checkpoint that fails part-way (here on vocab.json, after
    params.bin, index.json and config.json) leaves the old checkpoint's bytes
    and no sibling behind."""
    cfg, ck = tiny_config(), tmp_path / "ck"
    old = build_parameters(cfg, 7, np.random.default_rng(1))
    checkpoint.save_checkpoint(ck, old, cfg, VOCAB7, extra={"run": 1})
    before = _tree(ck)
    write_json = checkpoint.write_json

    def fail_on_vocab(path, obj):
        if path.name == checkpoint.VOCAB_FILE:
            raise OSError("disk full")
        write_json(path, obj)

    monkeypatch.setattr(checkpoint, "write_json", fail_on_vocab)
    with pytest.raises(OSError, match="disk full"):
        checkpoint.save_checkpoint(ck, build_parameters(cfg, 7, np.random.default_rng(2)),
                                   cfg, VOCAB7, extra={"run": 2})
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    assert _tree(ck) == before
    loaded, _, _ = checkpoint.load_checkpoint(ck)
    for name, arr in old.items():
        assert loaded[name].tobytes() == arr.astype(np.float32).astype(np.float64).tobytes()


def test_save_killed_between_renames_leaves_a_loadable_checkpoint(tmp_path, monkeypatch):
    """A save whose second rename (ck.tmp -> ck) fails leaves no ck: load
    reads the old checkpoint from ck.old, a save that fails again keeps it,
    and the next save that completes replaces it."""
    cfg, ck = tiny_config(), tmp_path / "ck"
    first, second, third = (build_parameters(cfg, 7, np.random.default_rng(seed))
                            for seed in (1, 2, 3))
    checkpoint.save_checkpoint(ck, first, cfg, VOCAB7)
    before = _tree(ck)
    rename = os.rename

    def rename_failing_on_call(n):
        calls = itertools.count(1)

        def fake(src, dst):
            if next(calls) == n:
                raise OSError("killed")
            rename(src, dst)

        return fake

    monkeypatch.setattr(os, "rename", rename_failing_on_call(2))
    with pytest.raises(OSError, match="killed"):
        checkpoint.save_checkpoint(ck, second, cfg, VOCAB7)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.old", "ck.tmp"]

    def loaded_bytes():
        return [arr.tobytes() for arr in checkpoint.load_checkpoint(ck)[0].values()]

    def stored_bytes(params):
        return [arr.astype(np.float32).astype(np.float64).tobytes()
                for arr in params.values()]

    assert loaded_bytes() == stored_bytes(first)
    # with no ck the save has one rename, which fails here too
    monkeypatch.setattr(os, "rename", rename_failing_on_call(1))
    with pytest.raises(OSError, match="killed"):
        checkpoint.save_checkpoint(ck, second, cfg, VOCAB7)
    assert _tree(tmp_path / "ck.old") == before
    assert loaded_bytes() == stored_bytes(first)
    monkeypatch.undo()
    checkpoint.save_checkpoint(ck, third, cfg, VOCAB7)
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    assert loaded_bytes() == stored_bytes(third)


def test_save_over_a_directory_replaces_it_whole(tmp_path):
    """Files of an old-layout checkpoint, and the .tmp and .old siblings a
    killed save leaves, are gone after a save."""
    cfg, ck = tiny_config(), tmp_path / "ck"
    for directory in (ck, tmp_path / "ck.tmp", tmp_path / "ck.old"):
        directory.mkdir()
        (directory / "encoders__embedding.bin").write_bytes(b"stale")
    params = build_parameters(cfg, 7, np.random.default_rng(3))
    assert checkpoint.save_checkpoint(ck, params, cfg, VOCAB7) == ck
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    assert sorted(_tree(ck)) == ["config.json", "index.json", "params.bin", "vocab.json"]
    checkpoint.save_checkpoint(tmp_path / "other", params, cfg, VOCAB7)
    assert _tree(ck) == _tree(tmp_path / "other")


def _offset_of(name, cfg, vocab_size):
    """The index of ``name``'s first value among the checkpoint's values."""
    spec = parameter_spec(cfg, vocab_size)
    return sum(int(np.prod(spec[k])) for k in list(spec)[:list(spec).index(name)])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["encoders/embedding", "encoders/word/fw_W",
                                  "fusion/text/f/b2"])
def test_load_checkpoint_refuses_a_non_finite_parameter(tmp_path, name, value):
    """One NaN or infinite float32 value in params.bin, in the first, a middle
    or the last parameter, is a CheckpointError that names the parameter."""
    cfg = tiny_config()
    params = build_parameters(cfg, 7, np.random.default_rng(4))
    ck = checkpoint.save_checkpoint(tmp_path / "ck", params, cfg, VOCAB7)
    with open(ck / checkpoint.PARAMS_FILE, "r+b") as fh:
        fh.seek(16 + 4 * _offset_of(name, cfg, 7))
        fh.write(np.array([value], dtype="<f4").tobytes())
    with pytest.raises(CheckpointError, match=f"checkpoint parameter {name} .*NaN or inf"):
        checkpoint.load_checkpoint(ck)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39],
                         ids=["nan", "inf", "-inf", "float32-overflow"])
def test_save_checkpoint_refuses_a_non_finite_parameter(tmp_path, value):
    """A parameter that is NaN or infinite as float32, one beyond float32's
    range included, is refused: a new save writes nothing, and a save over a
    checkpoint leaves it byte for byte."""
    cfg = tiny_config()
    params = build_parameters(cfg, 7, np.random.default_rng(4))
    bad = {k: v.copy() for k, v in params.items()}
    bad["encoders/word/fw_W"][0, 0] = value
    match = "encoders/word/fw_W holds a NaN or infinite value"
    with pytest.raises(CheckpointError, match=match):
        checkpoint.save_checkpoint(tmp_path / "new", bad, cfg, VOCAB7)
    assert list(tmp_path.iterdir()) == []
    ck = checkpoint.save_checkpoint(tmp_path / "ck", params, cfg, VOCAB7)
    before = _tree(ck)
    with pytest.raises(CheckpointError, match=match):
        checkpoint.save_checkpoint(ck, bad, cfg, VOCAB7)
    assert _tree(ck) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]


def _per_parameter_params_bin(params, spec) -> bytes:
    """params.bin as written one parameter at a time: the 1 x n feature-file
    header, then each parameter as float32, in spec order."""
    n = sum(int(np.prod(shape)) for shape in spec.values())
    return data.FEATURE_MAGIC + struct.pack("<II", 1, n) + b"".join(
        np.asarray(params[name], "<f4").tobytes() for name in spec)


# (config, vocabulary size): the test shape, and the paper's default model
# over a 2,000-word vocabulary (1,427,206 values)
LAYOUT_SHAPES = {"tiny": (tiny_config(), 7), "default": (RunConfig(), 2000)}


@pytest.mark.parametrize("shape", LAYOUT_SHAPES)
def test_params_bin_is_bytewise_the_per_parameter_layout(tmp_path, shape):
    cfg, vocab_size = LAYOUT_SHAPES[shape]
    vocab = {"<unk>": 0, **{f"w{i}": i for i in range(1, vocab_size)}}
    params = build_parameters(cfg, vocab_size, np.random.default_rng(4))
    ck = checkpoint.save_checkpoint(tmp_path / "ck", params, cfg, vocab)
    spec = parameter_spec(cfg, vocab_size)
    assert (ck / checkpoint.PARAMS_FILE).read_bytes() == \
        _per_parameter_params_bin(params, spec)


def test_a_per_parameter_params_bin_loads_bitwise(tmp_path):
    """A params.bin written one parameter at a time, here over a checkpoint
    saved from other parameters, loads as those parameters' float32 values."""
    cfg = tiny_config()
    ck = checkpoint.save_checkpoint(
        tmp_path / "ck", build_parameters(cfg, 7, np.random.default_rng(4)), cfg, VOCAB7)
    params = build_parameters(cfg, 7, np.random.default_rng(9))
    (ck / checkpoint.PARAMS_FILE).write_bytes(
        _per_parameter_params_bin(params, parameter_spec(cfg, 7)))
    loaded, _, _ = checkpoint.load_checkpoint(ck)
    assert list(loaded) == list(params)
    for name, arr in params.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].tobytes() == \
            np.asarray(arr, "<f4").astype(np.float64).tobytes(), name


def test_parameter_views_lay_the_spec_end_to_end():
    spec = parameter_spec(tiny_config(), 7)
    n = sum(int(np.prod(shape)) for shape in spec.values())
    vector = np.arange(n, dtype=np.float64)
    views = parameter_views(vector, spec)
    assert [(name, v.shape) for name, v in views.items()] == list(spec.items())
    assert all(np.shares_memory(v, vector) for v in views.values())
    assert np.concatenate([v.ravel() for v in views.values()]).tobytes() == \
        vector.tobytes()


def test_parameter_views_refuse_a_vector_of_the_wrong_length():
    spec = parameter_spec(tiny_config(), 7)
    n = sum(int(np.prod(shape)) for shape in spec.values())
    for vector in (np.zeros(n - 1), np.zeros(n + 1), np.zeros(0), np.zeros((1, n))):
        with pytest.raises(CheckpointError, match=f"values do not fit a layout of {n}$"):
            parameter_views(vector, spec)


def test_params_bin_of_more_than_one_row_is_checkpoint_error(tmp_path):
    """A params.bin that holds the right number of values, but not as one row."""
    cfg = tiny_config()
    params = build_parameters(cfg, 7, np.random.default_rng(4))
    ck = checkpoint.save_checkpoint(tmp_path / "ck", params, cfg, VOCAB7)
    values = data.read_feature_file(ck / checkpoint.PARAMS_FILE)
    n = values.size
    rows = next(k for k in range(2, n + 1) if n % k == 0)
    for shape in ((rows, n // rows), (n, 1)):
        data.write_feature_file(ck / checkpoint.PARAMS_FILE, values.reshape(shape))
        with pytest.raises(CheckpointError,
                           match=f"cannot read checkpoint parameters .*{shape[0]} rows"):
            checkpoint.load_checkpoint(ck)


@pytest.mark.parametrize("suffix", ["", ".tmp", ".old"])
def test_save_refuses_a_checkpoint_or_sibling_that_is_not_a_directory(tmp_path, suffix):
    """A regular file at ``ck``, ``ck.tmp`` or ``ck.old`` is a CheckpointError
    naming it, and the save renames, writes and removes nothing: the file and
    a checkpoint already at ``ck`` keep their bytes."""
    cfg, ck = tiny_config(), tmp_path / "ck"
    params = build_parameters(cfg, 7, np.random.default_rng(3))
    if suffix:
        checkpoint.save_checkpoint(ck, params, cfg, VOCAB7)
    before = _tree(ck) if suffix else None
    file = tmp_path / f"ck{suffix}"
    file.write_text("kept")
    with pytest.raises(CheckpointError, match=f"{file} exists and is not a directory"):
        checkpoint.save_checkpoint(ck, params, cfg, VOCAB7)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"ck", file.name})
    assert file.read_text() == "kept"
    if suffix:
        assert _tree(ck) == before


@pytest.mark.parametrize("filename,content", [
    ("index.json", "{not json"),
    ("index.json", "{}"),
    ("index.json", "[]"),
    ("index.json", '{"tensors": {"encoders/embedding": {}}}'),   # the old layout
    ("index.json", '{"extra": {}}'),
    ("index.json", '{"format": 1, "extra": {}}'),
    ("index.json", None),
    ("config.json", "{not json"),
    ("config.json", "[1, 2]"),
    ("config.json", None),
    ("vocab.json", "{not json"),
    ("vocab.json", "7"),
    ("vocab.json", "[[1]]"),
    ("vocab.json", None),
    ("vocab.json", '["a", "<unk>", "b"]'),
    ("vocab.json", '["<unk>", "a", "a"]'),
    ("vocab.json", "[]"),
    ("params.bin", None),
    ("params.bin", "M2SMFEAT"),
])
def test_unreadable_checkpoint_is_checkpoint_error(tmp_path, filename, content):
    """A corrupt (or, for None, deleted) checkpoint file."""
    cfg = tiny_config()
    params = build_parameters(cfg, 3, np.random.default_rng(4))
    ck = checkpoint.save_checkpoint(tmp_path / "ck", params, cfg, {"<unk>": 0, "a": 1, "b": 2})
    if content is None:
        (ck / filename).unlink()
    else:
        (ck / filename).write_text(content, encoding="utf-8")
    with pytest.raises(CheckpointError, match="checkpoint"):
        checkpoint.load_checkpoint(ck)
