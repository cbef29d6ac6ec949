import hashlib
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from conftest import tiny_config
from mmsum import checkpoint, model
from mmsum.config import RunConfig
from mmsum.errors import CheckpointError
from mmsum.model import SummarizerModel, build_parameters, parameter_spec
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


def test_model_binding_draws_no_random_numbers(monkeypatch):
    cfg = tiny_config()
    params = build_parameters(cfg, 7, np.random.default_rng(0))

    def forbidden(*args, **kwargs):
        raise AssertionError("model construction must not draw an init")

    monkeypatch.setattr(model, "build_parameters", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    SummarizerModel(params, cfg, 7)


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
    assert out.sent_attn.weights.data.shape[0] == ns
    npt.assert_allclose(out.sent_attn.weights.data.sum(axis=1), np.ones(ns),
                        atol=1e-6)
    npt.assert_allclose(out.frame_attn.weights.data.sum(axis=1), np.ones(nm),
                        atol=1e-6)


def test_bihop_model_with_empty_transcript_falls_back():
    import dataclasses
    cfg = tiny_config(attention="bihop")
    rng = np.random.default_rng(6)
    sample = make_check_sample(cfg, rng)
    sample = dataclasses.replace(
        sample, transcript=dataclasses.replace(sample.transcript,
                                               tokens=np.array([], dtype=int)))
    model = SummarizerModel(build_parameters(cfg, 7, rng), cfg, 7)
    out = model.forward(sample)  # single-hop fallback, no error
    nm = sample.frames.shape[0]
    assert out.sent_attn.weights.data.shape == (2, nm)  # attends frames directly


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
    for name, arr in params.items():
        npt.assert_array_equal(loaded[name],
                               arr.astype(np.float32).astype(np.float64),
                               err_msg=name)
    # loaded parameters drive a working model
    model = SummarizerModel(loaded, cfg2, len(vocab2))
    sample = make_check_sample(cfg2, np.random.default_rng(0))
    assert model.forward(sample).sent_probs.shape == (2,)


@pytest.mark.parametrize("filename,content", [
    ("index.json", "{not json"),
    ("index.json", "{}"),
    ("index.json", "[]"),
    ("index.json", '{"tensors": {"encoders/embedding": {}}}'),
    ("index.json", '{"tensors": {"encoders/embedding": '
                   '{"file": "encoders__embedding.bin", "shape": ["a"]}}}'),
    ("index.json", '{"tensors": {"encoders/embedding": '
                   '{"file": "encoders__embedding.bin", "shape": [3.0, 2]}}}'),
    ("index.json", '{"tensors": {"encoders/embedding": '
                   '{"file": "encoders__embedding.bin", "shape": [-3, -2]}}}'),
    ("index.json", None),
    ("config.json", "{not json"),
    ("config.json", "[1, 2]"),
    ("config.json", None),
    ("vocab.json", "{not json"),
    ("vocab.json", "7"),
    ("vocab.json", "[[1]]"),
    ("vocab.json", None),
    ("encoders__embedding.bin", None),
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
