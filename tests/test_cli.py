import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
import mmsum
from mmsum import checkpoint, cli, data, evaluation, training
from mmsum.config import (ATTENTION_MODES, FUSION_MODES, SEED_ENV_VAR, RunConfig,
                          config_from_dict, resolve_config)
from mmsum.data import SynthConfig
from mmsum.errors import ConfigError
from mmsum.model import SummarizerModel


def run_cli(*argv):
    return cli.main(list(argv))


def test_star_import_resolves_every_name_in_all():
    namespace = {}
    exec("from mmsum import *", namespace)   # a stale __all__ entry raises here
    assert set(mmsum.__all__) <= namespace.keys()


def read_tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


SMALL_SYNTH = ("--samples", "6", "--sentences", "4", "--sentence-len", "5",
               "--frames", "4", "--feature-dim", "8", "--vocab-size", "40",
               "--transcript-len", "10")

TINY_TRAIN = ("--hidden", "2", "--embed-dim", "2", "--attn-dim", "2",
              "--fusion-dim", "2", "--feature-dim", "8", "--fps-group", "1",
              "--epochs", "2", "--lr", "0.01", "--seed", "3")


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus") / "data"
    assert run_cli("synth", "--out", str(out), "--seed", "5", *SMALL_SYNTH) == 0
    return out


# ---------------------------------------------------------------------------
# synth

def test_synth_default_writes_twenty_samples(tmp_path):
    out = tmp_path / "d"
    assert run_cli("synth", "--out", str(out), "--seed", "1") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["samples"]) == 20
    assert set(manifest["split"].values()) == {"train", "val", "test"}


@pytest.mark.parametrize("flags,synth", [
    ((), SynthConfig()),
    (("--no-refs",), SynthConfig(with_refs=False)),
    (SMALL_SYNTH + ("--salience", "0.4", "--noise", "0.2"),
     SynthConfig(n_samples=6, n_sentences=4, sentence_len=5, n_frames=4, feature_dim=8,
                 vocab_size=40, transcript_len=10, salience=0.4, noise=0.2)),
], ids=["defaults", "no-refs", "every-flag"])
def test_synth_flags_map_to_synth_config_fields(tmp_path, monkeypatch, flags, synth):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert run_cli("synth", "--out", str(tmp_path / "cli"), "--seed", "7", *flags) == 0
    data.synth_generate(synth, 7, tmp_path / "direct")
    assert read_tree_bytes(tmp_path / "cli") == read_tree_bytes(tmp_path / "direct")


def test_synth_same_seed_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("synth", "--out", str(a), "--seed", "7", *SMALL_SYNTH)
    run_cli("synth", "--out", str(b), "--seed", "7", *SMALL_SYNTH)
    assert read_tree_bytes(a) == read_tree_bytes(b)


def test_synth_refuses_existing_dir_without_force(tmp_path, capsys):
    out = tmp_path / "d"
    out.mkdir()
    assert run_cli("synth", "--out", str(out), "--seed", "1") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CLI"
    assert run_cli("synth", "--out", str(out), "--seed", "1", "--force",
                   *SMALL_SYNTH) == 0


def test_synth_bad_salience_is_config_error(tmp_path, capsys):
    assert run_cli("synth", "--out", str(tmp_path / "d"), "--seed", "1",
                   "--salience", "1.5") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CONFIG"
    assert "salience" in err["message"]


@pytest.mark.parametrize("flags,field", [
    (("--samples", "-1"), "n_samples"), (("--samples", "2"), "n_samples"),
    (("--feature-dim", "-3"), "feature_dim"), (("--vocab-size", "20"), "vocab_size"),
    (("--vocab-size", "25"), "vocab_size"), (("--noise", "nan"), "noise"),
    (("--transcript-len", "-1"), "transcript_len")])
def test_synth_out_of_bounds_flag_is_config_error(tmp_path, capsys, flags, field):
    out = tmp_path / "d"
    assert run_cli("synth", "--out", str(out), "--seed", "1", *flags) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CONFIG" and field in err["message"]
    assert not out.exists()


def test_synth_without_enough_distinct_sentences_is_config_error(tmp_path):
    """One-token sentences from a 26-word vocabulary cannot fill 40 distinct
    sentences: the run ends in a CONFIG error naming the three fields, and
    writes nothing, rather than redrawing forever."""
    out = tmp_path / "d"
    proc = subprocess.run(
        [sys.executable, "-m", "mmsum.cli", "synth", "--out", str(out), "--seed", "1",
         "--sentence-len", "1", "--sentences", "40", "--vocab-size", "26"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "CONFIG"
    assert all(name in err["message"]
               for name in ("n_sentences=40", "sentence_len=1", "vocab_size=26"))
    assert not out.exists()


# ---------------------------------------------------------------------------
# train

def test_train_writes_checkpoint_and_metrics(cli_corpus, tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), *TINY_TRAIN) == 0
    params, cfg, vocab = checkpoint.load_checkpoint(out / "checkpoint")
    assert cfg.hidden == 2 and len(vocab) > 1
    lines = (out / "metrics.jsonl").read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["epoch"] for r in records] == list(range(1, len(records) + 1))
    assert {"train_loss", "train_ce", "val_loss", "R_div", "R_rep", "lr"} <= set(records[0])
    assert not list(out.rglob("*.tmp"))


def test_train_zero_lr_checkpoint_equals_initialization(cli_corpus, tmp_path):
    from mmsum.model import build_parameters
    out = tmp_path / "run"
    args = list(TINY_TRAIN)
    args[args.index("--lr") + 1] = "0.0"
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), *args) == 0
    params, cfg, vocab = checkpoint.load_checkpoint(out / "checkpoint")
    init_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    init = build_parameters(cfg, len(vocab), init_rng)
    for name, arr in init.items():
        npt.assert_array_equal(params[name],
                               arr.astype(np.float32).astype(np.float64), err_msg=name)


def test_train_deterministic_outputs(cli_corpus, tmp_path):
    # identical config (including out_dir) run twice must rewrite the same bytes
    out = tmp_path / "run"
    outs = []
    for _ in range(2):
        assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                       "--out", str(out), *TINY_TRAIN) == 0
        outs.append(read_tree_bytes(out))
    assert outs[0] == outs[1]


def test_train_text_only_baseline(cli_corpus, tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), "--no-frames", "--no-transcript",
                   "--no-bistream", "--alpha-vs", "0", *TINY_TRAIN) == 0
    params, cfg, _ = checkpoint.load_checkpoint(out / "checkpoint")
    assert not cfg.use_frames
    assert not any(name.startswith("attention/") for name in params)
    assert not any(name.startswith("encoders/frame") for name in params)


def test_env_seed_overrides_flag(cli_corpus, tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), *TINY_TRAIN) == 0
    _, cfg, _ = checkpoint.load_checkpoint(out / "checkpoint")
    assert cfg.seed == 99


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"hidden": 5, "beta": 0.5}))
    cfg = resolve_config(cfg_file, {"beta": 0.9})
    assert cfg.hidden == 5      # from file
    assert cfg.beta == 0.9      # flag beats file
    monkeypatch.setenv(SEED_ENV_VAR, "123")
    assert resolve_config(cfg_file, {"seed": 4}).seed == 123  # env beats flag


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"hiden": 5}))
    with pytest.raises(ConfigError, match="hiden"):
        resolve_config(cfg_file, {})


@pytest.mark.parametrize("bad", [
    {"hidden": "abc"}, {"hidden": True}, {"hidden": 2.5}, {"beta": "0.3"},
    {"use_frames": "no"}, {"seed": "1"}, {"epochs": 0}, {"patience": -1},
    {"lr": -0.1}, {"lr": float("nan")}, {"beta": float("inf")},
    {"attention": "bogus"}, {"fusion": "late_plus "}, {"min_frames": -5},
])
def test_bad_config_value_is_config_error(cli_corpus, tmp_path, capsys, bad):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(bad))
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), "--config", str(cfg_file)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CONFIG" and next(iter(bad)) in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("content", [b"[1]", b'{"hidden": "\xff"}', b"{not json", None],
                         ids=["list", "not-utf8", "not-json", "missing"])
def test_unreadable_config_file_is_config_error(cli_corpus, tmp_path, capsys, content):
    cfg_file = tmp_path / "c.json"
    if content is not None:
        cfg_file.write_bytes(content)
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), "--config", str(cfg_file)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CONFIG" and "c.json" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--epochs", "0"), ("--patience", "-1"),
                                   ("--lr", "-0.001"), ("--lr", "nan")])
def test_bad_flag_value_is_config_error(cli_corpus, tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), *TINY_TRAIN, *flags) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CONFIG" and flags[0][2:] in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("malform", [
    lambda e: {"samples": [1]},
    lambda e: {"samples": [e["id"]]},
    lambda e: {"samples": [None]},
    lambda e: {"samples": e["id"]},
    lambda e: {"samples": e},
    lambda e: {"samples": [{**e, "id": 5}]},
    lambda e: {"samples": [{**e, "document": [e["document"]]}]},
    lambda e: {"samples": [{**e, "features": None}]},
    lambda e: {"samples": [{**e, "ref_features": 3}]},
    lambda e: {"samples": [e], "split": ["train"]},
    lambda e: b'{"samples": [], "note": "\xff"}',
    lambda e: b'{"samples": [' + b"9" * 5000 + b"]}",    # past the int digit limit
    lambda e: b"[" * 100_000 + b"]" * 100_000,            # past the recursion limit
])
def test_malformed_manifest_is_schema_error(cli_corpus, tmp_path, capsys, malform):
    entry = json.loads((cli_corpus / "manifest.json").read_text())["samples"][0]
    # entry paths resolve against the manifest's directory
    (tmp_path / "samples").symlink_to(cli_corpus / "samples")
    path = tmp_path / "manifest.json"
    doc = malform(entry)
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", str(path), "--out", str(out), *TINY_TRAIN) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "SCHEMA"
    assert not out.exists()


def test_model_flags_map_to_config_fields():
    args = cli.build_parser().parse_args(
        ["train", "--out", "o", "--manifest", "m", "--seed", "0", "--alpha-ts", "2",
         "--no-frames", "--no-transcript", "--no-bistream", "--sum-pool",
         "--late-plus-prose"])
    assert cli._overrides_from_args(args) == {
        "out_dir": "o", "manifest": "m", "seed": 0, "alpha_ts": 2.0,
        "use_frames": False, "use_transcript": False, "use_bistream": False,
        "sum_pool": True, "late_plus_prose": True}
    assert cli._overrides_from_args(cli.build_parser().parse_args(["train"])) == {}


def _flag(option, dest, action="Store", type=None, choices=None, default=None,
          required=False):
    return option, dest, action, type, choices, default, required


# The parser as it was written out by hand, before its flags were built from the
# config dataclasses: (option, dest, action, type (None is str), choices,
# default, required) per subcommand.
RUN_FLAGS = {
    _flag("--config", "config"), _flag("--manifest", "manifest"), _flag("--out", "out"),
    _flag("--seed", "seed", type="int"),
    _flag("--attention", "attention", choices=ATTENTION_MODES),
    _flag("--fusion", "fusion", choices=FUSION_MODES),
    _flag("--beta", "beta", type="float"), _flag("--alpha-ts", "alpha_ts", type="float"),
    _flag("--alpha-vs", "alpha_vs", type="float"), _flag("--lr", "lr", type="float"),
    _flag("--epochs", "epochs", type="int"), _flag("--patience", "patience", type="int"),
    _flag("--hidden", "hidden", type="int"), _flag("--embed-dim", "embed_dim", type="int"),
    _flag("--attn-dim", "attn_dim", type="int"),
    _flag("--fusion-dim", "fusion_dim", type="int"),
    _flag("--feature-dim", "feature_dim", type="int"),
    _flag("--fps-group", "fps_group", type="int"),
    _flag("--k-sentences", "k_sentences", type="int"),
    _flag("--k-frames", "k_frames", type="int"),
    _flag("--label-cap", "label_cap", type="int"),
    _flag("--min-frames", "min_frames", type="int"),
    _flag("--no-frames", "use_frames", "StoreFalse"),
    _flag("--no-transcript", "use_transcript", "StoreFalse"),
    _flag("--no-bistream", "use_bistream", "StoreFalse"),
    _flag("--sum-pool", "sum_pool", "StoreTrue"),
    _flag("--late-plus-prose", "late_plus_prose", "StoreTrue"),
}
PARSER_TABLE = {
    "synth": {
        _flag("--out", "out", required=True),
        _flag("--force", "force", "StoreTrue", default=False),
        _flag("--config", "config"), _flag("--seed", "seed", type="int"),
        _flag("--samples", "n_samples", type="int"),
        _flag("--sentences", "n_sentences", type="int"),
        _flag("--sentence-len", "sentence_len", type="int"),
        _flag("--frames", "n_frames", type="int"),
        _flag("--feature-dim", "feature_dim", type="int"),
        _flag("--vocab-size", "vocab_size", type="int"),
        _flag("--salience", "salience", type="float"),
        _flag("--noise", "noise", type="float"),
        _flag("--transcript-len", "transcript_len", type="int"),
        _flag("--no-refs", "with_refs", "StoreFalse"),
    },
    "train": RUN_FLAGS,
    "eval": RUN_FLAGS | {
        _flag("--checkpoint", "checkpoint", required=True),
        _flag("--split", "split", choices=("train", "val", "test"), default="test"),
        _flag("--format", "format", choices=("json", "csv"), default="json"),
    },
    "ablate": RUN_FLAGS | {
        _flag("--workers", "workers", type="int", default=1),
        _flag("--sweep-ratio", "sweep_ratio", "StoreTrue", default=False),
        _flag("--sweep-beta", "sweep_beta", "StoreTrue", default=False),
    },
    "overlap": {
        _flag("--manifest", "manifest"), _flag("--out", "out"), _flag("--config", "config"),
        _flag("--seed", "seed", type="int"), _flag("--min-frames", "min_frames", type="int"),
    },
}
FIELDS_WITHOUT_FLAG = {"out_dir", "train_frac", "val_frac", "test_frac", "ablate_epochs"}


def _subparsers():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_parser_matches_the_recorded_flag_table():
    table = {}
    for command, p in _subparsers().items():
        table[command] = {
            (*a.option_strings, a.dest, type(a).__name__.strip("_").removesuffix("Action"),
             None if a.type in (None, str) else a.type.__name__, a.choices, a.default,
             a.required)
            for a in p._actions if not isinstance(a, argparse._HelpAction)}
    assert table == PARSER_TABLE


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_every_run_config_field_has_one_flag(command):
    dests = [a.dest for a in _subparsers()[command]._actions]
    for f in dataclasses.fields(RunConfig):
        assert dests.count(f.name) == (f.name not in FIELDS_WITHOUT_FLAG), f.name


@pytest.mark.parametrize("command", ["train", "synth"])
@pytest.mark.parametrize("source", ["flag", "file", "env"])
def test_negative_seed_is_config_error(cli_corpus, tmp_path, capsys, monkeypatch,
                                       command, source):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out = tmp_path / "run"
    argv = [command, "--out", str(out)]
    if command == "train":
        i = TINY_TRAIN.index("--seed")
        argv += ["--manifest", str(cli_corpus / "manifest.json"),
                 *TINY_TRAIN[:i], *TINY_TRAIN[i + 2:]]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "file":
        (tmp_path / "c.json").write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(tmp_path / "c.json")]
    else:
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
    assert run_cli(*argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CONFIG" and "seed" in err["message"]
    assert not out.exists()


_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.floats(allow_nan=True),
    st.text(max_size=4), st.sampled_from(ATTENTION_MODES + FUSION_MODES),
    st.lists(st.integers(), max_size=2))


@st.composite
def _run_config_dicts(draw):
    """Some RunConfig fields, each at its default or at an arbitrary value."""
    defaults = dataclasses.asdict(RunConfig())
    names = draw(st.lists(st.sampled_from(sorted(defaults)), unique=True, max_size=5))
    return {name: draw(st.one_of(st.just(defaults[name]), _ANY_VALUE)) for name in names}


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(_run_config_dicts())
def test_config_from_dict_returns_or_raises_config_error(values):
    try:
        cfg = config_from_dict(values)
    except ConfigError:
        return
    assert {k: getattr(cfg, k) for k in values} == values


def test_min_frames_zero_is_legal():
    assert config_from_dict({"min_frames": 0}).min_frames == 0


def test_int_accepted_for_float_field(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"beta": 1, "lr": 0}))
    cfg = resolve_config(cfg_file, {})
    assert cfg.beta == 1 and cfg.lr == 0


# ---------------------------------------------------------------------------
# eval

@pytest.fixture(scope="module")
def trained_run(cli_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained") / "run"
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), *TINY_TRAIN) == 0
    return out


def test_eval_writes_json_report(cli_corpus, trained_run, tmp_path):
    out = tmp_path / "ev"
    assert run_cli("eval", "--checkpoint", str(trained_run / "checkpoint"),
                   "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), "--split", "test") == 0
    report = json.loads((out / "report_test.json").read_text())
    assert report["per_sample"] and "corpus_mean" in report
    for row in report["per_sample"]:
        assert 0.0 <= row["r1"] <= 1.0


def test_eval_on_unsplit_manifest_scores_the_split_train_used(cli_corpus, tmp_path):
    doc = json.loads((cli_corpus / "manifest.json").read_text())
    del doc["split"]
    (tmp_path / "samples").symlink_to(cli_corpus / "samples")
    unsplit = tmp_path / "manifest.json"
    unsplit.write_text(json.dumps(doc))
    run = tmp_path / "run"
    assert run_cli("train", "--manifest", str(unsplit), "--out", str(run), *TINY_TRAIN) == 0
    _, cfg, _ = checkpoint.load_checkpoint(run / "checkpoint")
    test_ids = data.split_dataset(data.load_manifest(unsplit),
                                  (cfg.train_frac, cfg.val_frac, cfg.test_frac),
                                  cfg.seed).entries_for("test")
    assert len(test_ids) < len(doc["samples"])
    for name, flags in (("ev", ()), ("ev_seed", ("--seed", "99"))):
        # a --seed given to eval must not re-split the manifest
        assert run_cli("eval", "--checkpoint", str(run / "checkpoint"),
                       "--manifest", str(unsplit), "--out", str(tmp_path / name),
                       "--split", "test", *flags) == 0
        report = json.loads((tmp_path / name / "report_test.json").read_text())
        assert [row["id"] for row in report["per_sample"]] == [e.id for e in test_ids]


def test_eval_csv_alongside_json(cli_corpus, trained_run, tmp_path):
    out = tmp_path / "ev"
    assert run_cli("eval", "--checkpoint", str(trained_run / "checkpoint"),
                   "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), "--format", "csv") == 0
    assert (out / "report_test.json").is_file()
    header = (out / "report_test.csv").read_text().splitlines()[0]
    assert header == "id,r1,r2,rl,cos"
    assert not list(out.glob("*.tmp"))


def test_eval_dim_override_mismatch_is_checkpoint_error(cli_corpus, trained_run,
                                                        tmp_path, capsys):
    assert run_cli("eval", "--checkpoint", str(trained_run / "checkpoint"),
                   "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(tmp_path / "ev"), "--hidden", "64") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CHECKPOINT"


def test_eval_corrupt_checkpoint_index_is_checkpoint_error(cli_corpus, trained_run,
                                                          tmp_path, capsys):
    ck = shutil.copytree(trained_run / "checkpoint", tmp_path / "checkpoint")
    (ck / "index.json").write_text("{not json", encoding="utf-8")
    assert run_cli("eval", "--checkpoint", str(ck),
                   "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(tmp_path / "ev")) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "CHECKPOINT"


@pytest.mark.parametrize("edit", [
    lambda tokens: ["unk", *tokens[1:]],     # no <unk>
    lambda tokens: [*tokens[:-1], tokens[1]],    # a token twice
], ids=["no-unk", "repeated-token"])
def test_eval_bad_checkpoint_vocabulary_is_checkpoint_error(cli_corpus, trained_run,
                                                            tmp_path, capsys, edit):
    """Both edits keep the vocabulary's length, so the embedding still fits."""
    ck = shutil.copytree(trained_run / "checkpoint", tmp_path / "checkpoint")
    tokens = json.loads((ck / "vocab.json").read_text(encoding="utf-8"))
    (ck / "vocab.json").write_text(json.dumps(edit(tokens)), encoding="utf-8")
    assert run_cli("eval", "--checkpoint", str(ck),
                   "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(tmp_path / "ev")) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    err = json.loads(err)
    assert err["error"] == "CHECKPOINT" and "vocabulary" in err["message"]
    assert not (tmp_path / "ev").exists()


def test_eval_missing_refs_omits_cos(cli_corpus, trained_run, tmp_path):
    # strip ref_features from a copy of the manifest
    doc = json.loads((cli_corpus / "manifest.json").read_text())
    for entry in doc["samples"]:
        entry.pop("ref_features", None)
    stripped = cli_corpus / "manifest_norefs.json"
    stripped.write_text(json.dumps(doc))
    out = tmp_path / "ev"
    with pytest.warns(UserWarning, match="Cos omitted"):
        assert run_cli("eval", "--checkpoint", str(trained_run / "checkpoint"),
                       "--manifest", str(stripped), "--out", str(out)) == 0
    report = json.loads((out / "report_test.json").read_text())
    assert report["corpus_mean"]["cos"] is None


def test_eval_non_finite_reference_features_is_ingestion_error(cli_corpus, trained_run,
                                                              tmp_path, capsys):
    corpus = shutil.copytree(cli_corpus, tmp_path / "data")
    manifest = data.load_manifest(corpus / "manifest.json")
    refs_path = corpus / manifest.entries_for("test")[0].ref_features
    refs = data.read_feature_file(refs_path)
    refs[0, 0] = np.nan
    data.write_feature_file(refs_path, refs)
    out = tmp_path / "ev"
    assert run_cli("eval", "--checkpoint", str(trained_run / "checkpoint"),
                   "--manifest", str(corpus / "manifest.json"), "--out", str(out)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "INGESTION"
    assert "non-finite reference features" in json.loads(lines[0])["message"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# overlap

def test_overlap_reports_planted_overlap(cli_corpus, tmp_path, capsys):
    out = tmp_path / "ov"
    assert run_cli("overlap", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out)) == 0
    report = json.loads((out / "overlap.json").read_text())
    assert report["article"]["r1"] > 0.0
    assert report["reference"]["r1"] > 0.0
    stdout = capsys.readouterr().out
    assert "article" in stdout and "reference" in stdout


def test_overlap_empty_transcripts_cli_error(cli_corpus, tmp_path, capsys):
    doc = json.loads((cli_corpus / "manifest.json").read_text())
    empty = cli_corpus / "empty.txt"
    empty.write_text("")
    for entry in doc["samples"]:
        entry["transcript"] = "empty.txt"
    stripped = cli_corpus / "manifest_notr.json"
    stripped.write_text(json.dumps(doc))
    assert run_cli("overlap", "--manifest", str(stripped),
                   "--out", str(tmp_path / "ov")) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "CLI"


# ---------------------------------------------------------------------------
# ablate (smoke; the full 48-cell matrix runs in the acceptance suite)

TINY_ABLATE = ("--epochs", "1", "--hidden", "2", "--embed-dim", "2",
               "--attn-dim", "2", "--fusion-dim", "2", "--feature-dim", "8",
               "--fps-group", "1", "--lr", "0.01", "--seed", "2")


def test_ablate_parallel_workers_match_sequential(cli_corpus, tmp_path):
    rows = {}
    for tag, workers in (("seq", "1"), ("par", "2")):
        out = tmp_path / tag
        assert run_cli("ablate", "--manifest", str(cli_corpus / "manifest.json"),
                       "--out", str(out), "--workers", workers, *TINY_ABLATE) == 0
        rows[tag] = json.loads((out / "ablation.json").read_text())["cells"]
    assert rows["seq"] == rows["par"]


def test_ablate_sweeps_emit_extra_rows(cli_corpus, tmp_path):
    out = tmp_path / "ab"
    assert run_cli("ablate", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), "--epochs", "1", "--sweep-ratio",
                   "--sweep-beta", "--hidden", "2", "--embed-dim", "2",
                   "--attn-dim", "2", "--fusion-dim", "2", "--feature-dim", "8",
                   "--fps-group", "1", "--lr", "0.01", "--seed", "2") == 0
    report = json.loads((out / "ablation.json").read_text())
    assert len(report["cells"]) == 48 + 4 + 5
    ratios = [row["alpha_ts"] for row in report["cells"] if row.get("sweep") == "ratio"]
    assert ratios == [1.0, 2.0, 3.33, 5.0]
    betas = [row["beta"] for row in report["cells"] if row.get("sweep") == "beta"]
    assert betas == [0.0, 0.1, 0.3, 0.5, 1.0]
    assert report["n_failed"] == 0


def _fake_cell(*args):
    """A cell's row, as ``run_ablate_cell`` returns it, without training."""
    row = {**args[-1], "status": "ok", "val_r1": 0.0, "val_loss": 0.0}
    row.pop("config")
    return row


def test_ablate_rereads_a_corpus_regenerated_at_the_same_path(tmp_path, capsys,
                                                               monkeypatch):
    """A second ablate run in one process reads the corpus now on disk: once
    regenerated with 16-d frames, it fails the 8-d feature_dim check."""
    monkeypatch.setattr(cli, "run_ablate_cell", _fake_cell)
    corpus = tmp_path / "corpus"
    argv = ("ablate", "--manifest", str(corpus / "manifest.json"),
            "--out", str(tmp_path / "ab"), *TINY_ABLATE)
    assert run_cli("synth", "--out", str(corpus), "--seed", "5", *SMALL_SYNTH) == 0
    assert run_cli(*argv) == 0
    wide = list(SMALL_SYNTH)
    wide[wide.index("--feature-dim") + 1] = "16"
    assert run_cli("synth", "--out", str(corpus), "--force", "--seed", "5", *wide) == 0
    capsys.readouterr()
    assert run_cli(*argv) == 1
    _assert_feature_dim_error(capsys, 8, 16)


@pytest.mark.parametrize("workers,pool", [("1", None), ("2", (2, 24)), ("1000", (48, 1))])
def test_ablate_pool_has_at_most_one_worker_per_cell(cli_corpus, tmp_path, monkeypatch,
                                                      workers, pool):
    """``--workers`` sizes the pool up to the 48 cells, each worker taking one
    chunk of cells; one worker runs the cells in this process. The executor is
    a stand-in that records its size and runs the cells here."""
    made = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            made.append((self.max_workers, chunksize))
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(cli, "run_ablate_cell", _fake_cell)
    out = tmp_path / "ab"
    assert run_cli("ablate", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), "--workers", workers, *TINY_ABLATE) == 0
    assert made == ([pool] if pool else [])
    assert len(json.loads((out / "ablation.json").read_text())["cells"]) == 48


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_ablate_workers_below_one_is_cli_error(cli_corpus, tmp_path, capsys, monkeypatch,
                                               workers):
    monkeypatch.setattr(cli, "run_ablate_cell", _fail_if_called)
    out = tmp_path / "ab"
    assert run_cli("ablate", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), "--workers", workers, *TINY_ABLATE) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CLI" and "--workers" in err["message"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# feature_dim against the feature files

def _fail_if_called(*args, **kwargs):
    raise AssertionError("ran past the check that should end the run")


def _assert_feature_dim_error(capsys, configured, found):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CONFIG"
    assert f"feature_dim is {configured}" in err["message"]
    assert f"{found}-d frame features" in err["message"]


def _without_feature_dim(flags):
    i = flags.index("--feature-dim")
    return flags[:i] + flags[i + 2:]


def test_train_default_feature_dim_on_synth_corpus_is_config_error(cli_corpus, tmp_path,
                                                                    capsys, monkeypatch):
    monkeypatch.setattr(cli.training, "train_model", _fail_if_called)
    out = tmp_path / "run"
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), *_without_feature_dim(TINY_TRAIN)) == 1
    _assert_feature_dim_error(capsys, 2048, 8)
    assert not out.exists()


def test_train_without_frames_ignores_feature_dim(cli_corpus, tmp_path):
    assert run_cli("train", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(tmp_path / "run"), "--no-frames",
                   *_without_feature_dim(TINY_TRAIN)) == 0


def test_ablate_default_feature_dim_on_synth_corpus_is_config_error(cli_corpus, tmp_path,
                                                                     capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_ablate_cell", _fail_if_called)
    out = tmp_path / "ab"
    assert run_cli("ablate", "--manifest", str(cli_corpus / "manifest.json"),
                   "--out", str(out), *_without_feature_dim(TINY_ABLATE)) == 1
    _assert_feature_dim_error(capsys, 2048, 8)
    assert not out.exists()


def test_eval_on_corpus_of_other_feature_width_is_config_error(trained_run, tmp_path,
                                                               capsys, monkeypatch):
    wide = tmp_path / "wide"
    flags = list(SMALL_SYNTH)
    flags[flags.index("--feature-dim") + 1] = "16"
    assert run_cli("synth", "--out", str(wide), "--seed", "5", *flags) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli.evaluation, "evaluate_dataset", _fail_if_called)
    out = tmp_path / "ev"
    assert run_cli("eval", "--checkpoint", str(trained_run / "checkpoint"),
                   "--manifest", str(wide / "manifest.json"), "--out", str(out)) == 1
    _assert_feature_dim_error(capsys, 8, 16)
    assert not out.exists()


def _ablate_cell_against_a_rebuilt_model(micro_corpus, val, **config):
    """One ablation cell's row, and the report that ``evaluate_dataset`` gives
    on the same val samples with a model rebuilt from the best parameters of
    the same training, with the cached best-epoch outputs scored as the cell
    scores them."""
    _, samples, vocab = micro_corpus
    base = dataclasses.asdict(tiny_config(feature_dim=8))
    splits = {"train": samples[:3], "val": val}
    row = cli.run_ablate_cell(splits, len(vocab), base,
                              {"strategy": "+weighted", "config": config})
    assert row["status"] == "ok", row.get("error")
    cfg = config_from_dict({**base, **config})
    result = training.train_model(splits["train"], val, cfg, len(vocab))
    prepared = [data.prepare_for_model(s, cfg.fps_group, cfg.seed) for s in val]
    rebuilt = evaluation.evaluate_dataset(
        prepared, SummarizerModel(result.best_params, cfg, len(vocab)))
    cached = evaluation.score_summaries(prepared, [
        evaluation.select(sent, frame, cfg.k_sentences, cfg.k_frames)
        for sent, frame in result.best_val_probs])
    return row, result, rebuilt, cached


def _assert_cell_scores(row, rebuilt, cached):
    assert cached == rebuilt
    assert [row[f"val_{m}"] for m in ("r1", "r2", "rl")] == [
        rebuilt["corpus_mean"][m] for m in ("r1", "r2", "rl")]


@pytest.mark.filterwarnings("ignore:requested")
@pytest.mark.parametrize("attention", ATTENTION_MODES)
@pytest.mark.parametrize("fusion_mode", FUSION_MODES)
def test_ablate_cell_scores_the_best_epochs_val_outputs(micro_corpus, attention,
                                                         fusion_mode):
    """A cell scores the val outputs that training kept from its best epoch;
    the report equals the one from a model rebuilt from the best parameters,
    in every attention x fusion mode."""
    _, samples, _ = micro_corpus
    row, _, rebuilt, cached = _ablate_cell_against_a_rebuilt_model(
        micro_corpus, samples[3:], attention=attention, fusion=fusion_mode, epochs=1)
    _assert_cell_scores(row, rebuilt, cached)


@pytest.mark.filterwarnings("ignore:requested")
def test_ablate_cell_scores_the_best_epoch_when_it_is_not_the_last(micro_corpus):
    """Three epochs with patience 1, where the val loss rises again at
    epoch 3: the cell scores epoch 2's outputs."""
    _, samples, _ = micro_corpus
    row, result, rebuilt, cached = _ablate_cell_against_a_rebuilt_model(
        micro_corpus, samples[3:], epochs=3, patience=1, lr=0.3, seed=3)
    val_losses = [m["val_loss"] for m in result.metrics]
    assert result.epochs_run == 3
    assert val_losses.index(min(val_losses)) + 1 == 2
    _assert_cell_scores(row, rebuilt, cached)


@pytest.mark.filterwarnings("ignore:requested")
def test_ablate_cell_scores_a_val_sample_left_out_of_the_val_loss(micro_corpus):
    """A val sample whose greedy labels are all zero adds nothing to the val
    CE, but the cell still scores its summary."""
    _, samples, _ = micro_corpus
    unlabeled = dataclasses.replace(samples[3], gold_summary=["zzz yyy xxx"])
    assert training.greedy_labels(unlabeled.document, unlabeled.gold_summary).exclude_from_ce
    row, _, rebuilt, cached = _ablate_cell_against_a_rebuilt_model(
        micro_corpus, [unlabeled] + samples[4:], epochs=2)
    assert len(cached["per_sample"]) == 3
    _assert_cell_scores(row, rebuilt, cached)


def test_ablate_cell_still_warns_on_clamping_and_missing_references(micro_corpus):
    _, samples, vocab = micro_corpus
    val = [dataclasses.replace(s, ref_image_features=None) for s in samples[3:]]
    base = dataclasses.asdict(tiny_config(feature_dim=8, k_frames=5))
    with pytest.warns(UserWarning) as caught:
        row = cli.run_ablate_cell({"train": samples[:3], "val": val}, len(vocab), base,
                                  {"strategy": "+weighted", "config": {"epochs": 1}})
    assert row["status"] == "ok"
    messages = [str(w.message) for w in caught]
    assert "requested 5 frames but only 4 available; clamping" in messages
    assert "no reference images present; Cos omitted from the report" in messages
