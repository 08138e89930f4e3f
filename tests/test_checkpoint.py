"""Damaged checkpoints raise CheckpointError naming the file and the block,
for the low-level reader and for each model loader."""

import json
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from satd_forge.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from satd_forge.cli import main
from satd_forge.detector import (
    DetectorNetwork,
    DlHp,
    check_detector_setting,
    fit_detector,
    load_detector,
    save_detector,
)
from satd_forge.errors import CheckpointError
from satd_forge.generator import GeneratorHp, Seq2SeqNetwork, load_generator, save_generator, train_generator
from satd_forge.pretrainer import LmNetwork, load_lm, save_lm, train_next_token_lm
from satd_forge.textpipe import build_vocabulary, frame_comment
from test_detector import train_dl


def rewrite(path, edit):
    """Write the checkpoint back with its (name, array) blocks passed through `edit`."""
    header, blocks = load_checkpoint(path)
    kept = {k: v for k, v in header.items() if k not in ("kind", "format_version", "blocks")}
    save_checkpoint(path, header["kind"], kept, edit(list(blocks.items())))


def drop(name):
    return lambda blocks: [(n, a) for n, a in blocks if n != name]


def reshape(name):
    return lambda blocks: [(n, a[:-1] if n == name else a) for n, a in blocks]


def cut_columns(name):
    return lambda blocks: [(n, a[..., :-1] if n == name else a) for n, a in blocks]


def detector_ckpt(path):
    seqs = [["a", "b"], ["c"], ["a", "c", "b"], ["b"]]
    hp = DlHp(latent=4, layers=2, batch_size=2, epochs=1)
    save_detector(train_dl(seqs, [1, 0, 1, 0], hp, 0), path)
    return load_detector


def lm_ckpt(path):
    hp = DlHp(latent=4, layers=2, batch_size=2, epochs=1)
    save_lm(train_next_token_lm([["a", "b", "c"], ["c", "b"]], hp, seed=0), path)
    return load_lm


def generator_ckpt(path):
    pairs = [(["a", "b"], frame_comment(["todo"])), (["c"], frame_comment(["hack", "it"]))]
    hp = GeneratorHp(latent=4, layers=2, batch_size=2, epochs=1)
    save_generator(train_generator(pairs, hp, seed=0), path)
    return load_generator


def linear_ckpt(path, kind, features):
    """An mnb, svm or pretrained_embed_svm detector over a 4-word vocabulary."""
    seqs = [["a", "b"], ["c"], ["a", "c", "b"], ["b"]]
    vocab = build_vocabulary(seqs, "code")
    setting = check_detector_setting({"model": "mnb", "features": features} if kind == "mnb" else
                                     {"model": "svm", "features": features, "epochs": 2})
    init_blocks = None
    if kind == "pretrained_embed_svm":
        init_blocks = {"embedding.M": np.arange(vocab.size * 3.0).reshape(vocab.size, 3)}
    model = fit_detector(setting, seqs, [1, 0, 1, 0], 0, "code", vocab=vocab, init_blocks=init_blocks)
    save_detector(model, path)


LOADERS = {"detector": detector_ckpt, "lm": lm_ckpt, "generator": generator_ckpt}
SAVERS = {"detector": save_detector, "lm": save_lm, "generator": save_generator}
BLOCK = {"detector": "lstm1.Wh", "lm": "out.W", "generator": "enc_lstm0.Wx"}


def named(path, block):
    return re.escape(str(path)) + ".*" + re.escape(repr(block))


class TestReader:
    def test_shorter_than_header_length(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 100) + b"{}")
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*header"):
            load_checkpoint(path)

    def test_no_header_length(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_block_cut_short_is_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "dl", {}, [("w", np.ones((2, 2))), ("v", np.ones(3))])
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match=named(path, "v")):
            load_checkpoint(path)

    # a bit flip can make a signaling NaN, whose float64 cast warned before the block was checked
    def test_signaling_nan_is_named_without_a_warning(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "dl", {}, [("w", np.ones(2))])
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<I", 0x7F800001))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointError, match=named(path, "w") + ".*NaN or infinite"):
                load_checkpoint(path)

    def test_missing_header_field_is_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "dl", {}, [])
        with pytest.raises(CheckpointError, match=named(path, "vocab_words")):
            load_detector(path)


@pytest.mark.parametrize("model", sorted(LOADERS))
def test_missing_block(tmp_path, model):
    path = tmp_path / "m.ckpt"
    loader = LOADERS[model](path)
    rewrite(path, drop(BLOCK[model]))
    with pytest.raises(CheckpointError, match=named(path, BLOCK[model]) + ".*missing"):
        loader(path)


@pytest.mark.parametrize("model", sorted(LOADERS))
def test_reshaped_block(tmp_path, model):
    path = tmp_path / "m.ckpt"
    loader = LOADERS[model](path)
    rewrite(path, reshape(BLOCK[model]))
    with pytest.raises(CheckpointError, match=named(path, BLOCK[model]) + ".*shape"):
        loader(path)


def test_loaded_models_round_trip(tmp_path):
    for model, make in LOADERS.items():
        path = tmp_path / f"{model}.ckpt"
        loader = make(path)
        again = tmp_path / f"{model}-again.ckpt"
        SAVERS[model](loader(path), again)
        assert again.read_bytes() == path.read_bytes()


# inference reads no training setting, so a header that no longer passes the training rules still loads
@pytest.mark.parametrize("model", sorted(LOADERS))
def test_header_with_negative_epochs_loads(tmp_path, model):
    path = tmp_path / "m.ckpt"
    loader = LOADERS[model](path)
    header, blocks = load_checkpoint(path)
    kept = {k: v for k, v in header.items() if k not in ("kind", "format_version", "blocks")}
    save_checkpoint(path, header["kind"], {**kept, "hp": {**kept["hp"], "epochs": -1}}, list(blocks.items()))
    assert loader(path).hp.epochs == -1
    if model != "lm":
        lines = tmp_path / "lines.txt"
        lines.write_text("if (a) { f(); }\n")
        assert main([{"detector": "detect", "generator": "generate"}[model], "--model", str(path),
                     "--input", str(lines)]) == 0


def test_cli_detect_short_checkpoint_exits_2(tmp_path, capsys):
    model = tmp_path / "short.ckpt"
    model.write_bytes(MAGIC)
    lines = tmp_path / "lines.txt"
    lines.write_text("// todo fix\n")
    assert main(["detect", "--model", str(model), "--input", str(lines)]) == 2
    assert str(model) in capsys.readouterr().err


def test_cli_generate_missing_block_exits_2(tmp_path, capsys):
    model = tmp_path / "g.ckpt"
    generator_ckpt(model)
    rewrite(model, drop("attention.Wc"))
    lines = tmp_path / "lines.txt"
    lines.write_text("if (a) { f(); }\n")
    assert main(["generate", "--model", str(model), "--input", str(lines)]) == 2
    assert "'attention.Wc'" in capsys.readouterr().err


LINEAR = {"mnb": ("mnb", "bow"), "svm-tfidf": ("svm", "tfidf"), "embed-svm": ("pretrained_embed_svm", "bow")}


# the embedding loses a row: its width is what svm.w is checked against
@pytest.mark.parametrize("model, block, cut", [
    ("mnb", "feature_log_prob", cut_columns), ("mnb", "class_log_prior", cut_columns),
    ("svm-tfidf", "svm.w", cut_columns), ("svm-tfidf", "tfidf.df", cut_columns),
    ("embed-svm", "embedding.M", reshape), ("embed-svm", "svm.w", cut_columns), ("embed-svm", "svm.b", cut_columns),
])
def test_linear_block_cut_short(tmp_path, model, block, cut):
    path = tmp_path / "m.ckpt"
    linear_ckpt(path, *LINEAR[model])
    rewrite(path, cut(block))
    with pytest.raises(CheckpointError, match=named(path, block) + ".*shape"):
        load_detector(path)


def test_tfidf_checkpoint_without_df_block(tmp_path):
    path = tmp_path / "m.ckpt"
    linear_ckpt(path, "svm", "tfidf")
    rewrite(path, drop("tfidf.df"))
    with pytest.raises(CheckpointError, match=named(path, "tfidf.df") + ".*missing"):
        load_detector(path)


@pytest.mark.parametrize("model", sorted(LINEAR))
def test_linear_round_trip(tmp_path, model):
    path, again = tmp_path / "m.ckpt", tmp_path / "again.ckpt"
    linear_ckpt(path, *LINEAR[model])
    save_detector(load_detector(path), again)
    assert again.read_bytes() == path.read_bytes()


def set_entry(name, value):
    """Set the first entry of block `name` to `value`."""
    def edit(blocks):
        for n, a in blocks:
            if n == name:
                a.flat[0] = value
        return blocks
    return edit


# a NaN bias made every line of `detect` print "nan NonSATD" and exit 0
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cli_detect_non_finite_block_exits_2(cli_inputs, capsys, value):
    argv, paths = cli_inputs
    rewrite(paths["detector"], set_entry("dense.b", value))
    assert main(argv["detector"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(named(paths["detector"], "dense.b") + ".*NaN or infinite", err)


@pytest.mark.parametrize("model, block", [
    ("detector", "lstm0.Wx"), ("lm", "out.b"), ("generator", "out.W"), ("mnb", "class_log_prior"),
    ("svm-tfidf", "svm.b"), ("svm-tfidf", "tfidf.df"), ("embed-svm", "embedding.M"),
])
def test_non_finite_block_is_named(tmp_path, model, block):
    path = tmp_path / "m.ckpt"
    if model in LINEAR:
        linear_ckpt(path, *LINEAR[model])
        load = load_detector
    else:
        load = LOADERS[model](path)
    rewrite(path, set_entry(block, np.nan))
    with pytest.raises(CheckpointError, match=named(path, block) + ".*NaN or infinite"):
        load(path)


def test_cli_detect_cut_mnb_block_exits_2(tmp_path, capsys):
    model = tmp_path / "mnb.ckpt"
    linear_ckpt(model, "mnb", "bow")
    rewrite(model, lambda blocks: [(n, a[:, :3] if n == "feature_log_prob" else a) for n, a in blocks])
    lines = tmp_path / "lines.txt"
    lines.write_text("// c b c\n")
    assert main(["detect", "--model", str(model), "--input", str(lines), "--kind", "comment"]) == 2
    assert "'feature_log_prob'" in capsys.readouterr().err


LINEAR_FIXTURES = Path(__file__).parent / "fixtures" / "linear"


# written by the dict-based featurization; see fixtures/linear/README.md
@pytest.mark.parametrize("name, kind", [("mnb_tfidf", "mnb"), ("svm_tfidf", "svm")])
def test_older_linear_checkpoint_reads_and_detects_the_same(tmp_path, capsys, name, kind):
    path = LINEAR_FIXTURES / f"{name}.ckpt"
    header, _ = load_checkpoint(path)
    assert header["format_version"] == 1
    model = load_detector(path)
    assert (model.kind, model.hp.features) == (kind, "tfidf")
    again = tmp_path / "again.ckpt"
    save_detector(model, again)
    assert again.read_bytes() == path.read_bytes()
    assert main(["detect", "--model", str(path), "--input", str(LINEAR_FIXTURES / "lines.txt")]) == 0
    assert capsys.readouterr().out == (LINEAR_FIXTURES / f"{name}.out").read_text(encoding="utf-8")


NETWORK_FIXTURES = Path(__file__).parent / "fixtures" / "networks"


# written when every detector read one catch-all setting type; see fixtures/networks/README.md
@pytest.mark.parametrize("name, load, save, command", [
    ("dl", load_detector, save_detector, "detect"), ("lm", load_lm, save_lm, None),
    ("generator", load_generator, save_generator, "generate"),
])
def test_older_network_checkpoint_reads_and_runs_the_same(tmp_path, capsys, name, load, save, command):
    path = NETWORK_FIXTURES / f"{name}.ckpt"
    header, _ = load_checkpoint(path)
    assert header["format_version"] == 1
    model = load(path)
    again = tmp_path / "again.ckpt"
    save(model, again)
    assert again.read_bytes() == path.read_bytes()
    if command is not None:
        assert main([command, "--model", str(path), "--input", str(NETWORK_FIXTURES / "code.txt")]) == 0
        assert capsys.readouterr().out == (NETWORK_FIXTURES / f"{name}.out").read_text(encoding="utf-8")


def test_older_dl_checkpoint_keeps_its_threshold():
    hp = load_detector(NETWORK_FIXTURES / "dl.ckpt").hp
    assert (hp.threshold, hp.pooling, hp.layers, hp.latent) == (0.45, "max", 3, 4)


def test_failed_save_keeps_old_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "detector", {"n": 1}, [("a", np.ones(3))])
    before = path.read_bytes()
    # the second block cannot be converted to float32, after the header and first block are written
    with pytest.raises(ValueError):
        save_checkpoint(path, "detector", {"n": 2}, [("a", np.zeros(3)), ("b", np.array(["x"]))])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def set_field(path, field, value):
    """Rewrite the checkpoint with its header `field` (dotted for hp's: "hp.latent") set to `value`."""
    header, blocks = load_checkpoint(path)
    kept = {k: v for k, v in header.items() if k not in ("kind", "format_version", "blocks")}
    *outer, last = field.split(".")
    target = kept
    for key in outer:
        target = target[key]
    target[last] = value
    save_checkpoint(path, header["kind"], kept, list(blocks.items()))


def declare_shape(path, shape):
    """Rewrite the shape the header declares for the first block, keeping every byte after the header."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[len(MAGIC) : len(MAGIC) + 4])
    start = len(MAGIC) + 4
    header = json.loads(raw[start : start + length])
    header["blocks"][0]["shape"] = shape
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload + raw[start + length :])


@pytest.fixture()
def cli_inputs(tmp_path, capsys):
    """(command argv for a model checkpoint of each kind, the checkpoint paths)."""
    lines = tmp_path / "lines.txt"
    lines.write_text("if (a) { f(); }\n")
    corpus = tmp_path / "corpus.jsonl"
    assert main(["mine", str(Path(__file__).parent / "fixtures" / "java"), "--out", str(corpus)]) == 0
    assert main(["label", str(corpus)]) == 0
    capsys.readouterr()
    paths = {model: tmp_path / f"{model}.ckpt" for model in LOADERS}
    for model, path in paths.items():
        LOADERS[model](path)
    argv = {
        "detector": ["detect", "--model", str(paths["detector"]), "--input", str(lines)],
        "generator": ["generate", "--model", str(paths["generator"]), "--input", str(lines)],
        "lm": ["train", str(corpus), "--task", "detect-code", "--init", str(paths["lm"]),
               "--out", str(tmp_path / "out.ckpt")],
    }
    return argv, paths


# each of these crashed inside the loader, or (comment_cap -1) was accepted; 10**6 latent units
# asked for terabytes while the network was built, before any block was compared, and 2**62
# generator layers for a list of 2**62 layer sizes
@pytest.mark.parametrize("model, field, value", [
    ("detector", "hp.latent", "abc"),
    ("detector", "hp.latent", -1),
    ("detector", "hp.latent", 10**6),
    ("detector", "hp", [1]),
    ("detector", "vocab_words", 5),
    ("detector", "threshold", "x"),
    ("detector", "seed", "x"),
    ("detector", "seed", -5),
    ("detector", "hp.pooling", "x"),
    ("generator", "hp.latent", "abc"),
    ("generator", "hp.latent", -1),
    ("generator", "hp.comment_cap", "x"),
    ("generator", "hp.batch_size", 0),
    ("generator", "hp.comment_cap", -1),
    ("generator", "hp.layers", 2**62),
    ("generator", "hp.layers", 2**63),  # past a C ssize_t: itertools.repeat raised OverflowError
    ("lm", "hp.latent", "abc"),
])
def test_malformed_header_field_exits_2(cli_inputs, capsys, model, field, value):
    argv, paths = cli_inputs
    set_field(paths[model], field, value)
    assert main(argv[model]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(re.escape(str(paths[model])) + ".*" + re.escape(field.split(".")[-1]), err)


# a block too large for the file, and a negative dimension, are found before any block is read
@pytest.mark.parametrize("shape", [[2**40], [-4, 2]])
def test_malformed_block_shape_exits_2(cli_inputs, capsys, shape):
    argv, paths = cli_inputs
    declare_shape(paths["detector"], shape)
    assert main(argv["detector"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(named(paths["detector"], "embedding.M"), err)


@pytest.mark.parametrize("latent, layers", [(4, 1), (4, 2), (5, 3)])
def test_block_shapes_are_the_networks(latent, layers):
    for network, shapes in [
        (DetectorNetwork(7, latent, layers, "mean", 0), DetectorNetwork.block_shapes(7, latent, layers)),
        (LmNetwork(7, latent, layers, 0), LmNetwork.block_shapes(7, latent, layers)),
        (Seq2SeqNetwork(7, 9, latent, layers, 0), Seq2SeqNetwork.block_shapes(7, 9, latent, layers)),
    ]:
        assert dict(shapes) == {name: param.shape for name, (param, _) in network.named_params().items()}
