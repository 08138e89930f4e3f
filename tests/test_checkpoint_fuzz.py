"""Damaged checkpoints of every model kind through every command that
reads one: `detect`, `generate` and `train --init`.

A truncated file, a flipped bit or a header field set to any JSON value
must end in exit code 0, 2 or 3, never in an exception. Each kind goes
through each command, so a checkpoint of the wrong kind is covered too.
"""

import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satd_forge.checkpoint import MAGIC
from satd_forge.cli import main
from satd_forge.generator import GeneratorHp, save_generator, train_generator
from satd_forge.textpipe import frame_comment
from test_checkpoint import detector_ckpt, linear_ckpt, lm_ckpt

FIXTURES = Path(__file__).parent / "fixtures" / "java"
KINDS = ("dl", "mnb", "svm", "lm", "generator")
COMMANDS = ("detect", "generate", "train")

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63),
    st.floats(),  # NaN and infinities too, which Python's json writes and reads
    st.text(max_size=8),
    st.lists(st.one_of(st.integers(-2, 9), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-2, 9), max_size=2),
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A directory with a checkpoint of each kind and the inputs the
    commands read: a code line, a labelled corpus and a tiny detector
    setting whose stack fits the language model's."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "lines.txt").write_text("if (a) { f(); }\n")
    (root / "tiny.json").write_text(json.dumps({"latent": 4, "layers": 2, "batch_size": 2, "epochs": 1}))
    corpus = str(root / "corpus.jsonl")
    assert main(["mine", str(FIXTURES), "--out", corpus]) == 0
    assert main(["label", corpus]) == 0
    detector_ckpt(root / "dl.ckpt")
    linear_ckpt(root / "mnb.ckpt", "mnb", "bow")
    linear_ckpt(root / "svm.ckpt", "svm", "tfidf")
    lm_ckpt(root / "lm.ckpt")
    # trained until it ends each comment early, so a larger comment_cap in a header costs no time
    pairs = [(["a", "b"], frame_comment(["todo"])), (["c"], frame_comment(["hack", "it"]))]
    hp = GeneratorHp(latent=4, layers=2, batch_size=2, epochs=40, learning_rate=0.05, dropout=0.0)
    save_generator(train_generator(pairs, hp, seed=0), root / "generator.ckpt")
    return root


def command_argv(root: Path, command: str, model: Path) -> list[str]:
    if command == "detect":
        return ["detect", "--model", str(model), "--input", str(root / "lines.txt")]
    if command == "generate":
        return ["generate", "--model", str(model), "--input", str(root / "lines.txt")]
    return ["train", str(root / "corpus.jsonl"), "--task", "detect-code", "--hp", str(root / "tiny.json"),
            "--init", str(model), "--out", str(root / "out.ckpt")]


def truncated(raw: bytes, data) -> bytes:
    return raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]


def bit_flipped(raw: bytes, data) -> bytes:
    flipped = bytearray(raw)
    flipped[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    return bytes(flipped)


def header_mutated(raw: bytes, data) -> bytes:
    """One header field, top-level or a hyper-parameter, set to any JSON
    value; the header length is rewritten and the blocks kept."""
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<I", raw[len(MAGIC) : start])
    header = json.loads(raw[start : start + length])
    fields = sorted(header) + [f"hp.{key}" for key in sorted(header["hp"])]
    field = data.draw(st.sampled_from(fields), label="field")
    target = header["hp"] if field.startswith("hp.") else header
    target[field.removeprefix("hp.")] = data.draw(JSON_VALUES, label="value")
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<I", len(payload)) + payload + raw[start + length :]


MUTATIONS = {"truncated": truncated, "bit_flipped": bit_flipped, "header_mutated": header_mutated}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_exits_with_a_code(workspace, kind, command, data):
    mutation = data.draw(st.sampled_from(sorted(MUTATIONS)), label="mutation")
    model = workspace / "damaged.ckpt"
    model.write_bytes(MUTATIONS[mutation]((workspace / f"{kind}.ckpt").read_bytes(), data))
    assert main(command_argv(workspace, command, model)) in (0, 2, 3)
