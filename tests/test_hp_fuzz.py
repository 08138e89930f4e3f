"""Generated `--hp` dicts through `train --task detect-code` (one case per
detector kind), `train --task generate` and `pretrain` on a tiny corpus.

Each dict extends a tiny setting of its kind, so a run that trains stays
small, with keys of the kind set to values of any JSON type: the right
ones, wrong types, bools, NaN and infinities, and numbers as strings. Its
`model` is the kind's own or a value that names no detector kind, any
value for `pretrain`. It may also hold keys outside the kind: other
kinds' keys, and any text. Every run must end in exit code 0, 2 or 3,
never in an exception. A dict with a key outside its kind must exit 2
naming that key, and so must one with another `model` or with a size
past MAX_SIZE, each writing nothing; a linear setting whose `features` is
neither bow nor tfidf never exits 0.

Integers come from -1..3, which holds each rule's boundaries (0 and 1
for a count, 2 for the latent size of three layers), and sizes also from
just past MAX_SIZE up to 2**64. Nothing in between is drawn: such sizes
would allocate or train for a long time.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satd_forge.cli import main
from satd_forge.detector import DlHp, MnbHp, SvmHp
from satd_forge.errors import MAX_SIZE
from satd_forge.generator import GeneratorHp
from test_cli import synthetic_corpus_file

TINY = {"latent": 2, "layers": 1, "batch_size": 4, "epochs": 1}
# argv, the setting type, and the tiny setting each dict extends
KINDS = {
    "dl": (["train", "--task", "detect-code"], DlHp, {"model": "dl", **TINY}),
    "mnb": (["train", "--task", "detect-code"], MnbHp, {"model": "mnb"}),
    "svm": (["train", "--task", "detect-code"], SvmHp, {"model": "svm", "epochs": 1}),
    "generate": (["train", "--task", "generate"], GeneratorHp, TINY),
    "pretrain": (["pretrain"], DlHp, TINY),
}
ALL_KEYS = sorted({key for _, hp, _ in KINDS.values() for key in hp.keys()})

VALUES = st.one_of(
    st.integers(-1, 3),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1e-3, 0.5, 1.0, 2.5, math.nan, math.inf, -math.inf]),
    st.sampled_from(["4", "0.5", "", "dl", "mnb", "svm", "knn", "last", "mean", "max", "bow", "tfidf"]),
    st.none(),
    st.sampled_from([[], [1], {}, {"latent": 2}]),
)
HUGE = [MAX_SIZE + 1, 2**62, 2**63, 2**64]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return synthetic_corpus_file(tmp_path_factory.mktemp("hp") / "data.jsonl", n=8)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_hp_exits_with_a_code(corpus, kind, data):
    argv, hp_type, base = KINDS[kind]
    # a detector command takes the setting type `model` names, so a value naming another kind is left out
    others = [] if kind == "pretrain" else [model for model in ("dl", "mnb", "svm") if model != hp_type.model]

    def values(key):
        if key == "model":
            return st.one_of(st.just(hp_type.model), VALUES.filter(lambda v: v not in others))
        return st.one_of(VALUES, st.sampled_from(HUGE)) if key in hp_type.SIZES else VALUES

    keys = data.draw(st.lists(st.sampled_from(hp_type.keys()), min_size=1, max_size=4, unique=True), label="keys")
    fuzzed = {key: data.draw(values(key), label=key) for key in keys}
    foreign_keys = st.one_of(st.sampled_from(ALL_KEYS), st.text(max_size=5)).filter(lambda k: k not in hp_type.keys())
    foreign = data.draw(st.dictionaries(foreign_keys, VALUES, max_size=2), label="foreign keys")
    hp = {**base, **fuzzed, **foreign}
    hp_path = corpus.parent / f"{kind}.json"
    hp_path.write_text(json.dumps(hp))  # NaN and infinities too, which Python's json writes and reads
    out = corpus.parent / f"{kind}.ckpt"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([argv[0], str(corpus), *argv[1:], "--hp", str(hp_path), "--seed", "1", "--out", str(out)])
    assert code in (0, 2, 3)
    huge = [key for key in hp_type.SIZES if type(hp.get(key)) is int and hp[key] > MAX_SIZE]
    other_model = hp_type.model is not None and hp.get("model", hp_type.model) != hp_type.model
    if foreign or huge or other_model:
        assert code == 2
        assert not out.exists()
    # a detector command reads `model` before the keys; `pretrain` reads the keys first
    if other_model and kind != "pretrain":
        assert err.getvalue() == f"error: unknown model type: {hp['model']!r}\n"
    elif foreign:
        kind_name = hp_type.described or f"model {hp_type.model!r}"
        assert f" {', '.join(foreign)} must be left out for {kind_name}," in err.getvalue()
    elif other_model:
        assert err.getvalue() == f"error: hyper-parameter model must be 'dl', got {hp['model']!r}\n"
    if kind in ("mnb", "svm") and hp.get("features", "bow") not in ("bow", "tfidf"):
        assert code != 0
