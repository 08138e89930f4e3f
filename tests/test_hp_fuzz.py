"""Generated `--hp` dicts through `train --task detect-code`, `train --task
generate` and `pretrain` on a tiny corpus.

A dict holds known and unknown keys set to values of any JSON type: the
right ones, wrong types, bools, NaN and infinities, and numbers as
strings. Every run must end in exit code 0, 2 or 3, never in an
exception, and a linear setting whose `features` is neither bow nor tfidf
never in 0. Integers come from -1..3, which holds each rule's boundaries
(0 and 1 for a count, 2 for the latent size of three layers); larger ones
would only allocate more or train longer. Each dict extends a tiny
setting, so a run that trains stays small.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satd_forge.cli import main
from satd_forge.detector import DetectorHp
from satd_forge.generator import GeneratorHp
from test_cli import synthetic_corpus_file

TINY = {"latent": 2, "layers": 1, "batch_size": 4, "epochs": 1}
DETECTOR_KEYS = sorted(DetectorHp.__dataclass_fields__)
# argv, the keys a dict draws from, and the models a setting names before its keys are drawn:
# the linear models read keys of their own, which a dl setting would bury
COMMANDS = {
    "detect-code": (["train", "--task", "detect-code"], ["model", *DETECTOR_KEYS], ["dl"]),
    "detect-code-linear": (["train", "--task", "detect-code"], ["model", "features", "alpha", "lam", "epochs"],
                           ["mnb", "svm"]),
    "generate": (["train", "--task", "generate"], sorted(GeneratorHp.__dataclass_fields__), []),
    "pretrain": (["pretrain"], DETECTOR_KEYS, []),
}

VALUES = st.one_of(
    st.integers(-1, 3),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1e-3, 0.5, 1.0, 2.5, math.nan, math.inf, -math.inf]),
    st.sampled_from(["4", "0.5", "", "dl", "mnb", "svm", "knn", "last", "mean", "max", "bow", "tfidf"]),
    st.none(),
    st.sampled_from([[], [1], {}, {"latent": 2}]),
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return synthetic_corpus_file(tmp_path_factory.mktemp("hp") / "data.jsonl", n=8)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_hp_exits_with_a_code(corpus, command, data):
    argv, known, models = COMMANDS[command]
    named = {"model": data.draw(st.sampled_from(models), label="model")} if models else {}
    fuzzed = data.draw(st.dictionaries(st.sampled_from(known), VALUES, min_size=1, max_size=4), label="known keys")
    unknown = data.draw(st.dictionaries(st.text(max_size=5), VALUES, max_size=2), label="unknown keys")
    hp = {**TINY, **unknown, **named, **fuzzed}
    hp_path = corpus.parent / f"{command}.json"
    hp_path.write_text(json.dumps(hp))  # NaN and infinities too, which Python's json writes and reads
    out = corpus.parent / f"{command}.ckpt"
    code = main([argv[0], str(corpus), *argv[1:], "--hp", str(hp_path), "--seed", "1", "--out", str(out)])
    assert code in (0, 2, 3)
    if command == "detect-code-linear" and hp.get("features", "bow") not in ("bow", "tfidf"):
        assert code != 0
