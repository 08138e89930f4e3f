"""Characterization of the evaluation commands: `cv`, `tune` and
`xproject` run through `cli.main` on a small seeded corpus, and every file
they write must keep the exact bytes pinned here (SHA-256).

The digests were recorded with CPython 3.11 and numpy 2.4 under
OpenBLAS with one thread. The classic models (mnb, svm) are pure Python;
the dl and generator cases also pin the floating-point arithmetic of the
LSTM stack, so a different BLAS may move their last bits.
"""

import hashlib
import json
import random

import pytest

from satd_forge.cli import main


def write_corpus(path, n=36, n_projects=3):
    """Balanced dataset: SATD rows carry planted marker tokens and words."""
    rng = random.Random(11)
    with open(path, "w") as f:
        for i in range(n):
            positive = i % 2 == 0
            code = [f"tok{rng.randrange(12)}" for _ in range(rng.randint(4, 7))]
            words = ["plain", "words", f"w{rng.randrange(6)}"]
            if positive:
                code.insert(rng.randint(0, len(code)), "hackmark")
                words = ["todo", "fix", f"thing{i % 5}", f"w{i % 4}"]
            row = {
                "project": f"proj{i % n_projects}",
                "path": f"proj{i % n_projects}/F{i}.java",
                "span": [0, 1],
                "column": 1,
                "code_text": "if(x){}",
                "sbt_tokens": code,
                "comment_raw": "// " + " ".join(words),
                "comment_words": words,
                "label": "SATD" if positive else "NonSATD",
            }
            f.write(json.dumps(row) + "\n")
    return path


DL = {"model": "dl", "latent": 4, "layers": 1, "batch_size": 8, "epochs": 2,
      "learning_rate": 0.01}
GEN = {"latent": 4, "layers": 1, "batch_size": 8, "epochs": 2, "learning_rate": 0.01}

# (case, argv after the corpus path, JSON file behind --hp/--grid, outputs)
CASES = [
    ("cv-dl-code", ["cv", "--task", "detect-code", "--k", "3", "--seed", "1"], DL, "report"),
    ("cv-mnb-code", ["cv", "--task", "detect-code", "--k", "4", "--seed", "2"],
     {"model": "mnb"}, "report"),
    ("cv-svm-tfidf-code", ["cv", "--task", "detect-code", "--k", "4", "--seed", "3"],
     {"model": "svm", "features": "tfidf"}, "report"),
    ("cv-dl-comment", ["cv", "--task", "detect-comment", "--k", "3", "--seed", "4"],
     dict(DL, pooling="mean"), "report"),
    ("cv-generate", ["cv", "--task", "generate", "--k", "3", "--seed", "5"], GEN, "report"),
    ("tune-dl-code", ["tune", "--task", "detect-code", "--seed", "6", "--fraction", "0.25"],
     dict(DL, pooling=["last", "max", "mean"], latent=[4, 6]), "out"),
    ("tune-generate", ["tune", "--task", "generate", "--seed", "7", "--fraction", "0.3"],
     dict(GEN, latent=[4, 6]), "out"),
    ("xproject-mnb", ["xproject", "--task", "detect-comment", "--seed", "8"],
     {"model": "mnb"}, "report"),
    ("xproject-svm", ["xproject", "--task", "detect-code", "--seed", "9"],
     {"model": "svm", "features": "bow"}, "report"),
]

EXPECTED = {
    "cv-dl-code": {
        "folds.json": "5ef30e03688a17391a279127ca5c92eb3deb46f3171f2164486f91dd206c01c7",
        "metrics.json": "2d0c1052e6e4b9ea4618a3d644db44a639a8fe99b9e15e034377971bb3fd2dc0",
        "table.txt": "f3450598d3322c5598e3f18989645a3bab1b270adecec370cfab50e677318984",
    },
    "cv-mnb-code": {
        "folds.json": "0d3c469298a209cbd4025bb982f362f0609d2b716015a39920593f60df70f770",
        "metrics.json": "cc010581d1e6f9e75003e38f79c8b8646a90cb2db4b461fe87fe4404ffd2e877",
        "table.txt": "7394fad1166b11b0087e2e94bd9f72d0ecc31545a249d7836518e9f75521472a",
    },
    "cv-svm-tfidf-code": {
        "folds.json": "e494d6397a86cc18b070539a47cd5972caebe18dd2ea0dce50761fce127c1e06",
        "metrics.json": "624862f993d2c096cabdeb0e004c79add7875e411c2354d92ad5057b2620df00",
        "table.txt": "6a531528a0ddcbde92be74b3d3538854e0f6038bb1afc144384995ee3ca78e0a",
    },
    "cv-dl-comment": {
        "folds.json": "89bf34426554253dbe18b7e780ad2b2e92abca5d18ba03e1ea0230d5539bcc41",
        "metrics.json": "3e865b11a049602f62e7fc7481a1c0fd51aaeb975eb784d72a690090cbde011b",
        "table.txt": "8933e95d3c4111c6e116501ce80a467c2bd5e354153b87762145327b24e8cd1c",
    },
    "cv-generate": {
        "folds.json": "64eb3a86c4e1d8560f76bdd5cf6a620ffd307b940a84fad31c1279ba2da642fd",
        "metrics.json": "070e5e7da19b42eb0e5b7796831483027532c94f523e1406f344fa9ff31bdd25",
        "table.txt": "38287f4dc452321d06804ebcddbdcd23078f4d2b690725f5e8652c087c06025e",
    },
    "tune-dl-code": {
        "tuning.json": "c15fcdcba984a70ab2b3b85ae4674fcbc88e9f513448482965c1b92f5de236c7",
    },
    "tune-generate": {
        "tuning.json": "7980e45092a34074af3c3ea4e0d7fea0adfe7689bd5d94d8cc1cec6b7bee23a5",
    },
    "xproject-mnb": {
        "metrics.json": "d2b2b36251d5627f25f23a0ba83857f4fd7a0af0bf8c0be6a9017cd11ce2687b",
        "table.txt": "0485a5d7142cb3a9217ae90f806328b116b0ebe06eb8e673b97f926accc67a63",
    },
    "xproject-svm": {
        "metrics.json": "78b4356b935e263d8b61495cf6574f31c03e9b129ec754a9c7776012d4faa617",
        "table.txt": "fd572460af8b937a182804cba5fced5c7f466cccebb270275988c882114853bd",
    },
}


def run_case(tmp_path, argv, hp, sink):
    data = write_corpus(tmp_path / "data.jsonl")
    hp_path = tmp_path / "hp.json"
    hp_path.write_text(json.dumps(hp))
    command, rest = argv[0], argv[1:]
    flag = "--grid" if command == "tune" else "--hp"
    target = tmp_path / ("tuning.json" if sink == "out" else "report")
    assert main([command, str(data), *rest, flag, str(hp_path), f"--{sink}", str(target)]) == 0
    files = [target] if sink == "out" else sorted(target.iterdir())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


@pytest.mark.parametrize("case,argv,hp,sink", CASES, ids=[c[0] for c in CASES])
def test_outputs_keep_their_bytes(tmp_path, case, argv, hp, sink):
    assert run_case(tmp_path, argv, hp, sink) == EXPECTED[case]
