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
        "metrics.json": "d2a72527b08806ed63ce35b9ffffce866018ca76c8cdf00e9b569ad98e01a85f",
        "table.txt": "448610cf467f42ca5222ca33318f26616019fb6ff3bf6910c15f69abf1ba2760",
    },
    "cv-generate": {
        "folds.json": "64eb3a86c4e1d8560f76bdd5cf6a620ffd307b940a84fad31c1279ba2da642fd",
        "metrics.json": "c146d990cffc63b1790ebf071c3f9b08d2c3988523f7f76c8ba18d9de3ef3a13",
        "table.txt": "d92844ddec85c640897a97489bda8d17706238043256d5d3cac28bf2863ef8e1",
    },
    "tune-dl-code": {
        "tuning.json": "ac99831093e1733a43f6e6b152ce44dcd371f889b580056c0ff4c3130cf58184",
    },
    "tune-generate": {
        "tuning.json": "c3123963a0a0f2fe15c2d80dc604da4ed998ce525cb88052dcc5bc5b2f4d4179",
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
