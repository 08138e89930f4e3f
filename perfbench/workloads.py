"""The three workloads: their inputs, their CLI operations and their checks.

A workload makes its inputs once per run from the seed, then the runner
executes whole rounds of its operations. Every operation is one call of
``satd_forge.cli.main``. Operations marked ``kept_failing`` hit a known
fault and raise today; they run in every round, outside every timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen

CLI_SEED = "1"


@dataclass
class Op:
    name: str
    argv: list[str]
    stdout: str | None = None  # file that receives what the command prints
    kept_failing: bool = False


def read_rows(path) -> tuple[list[dict], dict]:
    rows, meta = [], {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            obj = json.loads(line)
            if "_meta" in obj:
                meta = obj["_meta"]
            else:
                rows.append(obj)
    return rows, meta


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True))


@dataclass
class Workload:
    seed: int
    work: Path  # relative to the checkout root, so artifacts name stable paths
    ops: list[Op] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    # (module, attribute) whose first call the check round keeps for the checks
    captures: list[tuple[str, str]] = field(default_factory=list)

    def path(self, name: str) -> str:
        return str(self.work / name)


class Mine(Workload):
    """mine -> label -> dataset over a generated multi-project Java tree."""

    def prepare(self):
        w = self.path
        self.plan = gen.java_tree(self.work / "tree", self.seed, projects=6, files_per_project=40)
        latin = self.work / "latin1" / "project0"
        latin.mkdir(parents=True)
        (latin / "Cafe.java").write_bytes(gen.LATIN1_SOURCE)
        for name, source in (("parens", gen.deep_paren_source()), ("deepif", gen.deep_if_source())):
            d = self.work / name / "project0"
            d.mkdir(parents=True)
            (d / "Deep.java").write_text(source, encoding="utf-8")
        row = {"project": "p", "span": [0, 1], "column": 1, "code_text": "if (a) f();",
               "sbt_tokens": [], "comment_raw": "// todo", "comment_words": ["todo"], "label": "Unlabeled"}
        (self.work / "no-path.jsonl").write_text(json.dumps(row) + "\n", encoding="utf-8")
        self.ops = [
            Op("mine", ["mine", w("tree"), "--out", w("mined.jsonl")]),
            Op("label", ["label", w("mined.jsonl"), "--out", w("labeled.jsonl")]),
            Op("dataset", ["dataset", w("labeled.jsonl"), "--seed", CLI_SEED, "--balance",
                           "--out", w("data.jsonl"), "--pool-out", w("pool.jsonl")]),
            Op("mine-latin1", ["mine", w("latin1"), "--out", w("latin1.jsonl")], kept_failing=True),
            Op("mine-deep-parens", ["mine", w("parens"), "--out", w("parens.jsonl")], kept_failing=True),
            Op("mine-deep-if", ["mine", w("deepif"), "--out", w("deepif.jsonl")], kept_failing=True),
            Op("label-missing-path", ["label", w("no-path.jsonl"), "--out", w("no-path-labeled.jsonl")],
               kept_failing=True),
        ]
        self.artifacts = ["mined.jsonl", "labeled.jsonl", "data.jsonl", "pool.jsonl"]

    def check(self, captured) -> list[str]:
        from satd_forge.java_miner import lex_java

        mined, mined_meta = read_rows(self.path("mined.jsonl"))
        labeled, _ = read_rows(self.path("labeled.jsonl"))
        data, data_meta = read_rows(self.path("data.jsonl"))
        pool, _ = read_rows(self.path("pool.jsonl"))
        errors = checks.mined_labels(labeled, self.plan)
        errors += checks.skipped_diagnostics(mined_meta, self.plan)
        errors += checks.dataset_counts(data_meta.get("provenance", {}), data, pool, self.plan)
        for r in mined:
            errors += checks.sbt_well_formed(r["sbt_tokens"])
        for f in sorted((self.work / "tree").rglob("*.java")):
            source = f.read_text(encoding="utf-8")
            errors += [f"{f.name}: {e}" for e in checks.lossless(source, [t.lexeme for t in lex_java(source)])]
        return errors

    def phase_rates(self, times) -> dict[str, float]:
        seconds = times["mine"] + times["label"] + times["dataset"]
        return {"corpus_mb_per_s": self.plan.bytes / 1e6 / seconds}


DL_HP = {"model": "dl", "latent": 16, "layers": 1, "batch_size": 8, "pooling": "max",
         "epochs": 3, "learning_rate": 0.01}
MNB_HP = {"model": "mnb", "features": "bow", "alpha": 1.0}
SVM_HP = {"model": "svm", "features": "tfidf", "lam": 0.01, "epochs": 20}
F1_FLOOR = 0.8


class Detect(Workload):
    """train (LSTM) -> detect held-out Java lines -> cv with MNB and SVM."""

    def prepare(self):
        w = self.path
        self.corpus = gen.sequence_corpus(self.seed, n_train=400, n_heldout=300, median=55)
        gen.write_records(self.work / "data.jsonl", self.corpus.records, {"command": "perfbench"})
        (self.work / "lines.txt").write_text("\n".join(self.corpus.heldout_lines) + "\n", encoding="utf-8")
        for name, hp in (("dl.json", DL_HP), ("mnb.json", MNB_HP), ("svm.json", SVM_HP)):
            _write_json(self.work / name, hp)
        (self.work / "short.ckpt").write_bytes(b"SATDF1")
        self.ops = [
            Op("train", ["train", w("data.jsonl"), "--task", "detect-code", "--hp", w("dl.json"),
                         "--seed", CLI_SEED, "--out", w("detector.ckpt")]),
            Op("detect", ["detect", "--model", w("detector.ckpt"), "--input", w("lines.txt")],
               stdout="detect.out"),
            Op("cv-mnb", ["cv", w("data.jsonl"), "--task", "detect-code", "--hp", w("mnb.json"),
                          "--k", "10", "--seed", CLI_SEED, "--report", w("cv-mnb")]),
            Op("cv-svm", ["cv", w("data.jsonl"), "--task", "detect-code", "--hp", w("svm.json"),
                          "--k", "10", "--seed", CLI_SEED, "--report", w("cv-svm")]),
            Op("detect-short-checkpoint", ["detect", "--model", w("short.ckpt"), "--input", w("lines.txt")],
               kept_failing=True),
        ]
        self.artifacts = ["detector.ckpt", "detect.out"] + [
            f"cv-{m}/{f}" for m in ("mnb", "svm") for f in ("metrics.json", "folds.json", "table.txt")
        ]
        self.captures = [("detector", "train_mnb"), ("detector", "train_linear_svm")]

    def check(self, captured) -> list[str]:
        lines = (self.work / "detect.out").read_text(encoding="utf-8").splitlines()
        fields = [line.split("\t", 2) for line in lines]
        errors = []
        if [f[2] for f in fields] != self.corpus.heldout_lines:
            errors.append("detect output does not echo the held-out lines in order")
        predicted = [f[1] == "SATD" for f in fields]
        errors += checks.f1_floor(predicted, self.corpus.heldout_labels, F1_FLOOR)
        args, kwargs, (prior, log_prob) = captured["detector.train_mnb"]
        errors += checks.mnb_log_probs(args[0], args[1], kwargs["alpha"], kwargs["vocab_size"], prior, log_prob)
        args, kwargs, (weights, bias, history) = captured["detector.train_linear_svm"]
        errors += checks.svm_objective(args[0], args[1], kwargs["lam"], weights, bias, history)
        return errors

    def phase_rates(self, times) -> dict[str, float]:
        tokens = sum(len(r["sbt_tokens"]) for r in self.corpus.records)
        return {
            "dl_train_tokens_per_s": tokens * DL_HP["epochs"] / times["train"],
            "detect_lines_per_s": len(self.corpus.heldout_lines) / times["detect"],
            "classic_cv_s": times["cv-mnb"] + times["cv-svm"],
        }


LM_HP = {"latent": 32, "layers": 1, "batch_size": 16, "epochs": 1}
GEN_HP = {"latent": 32, "layers": 1, "batch_size": 32, "epochs": 4, "comment_cap": 20}


class Generate(Workload):
    """pretrain (LM) -> train --task generate -> generate for held-out lines."""

    def prepare(self):
        w = self.path
        # the pool draws from its own seed so it shares no rows with the pairs
        self.pool = gen.sequence_corpus(self.seed + 7919, n_train=300, n_heldout=0, satd_share=0.0, median=55)
        self.corpus = gen.sequence_corpus(self.seed, n_train=300, n_heldout=300, satd_share=1.0, median=55)
        gen.write_records(self.work / "pool.jsonl", self.pool.records, {"command": "perfbench"})
        gen.write_records(self.work / "data.jsonl", self.corpus.records, {"command": "perfbench"})
        (self.work / "lines.txt").write_text("\n".join(self.corpus.heldout_lines) + "\n", encoding="utf-8")
        _write_json(self.work / "lm.json", LM_HP)
        _write_json(self.work / "gen.json", GEN_HP)
        self.ops = [
            Op("pretrain", ["pretrain", w("pool.jsonl"), "--hp", w("lm.json"), "--seed", CLI_SEED,
                            "--out", w("lm.ckpt")]),
            Op("train", ["train", w("data.jsonl"), "--task", "generate", "--hp", w("gen.json"),
                         "--seed", CLI_SEED, "--out", w("generator.ckpt")]),
            Op("generate", ["generate", "--model", w("generator.ckpt"), "--input", w("lines.txt")],
               stdout="generate.out"),
        ]
        self.artifacts = ["lm.ckpt", "generator.ckpt", "generate.out"]
        self.captures = [("pretrainer", "train_next_token_lm"), ("generator", "train_generator")]

    def generated(self) -> list[list[str]]:
        lines = (self.work / "generate.out").read_text(encoding="utf-8").splitlines()
        return [line[3:].split() for line in lines]  # drop the "// " prefix

    def check(self, captured) -> list[str]:
        import numpy as np
        from satd_forge.ast_sbt import parse_if_statement, sbt_serialize
        from satd_forge.generator import load_generator
        from satd_forge.java_miner import lex_java
        from satd_forge.textpipe import EOS, SOS

        errors = []
        lm = captured["pretrainer.train_next_token_lm"][2]
        errors += checks.loss_below_uniform("language model", lm.final_loss, lm.vocab.size)
        trained = captured["generator.train_generator"][2]
        errors += checks.loss_below_uniform("generator", trained.final_loss, trained.comment_vocab.size)

        outputs = self.generated()
        if len(outputs) != len(self.corpus.heldout_lines):
            return errors + [f"{len(outputs)} comments for {len(self.corpus.heldout_lines)} lines"]
        model = load_generator(self.path("generator.ckpt"))
        net = model.network
        sos, eos = model.comment_vocab.index_of[SOS], model.comment_vocab.index_of[EOS]
        seen = []
        forward = net.out.forward

        def keep_logits(x):
            logits, cache = forward(x)
            seen.append(logits)
            return logits, cache

        net.out.forward = keep_logits
        try:
            for line, words in zip(self.corpus.heldout_lines, outputs):
                enc = model.code_vocab.encode(sbt_serialize(parse_if_statement(lex_java(line))))
                emitted = model.comment_vocab.encode(words)
                dec = [sos] + emitted
                tgt = emitted + [eos]
                net.forward_train(np.array([enc]), np.ones((1, len(enc))), np.array([dec]),
                                  np.ones((1, len(dec))), np.array([tgt]))
                errors += checks.greedy_is_argmax(seen.pop()[0], emitted, eos, model.hp.comment_cap)
                if errors:
                    break
        finally:
            net.out.forward = forward
        return errors

    def phase_rates(self, times) -> dict[str, float]:
        lm_tokens = sum(len(r["sbt_tokens"]) - 1 for r in self.pool.records)
        pair_tokens = sum(len(r["sbt_tokens"]) + len(r["comment_words"]) + 2 for r in self.corpus.records)
        words = sum(len(w) for w in self.generated())
        return {
            "lm_train_tokens_per_s": lm_tokens * LM_HP["epochs"] / times["pretrain"],
            "gen_train_tokens_per_s": pair_tokens * GEN_HP["epochs"] / times["train"],
            "generated_words_per_s": words / times["generate"],
        }


WORKLOADS = {"mine": Mine, "detect": Detect, "generate": Generate}

PHASE_RATES = [
    ("corpus_mb_per_s", "MB/s", "higher"),
    ("dl_train_tokens_per_s", "tokens/s", "higher"),
    ("detect_lines_per_s", "lines/s", "higher"),
    ("classic_cv_s", "s", "lower"),
    ("lm_train_tokens_per_s", "tokens/s", "higher"),
    ("gen_train_tokens_per_s", "tokens/s", "higher"),
    ("generated_words_per_s", "words/s", "higher"),
]
