"""A frozen copy of `label` and `dataset` as they ran before they streamed:
read every row into a record, work on the list, and re-serialize every
row. The differential tests hold the streaming commands to its bytes on
corpora the package writes. Only the keyword rule (`label_comment`) and
the caps come from the package; the reading, the record, the dataset
assembly and the writing are kept here as they were."""

import json
import random

from satd_forge.java_miner import CODE_CAP, COMMENT_CAP, NON_SATD, SATD, label_comment

FIELDS = ("project", "path", "span", "column", "code_text", "sbt_tokens", "comment_raw", "comment_words", "label")


def read_corpus(path):
    """(rows, meta): each row a dict in the package's field order."""
    rows, meta = [], {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "_meta" in obj:
                meta = obj["_meta"]
                continue
            rows.append({
                "project": obj["project"],
                "path": obj["path"],
                "span": list(obj["span"]),
                "column": obj["column"],
                "code_text": obj["code_text"],
                "sbt_tokens": list(obj["sbt_tokens"]),
                "comment_raw": obj.get("comment_raw"),
                "comment_words": list(obj["comment_words"]),
                "label": obj["label"],
            })
    return rows, meta


def write_corpus(path, rows, meta):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"_meta": meta}) + "\n")
        for r in rows:
            f.write(json.dumps({k: r[k] for k in FIELDS}) + "\n")


def label(corpus, out):
    rows, meta = read_corpus(corpus)
    for r in rows:
        if r["comment_raw"] is not None:
            r["label"] = label_comment(r["comment_raw"])
    meta = dict(meta)
    meta["command"] = "label"
    write_corpus(out, rows, meta)


def build_dataset(rows, seed, balance):
    labeled = [r for r in rows if r["label"] in (SATD, NON_SATD)]
    seen, deduped = set(), []
    for r in labeled:
        key = (tuple(r["sbt_tokens"]), tuple(r["comment_words"]))
        if key in seen:
            continue
        seen.add(key)
        deduped.append(r)
    kept = [r for r in deduped if len(r["sbt_tokens"]) <= CODE_CAP and len(r["comment_words"]) <= COMMENT_CAP]
    n_satd = sum(1 for r in kept if r["label"] == SATD)
    if n_satd == 0:
        raise ValueError("empty positive class")
    shuffled = list(kept)
    random.Random(seed).shuffle(shuffled)
    leftover = []
    if balance:
        result, non_satd_kept = [], 0
        for r in shuffled:
            if r["label"] == NON_SATD:
                if non_satd_kept >= n_satd:
                    leftover.append(r)
                    continue
                non_satd_kept += 1
            result.append(r)
    else:
        result = shuffled
    provenance = {
        "input_labeled": len(labeled),
        "after_dedup": len(deduped),
        "after_length_filter": len(kept),
        "satd": n_satd,
        "final": len(result),
        "balanced": bool(balance),
        "code_cap": CODE_CAP,
        "comment_cap": COMMENT_CAP,
    }
    return result, leftover, provenance


def dataset(corpus, seed, balance, out, pool_out):
    rows, _ = read_corpus(corpus)
    result, leftover, provenance = build_dataset(rows, seed, balance)
    write_corpus(out, result, {"command": "dataset", "seed": seed, "balance": balance, "provenance": provenance})
    write_corpus(pool_out, leftover, {"command": "dataset", "role": "pretraining-pool", "seed": seed})
