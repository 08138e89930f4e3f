"""Measure what loading a pre-training pool costs, as `pretrain` loads it:
`TokenStore.read` of the SBT tokens, then the code vocabulary fitted on the
usable rows and their ids encoded through it.

The corpus is pool-like: `perfbench/gen.py`'s `sequence_corpus` NonSATD
rows (lognormal lengths, 4 projects), with one name of each row renamed to
a name of its own, as mining a generated Java tree gives (its SBT writes
each such name twice, so no token occurs only once). It is written to a
temporary directory and deleted afterwards.

For the load and for the vocabulary fit the script prints the
`tracemalloc` peak above what was held before the phase, per 1,000 rows
and per token, and what the phase leaves held; for the load also rows/s,
the best of three untraced loads:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_corpus_load.py [--rows N]

The list path this replaced held about 65 bytes per token (5.4 MB per
1,000 rows of a mined pool) before the first batch.
"""

import argparse
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py, read only)

from satd_forge.java_miner import JsonlRows  # noqa: E402
from satd_forge.textpipe import TokenStore, build_vocabulary  # noqa: E402


def pool_records(rows: int, seed: int) -> list[dict]:
    """NonSATD rows whose first `Name:` label is renamed to one of the row's own."""
    records = gen.sequence_corpus(seed, n_train=rows, n_heldout=0, satd_share=0.0).records
    for k, record in enumerate(records):
        tokens = record["sbt_tokens"]
        names = [t for t in tokens if t.startswith("Name:")]
        if names:
            unique = f"{names[0]}_{k}"
            record["sbt_tokens"] = [unique if t == names[0] else t for t in tokens]
    return records


def traced(phase):
    """(result, peak above the start, held at the end) of `phase()`, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = phase()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


def fit(column):
    """The code vocabulary of the usable rows and its lookup array; training
    encodes each batch's rows through it."""
    usable = column.select((column.lengths() >= 2).nonzero()[0])
    vocab = build_vocabulary(usable, "code")
    return vocab, usable.lookup(vocab)


def report(name: str, peak: int, held: int, rows: int, tokens: int) -> None:
    print(f"{name}: peak {peak / 1e6:.2f} MB ({peak / 1e6 / rows * 1000:.3f} MB per 1,000 rows, "
          f"{peak / tokens:.2f} bytes per token), held {held / 1e6:.2f} MB")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rows", type=int, default=12000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.jsonl"
        records = pool_records(args.rows, args.seed)
        gen.write_records(path, records, {"command": "dataset", "role": "pretraining-pool"})
        tokens = sum(len(r["sbt_tokens"]) for r in records)
        del records
        for _ in JsonlRows(path):  # the file is in the page cache before any timing
            pass
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            TokenStore.read(path, code=True)
            seconds.append(time.perf_counter() - start)
        store, peak, held = traced(lambda: TokenStore.read(path, code=True))
        column = store.code
        print(f"pool: {len(column)} rows, {tokens} tokens, {len(column.words)} distinct, "
              f"{path.stat().st_size / 1e6:.1f} MB")
        report("load", peak, held, len(column), tokens)
        print(f"load: {len(column) / min(seconds):.0f} rows/s")
        (vocab, _), peak, held = traced(lambda: fit(column))
        report(f"vocabulary ({vocab.size} words) and lookup", peak, held, len(column), tokens)


if __name__ == "__main__":
    main()
