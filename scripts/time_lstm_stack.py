"""Time `LstmStack` forward+backward passes at two fixed shapes, and the
LSTM layers' cost per step; measure the memory a pass holds; and measure
one language-model step at the paper's shape for three vocabularies.

- paper: the detector's 3-layer stack at latent 256 (widths 512, 256,
  128) over 128 right-padded sequences with seeded lognormal lengths
  around 65 (T=322, 28% real cells). A step is compute-bound here.
- detect: the `detect` benchmark's detector, one layer at latent 16 over
  batches of 8, lognormal lengths around 55. A step's numpy calls cost
  more than its arithmetic here.
- lm: one `LmNetwork.loss_and_grads` over the paper shape's batch at
  latent 32 (3 layers: widths 64, 32, 16) with a V-word softmax head, for
  V = 2,000, 4,000 and 8,000. The head dominates its memory.
- infer: one `predict_many` chunk of the paper's detector (latent 256,
  3 layers, batch 128) over 128 rows of 300 tokens each, as a `tune`,
  `cv` or `xproject` trial scores its longest held-out rows.

All draw 20% dropout. The upstream gradient covers the real cells only,
as every consumer of the stack passes; each pass gets a fresh copy of
it. For each stack shape the script prints the median wall time of a
pass, the median µs per step of the layers' forward and backward calls
(their time over layers x T steps), and, from one more pass under
`tracemalloc`, the memory held after the forward pass and the pass's
peak. For each vocabulary it prints the step's `tracemalloc` peak, the
wall time of an untraced step and the loss, whose bits should not
change with a rewrite that keeps the arithmetic. For the inference chunk
it prints the `tracemalloc` peak of one call, the wall time of an
untraced one and the SHA-256 of the probabilities' float64 bytes, which
should not change either:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_lstm_stack.py

The V=8,000 step peaks at about 1.5 GB and the inference chunk at about
0.9 GB. Commits before the stack handed
packed arrays between its layers took the mask instead of a `Packing`
and a padded (B, T, H) gradient.
"""

import hashlib
import statistics
import time
import tracemalloc

import numpy as np

from satd_forge import tensor_core as tc
from satd_forge.detector import DetectorModel, DetectorNetwork, DlHp, predict_many
from satd_forge.pretrainer import LmNetwork
from satd_forge.textpipe import build_vocabulary

VOCAB = 2000
# name, batch, latent, layers, median length, passes
SHAPES = [("paper", 128, 256, 3, 65, 3), ("detect", 8, 16, 1, 55, 200)]
# the language model step at the paper shape: latent, layers, vocabularies
LM_SHAPE = (32, 3, (2000, 4000, 8000))
# the inference chunk: rows, tokens per row, latent, layers
INFER_SHAPE = (128, 300, 256, 3)
MB = 1e6


def timed(method, spent):
    """`method`, adding the wall time of each call to `spent[-1]`."""

    def call(*args, **kwargs):
        start = time.perf_counter()
        result = method(*args, **kwargs)
        spent[-1] += time.perf_counter() - start
        return result

    return call


def padded_batch(batch, median):
    """(rng, mask) of `batch` right-padded sequences with seeded lognormal lengths."""
    rng = np.random.default_rng(0)
    lengths = np.clip(rng.lognormal(np.log(median), 0.8, batch).astype(int), 1, 1500)
    return rng, (np.arange(int(lengths.max())) < lengths[:, None]).astype(np.float64)


def stack_memory(stack, idx, packing, dtop):
    """(MB held after the forward pass, MB at the pass's peak), as
    `tracemalloc` sees them from the start of the pass."""
    tracemalloc.start()
    try:
        _, _, cache = stack.forward(idx, packing, np.random.default_rng(1), 0.2)
        held = tracemalloc.get_traced_memory()[0]
        stack.backward(dtop.copy(), cache)
        del cache
        return held / MB, tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def time_shape(name, batch, latent, layers, median, passes):
    rng, mask = padded_batch(batch, median)
    idx = rng.integers(1, VOCAB, size=mask.shape) * mask.astype(np.int64)
    stack = tc.LstmStack(VOCAB, latent, tc.detector_layer_sizes(latent, layers), rng)
    packing = tc.Packing(mask)
    dtop = packing.pack(rng.normal(size=mask.shape + (stack.layers[-1].state_size,)))
    _ = packing.spans, packing.row_major  # built once, outside the measured passes
    held, peak = stack_memory(stack, idx, packing, dtop)
    forward, backward, times = [], [], []
    for layer in stack.layers:
        layer.forward, layer.backward = timed(layer.forward, forward), timed(layer.backward, backward)
    for _ in range(passes):
        forward.append(0.0)
        backward.append(0.0)
        upstream = dtop.copy()
        start = time.perf_counter()
        _, _, cache = stack.forward(idx, packing, np.random.default_rng(1), 0.2)
        stack.backward(upstream, cache)
        times.append(time.perf_counter() - start)
        del cache
    steps = layers * mask.shape[1] / 1e6
    print(f"{name}: B={batch} T={mask.shape[1]} latent={latent} layers={layers} real={mask.mean():.2f} "
          f"median={statistics.median(times):.4f}s forward={statistics.median(forward) / steps:.1f}us/step "
          f"backward={statistics.median(backward) / steps:.1f}us/step held={held:.0f}MB peak={peak:.0f}MB")


def lm_step(latent, layers, vocab):
    batch, median = SHAPES[0][1], SHAPES[0][4]
    rng, mask = padded_batch(batch, median)
    idx = rng.integers(1, vocab, size=mask.shape) * mask.astype(np.int64)
    targets = rng.integers(1, vocab, size=mask.shape) * mask.astype(np.int64)
    net = LmNetwork(vocab, latent, layers, seed=0)
    tracemalloc.start()
    try:
        loss = net.loss_and_grads(idx, mask, targets, np.random.default_rng(1), 0.2)
        peak = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
    start = time.perf_counter()
    net.loss_and_grads(idx, mask, targets, np.random.default_rng(1), 0.2)
    seconds = time.perf_counter() - start
    print(f"lm: B={batch} T={mask.shape[1]} latent={latent} layers={layers} real={mask.mean():.2f} V={vocab} "
          f"peak={peak:.0f}MB step={seconds:.2f}s loss={float(loss)!r}")


def infer_chunk(rows, length, latent, layers):
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(VOCAB)]
    sequences = [[words[j] for j in rng.integers(0, VOCAB, size=length)] for _ in range(rows)]
    vocab = build_vocabulary(sequences, "code")
    hp = DlHp(latent=latent, layers=layers, batch_size=rows)
    network = DetectorNetwork(vocab.size, latent, layers, hp.pooling, seed=0)
    model = DetectorModel(kind="dl", vocab=vocab, hp=hp, network=network)
    tracemalloc.start()
    try:
        probs = predict_many(model, sequences)
        peak = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
    start = time.perf_counter()
    predict_many(model, sequences)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(np.array([p for p, _ in probs]).tobytes()).hexdigest()[:16]
    print(f"infer: B={rows} T={length} latent={latent} layers={layers} peak={peak:.0f}MB "
          f"seconds={seconds:.2f}s probs_sha256={digest}")


def main():
    for shape in SHAPES:
        time_shape(*shape)
    latent, layers, vocabularies = LM_SHAPE
    for vocab in vocabularies:
        lm_step(latent, layers, vocab)
    infer_chunk(*INFER_SHAPE)


if __name__ == "__main__":
    main()
