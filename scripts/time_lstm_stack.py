"""Time `LstmStack` forward+backward passes at two fixed shapes, and the
LSTM layers' cost per step.

- paper: the detector's 3-layer stack at latent 256 (widths 512, 256,
  128) over 128 right-padded sequences with seeded lognormal lengths
  around 65 (T=322, 28% real cells). A step is compute-bound here.
- detect: the `detect` benchmark's detector, one layer at latent 16 over
  batches of 8, lognormal lengths around 55. A step's numpy calls cost
  more than its arithmetic here.

Both draw 20% dropout. The upstream gradient covers the real cells only,
as every consumer of the stack passes. For each shape the script prints
the median wall time of a pass, and the median µs per step of the
layers' forward and backward calls (their time over layers x T steps):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_lstm_stack.py

Commits before the stack handed packed arrays between its layers took
the mask instead of a `Packing` and a padded (B, T, H) gradient.
"""

import statistics
import time

import numpy as np

from satd_forge import tensor_core as tc

VOCAB = 2000
# name, batch, latent, layers, median length, passes
SHAPES = [("paper", 128, 256, 3, 65, 3), ("detect", 8, 16, 1, 55, 200)]


def timed(method, spent):
    """`method`, adding the wall time of each call to `spent[-1]`."""

    def call(*args, **kwargs):
        start = time.perf_counter()
        result = method(*args, **kwargs)
        spent[-1] += time.perf_counter() - start
        return result

    return call


def time_shape(name, batch, latent, layers, median, passes):
    rng = np.random.default_rng(0)
    lengths = np.clip(rng.lognormal(np.log(median), 0.8, batch).astype(int), 1, 1500)
    T = int(lengths.max())
    mask = (np.arange(T) < lengths[:, None]).astype(np.float64)
    idx = rng.integers(1, VOCAB, size=mask.shape) * mask.astype(np.int64)
    stack = tc.LstmStack(VOCAB, latent, tc.detector_layer_sizes(latent, layers), rng)
    packing = tc.Packing(mask)
    dtop = packing.pack(rng.normal(size=(batch, T, stack.layers[-1].state_size)))
    forward, backward, times = [], [], []
    for layer in stack.layers:
        layer.forward, layer.backward = timed(layer.forward, forward), timed(layer.backward, backward)
    for _ in range(passes):
        forward.append(0.0)
        backward.append(0.0)
        start = time.perf_counter()
        _, _, cache = stack.forward(idx, packing, np.random.default_rng(1), 0.2)
        stack.backward(dtop, cache)
        times.append(time.perf_counter() - start)
        del cache
    steps = layers * T / 1e6
    print(f"{name}: B={batch} T={T} latent={latent} layers={layers} real={mask.mean():.2f} "
          f"median={statistics.median(times):.4f}s forward={statistics.median(forward) / steps:.1f}us/step "
          f"backward={statistics.median(backward) / steps:.1f}us/step")


def main():
    for shape in SHAPES:
        time_shape(*shape)


if __name__ == "__main__":
    main()
