"""Time one `LstmStack` forward+backward pass at a paper-scale shape.

Builds the detector's 3-layer stack at latent 256 (widths 512, 256, 128)
over 128 right-padded sequences with seeded lognormal lengths (T=322,
28% real cells), with 20% dropout, and prints the median wall time of
REPEATS passes. The upstream gradient covers the real cells only, as
every consumer of the stack passes:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_lstm_stack.py

Commits before the stack handed packed arrays between its layers took
the mask instead of a `Packing` and a padded (B, T, H) gradient.
"""

import statistics
import time

import numpy as np

from satd_forge import tensor_core as tc

BATCH, LATENT, LAYERS, VOCAB = 128, 256, 3, 2000
REPEATS = 3


def main():
    rng = np.random.default_rng(0)
    lengths = np.clip(rng.lognormal(np.log(65), 0.8, BATCH).astype(int), 1, 1500)
    T = int(lengths.max())
    mask = (np.arange(T) < lengths[:, None]).astype(np.float64)
    idx = rng.integers(1, VOCAB, size=mask.shape) * mask.astype(np.int64)
    stack = tc.LstmStack(VOCAB, LATENT, tc.detector_layer_sizes(LATENT, LAYERS), rng)
    packing = tc.Packing(mask)
    dtop = packing.pack(rng.normal(size=(BATCH, T, stack.layers[-1].state_size)))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _, _, cache = stack.forward(idx, packing, np.random.default_rng(1), 0.2)
        stack.backward(dtop, cache)
        times.append(time.perf_counter() - start)
        del cache
    print(f"B={BATCH} T={T} latent={LATENT} layers={LAYERS} real={mask.mean():.2f} "
          f"median={statistics.median(times):.3f}s runs={' '.join(f'{t:.3f}' for t in times)}")


if __name__ == "__main__":
    main()
