"""How fast the box runs right now, from a fixed reference kernel.

The reference box is shared with other tenants, and for minutes at a time all
code on it runs up to 40% slower (see README.md).  A run times this kernel
before and after every pass and scales the pass by it, so the rates it reports
are those of the box at its reference speed.  A 2-thread pass is scaled by the
kernel run in two threads at once, which also sees how busy the second vCPU
is.  The kernel never calls normfit: a change to the program moves the scaled
rates as much as the raw ones.

The kernel mixes the two kinds of work normfit does: a Python loop over small
numpy calls (the per-point chain) and a sort of an array larger than L2 (the
whole-cloud passes).
"""

from __future__ import annotations

import threading
import time

import numpy as np

_rng = np.random.default_rng(20230410)
_SMALL = _rng.standard_normal((200, 3))
_LARGE = _rng.standard_normal(1_000_000)

# About the seconds one call of kernel(n) takes on the reference box, by n; the
# 1-thread time drifts between about 0.04 and 0.065 s there.  It only sets the
# scale of the rates.
REFERENCE_S = {1: 0.050, 2: 0.085}


def _small_loop():
    acc = 0.0
    for i in range(800):
        j = (i * 7) % 150
        q = _SMALL[j:j + 40] - _SMALL[j:j + 40].mean(axis=0)
        acc += float(np.linalg.eigh(q.T @ q)[0][0])
    return acc


def _large_sort():
    for _ in range(3):
        np.sort(_LARGE)


def _work():
    _small_loop()
    _large_sort()


def kernel(n_threads: int = 1) -> float:
    """Seconds of the reference kernel run by `n_threads` threads at once."""
    threads = [threading.Thread(target=_work) for _ in range(n_threads - 1)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    _work()
    for t in threads:
        t.join()
    return time.perf_counter() - start

