"""A fixed reference computation, timed after every search run.

On a shared host the speed of one core drifts by tens of percent over tens
of seconds, in process CPU time as well as in wall time, so raw search
seconds from two runs a minute apart are not comparable.  The benchmark
therefore reports search times in units of a reference: the median search
wall time of a run divided by the averaged reference timings taken after
each of its searches (``pooled_reference``).  The default reference mixes
interpreter work (tuples, dicts, sorting, string hashing) with small numpy
array operations, as the oracle searches do.  The surrogate searches spend
most of their time in BLAS, which speeds up and slows down with the host
in its own way, so they have a reference of dense products instead
(``blas_reference_work``).

Set-up runs in fresh processes and is mostly interpreter start-up and
imports, which the in-process reference follows poorly.  Set-up therefore
has a reference of its own: a fresh interpreter that imports numpy and
scipy.special (extension modules from the same packages the program
imports, but none of the program), timed before and after each set-up.
``setup_s`` is set-up wall time over that reference, times the reference's
nominal time, so it reads as seconds at a fixed host speed.

Both references belong to the benchmark and must stay unchanged between two
commits being compared.
"""
from __future__ import annotations

import hashlib
import random
import statistics
import subprocess
import sys
import time

import numpy as np

REPEATS = 3  # least number of timings after a search
# After each search the reference is timed for this share of the search's
# wall time, so the timings of a run are spread across it.
DUTY = 0.1
# scipy.stats would match the program's imports more closely, but its import
# time alone varies by 25% from one process to the next; this one by 2%.
PROCESS_CODE = "import numpy, scipy.special"
# Typical wall time of the reference process between two set-ups, on the
# 2-vCPU machine the benchmark was defined on (Python 3.11, numpy 2.4,
# scipy 1.17).  A fixed scale: it cancels in any comparison of two commits.
PROCESS_NOMINAL_S = 0.42


def reference_work() -> float:
    rng = random.Random(20260917)
    items = [(rng.randrange(1000), rng.random(), i) for i in range(6000)]
    items.sort()
    buckets: dict[int, float] = {}
    for key, value, i in items:
        buckets[key % 97] = buckets.get(key % 97, 0.0) + value * i
    text = ",".join(f"{k}:{v!r}" for k, v in sorted(buckets.items()))
    digest = hashlib.sha1(text.encode()).digest()
    a = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
    for _ in range(120):
        a = np.tanh(a @ a.T / 48.0 + digest[0] / 255.0)
    return float(a.sum())


_BLAS_RNG = np.random.default_rng(20260917)
_X = _BLAS_RNG.normal(size=(32 * 40, 64))
_W1 = _BLAS_RNG.normal(size=(64, 256)) / 8.0
_W2 = _BLAS_RNG.normal(size=(256, 64)) / 16.0


def blas_reference_work() -> float:
    """Dense float64 products shaped like one fine-tuning batch of the
    encoder (32 genomes of 40 tokens, width 64, feed-forward width 256)."""
    x = _X
    for _ in range(6):
        x = x + np.tanh(x @ _W1) @ _W2
        x = x / (1.0 + np.abs(x).mean())
    return float(x.sum())


def reference_times(min_seconds: float = 0.0, work=reference_work) -> list[float]:
    """Time ``work`` at least ``REPEATS`` times and for at least
    ``min_seconds``."""
    out = []
    t_end = time.perf_counter() + min_seconds
    while len(out) < REPEATS or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        work()
        out.append(time.perf_counter() - t0)
    return out


def pooled_reference(samples: list[float]) -> float:
    """Reference time for a whole timed loop, from every timing taken in it.

    The host switches between a fast and a slow state (here 7 and 11 ms per
    reference) every second or so, and a search of several seconds averages
    over both.  So the pool is averaged, not reduced to its median, which
    would pick one state; the fastest and slowest tenth are dropped first,
    so a lone pause does not count.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def reference_process_seconds() -> float:
    """Wall time of one fresh interpreter running ``PROCESS_CODE``; it
    inherits the caller's environment, BLAS thread pins included."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROCESS_CODE], check=True, timeout=120)
    return time.perf_counter() - t0
