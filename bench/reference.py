"""A fixed reference workload that host time is normalised against.

On a shared host the same code runs up to 1.7 times slower or faster from
one stretch of seconds or minutes to the next. A workload made of the same
kinds of operations as the program follows those swings: Python dict churn,
plus the normal draws, rounding, clipping and averaging of small numpy
arrays that a site read does. The benchmark times it in a fresh process next
to every pass and reports each pass, and the set-up samples taken before it,
in units of it (``wall_rel``, ``setup_s``). A separate process keeps numpy
out of the benchmark process, whose memory would otherwise show in every
child's ``ru_maxrss`` through fork.

Do not change this code: every ``wall_rel`` and ``setup_s`` ever recorded is
relative to it.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 5


def reference_s() -> float:
    """Wall time of the reference workload on this host, now."""
    rng = np.random.default_rng(12345)
    base = np.full((16, 17), 650.0)
    start = time.perf_counter()
    for _ in range(REPEATS):
        table = {}
        for i in range(60_000):
            table[i % 977] = (i, str(i))
        for _ in range(400):
            raw = np.rint(base + rng.normal(0.0, 50.0, size=(10, 16, 17)))
            counts = np.clip(raw, 0, 65535).astype(np.int64)
            int(np.rint(counts.mean(axis=0)).sum())
    return time.perf_counter() - start


if __name__ == "__main__":
    print(reference_s())
