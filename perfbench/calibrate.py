"""Host-speed calibration for time-valued metrics.

Shared hosts change speed by tens of percent for tens of seconds at a time
(measured here: the same deck of formal-sum tasks took anywhere from 7.1 to
10.1 s per 30 decks within two minutes), and every process of a run slows
down together. So the benchmark times a fixed pure-Python kernel next to
what it measures, and reports each time in reference seconds:

    reported = measured * REFERENCE_S / (kernel time measured alongside)

The kernel calls no neutrolab code, so a change to neutrolab moves the
reported figures exactly as it moves the measured ones; only the host's
drift is divided out. It does the kind of work neutrolab does (dict
accumulation over tuples, table lookups, set-based closure), so it slows
down with the host as neutrolab does: on the deck above, the spread of
reported times was less than half the spread of measured ones. Each sample
runs the kernel twice and times the second, warm, run. Measured figures are
printed beside the reported ones.
"""

import gc
import random
import statistics
import time

# warm kernel time on the host the bounds were tuned on; a constant, so it
# scales figures without changing any ratio between them
REFERENCE_S = 0.0012
SAMPLE_EVERY_S = 0.25

_R = random.Random("perfbench:calibrate")
_N = 8
_VECS = [tuple(_R.randrange(2) for _ in range(_N)) for _ in range(30)]
_TABLE = [[(i * 3 + j * 5 + i * j) % _N for j in range(_N)] for i in range(_N)]


def kernel():
    acc = 0
    for a in _VECS:
        for b in _VECS[:12]:
            d = {}
            for i, x in enumerate(a):
                if x:
                    row = _TABLE[i]
                    for j, y in enumerate(b):
                        if y:
                            k = row[j]
                            d[k] = (d.get(k, 0) + x * y) % 2
            acc += len(tuple(sorted(d.items())))
    for start in range(_N):
        seen, frontier = {start}, [start]
        while frontier:
            fresh = []
            for x in frontier:
                for y in seen.copy():
                    for z in (_TABLE[x][y], _TABLE[y][x]):
                        if z not in seen:
                            seen.add(z)
                            fresh.append(z)
            frontier = fresh
        acc += len(seen)
    return acc


def sample():
    """Seconds of one warm kernel run. The cyclic garbage collector is off
    meanwhile: its passes scale with the caller's heap, not the host."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t = time.perf_counter()
        kernel()
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


def factor(samples):
    """Measured seconds times this are reference seconds."""
    return REFERENCE_S / statistics.median(samples)
