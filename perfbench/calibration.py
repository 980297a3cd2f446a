"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a shared host the same code runs at different speeds from one second
to the next: other guests on the same cores slow every instruction of
this process, by up to about 1.8x, in intervals of 0.1 s to over 20 s.
The harness times this kernel right before and right after every timed
solve and scales the solve's time by ``REFERENCE_S`` / (mean kernel time),
so the time reads as it would at the speed at which the kernel takes
``REFERENCE_S``.

The kernel mixes the two kinds of work hitset's solve does, and that a
slow interval slows by different amounts: an integer loop, and lookups,
set inserts and Fraction sums over a table larger than a small cache.
On the reference machine a solve slowed 1.33 times as much as the
integer loop alone, and 0.79 times as much as the table part alone; the
sum of the two tracks it with a slope near 1.

The kernel never changes: a change to it, or to ``REFERENCE_S``, changes
the scale of every normalised time, so the parent and the change under
test would no longer be comparable.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# best time of ``kernel()`` on the reference machine (2-vCPU shared
# Xeon guest, Python 3.11.7), in a fast interval
REFERENCE_S = 0.00125

_rng = random.Random(20111145)
_KEYS = [(_rng.randrange(1000), _rng.randrange(1000)) for _ in range(20000)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_ORDER = [_KEYS[_rng.randrange(len(_KEYS))] for _ in range(1000)]


def kernel() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    acc = Fraction(0)
    seen = set()
    for j, key in enumerate(_ORDER):
        value = _TABLE[key]
        seen.add((value, key))
        if j % 8 == 0:
            acc += Fraction(value % 97 + 1, j % 13 + 1)
    return total + len(seen) + acc.numerator % 7


def kernel_s() -> float:
    """Wall time of a run of the kernel with its data in cache.

    An untimed run goes first: right after a solve, the kernel's first
    run takes about 1.36 times as long as its second, because the solve
    evicted its table, and by how much would depend on the code under test.
    """
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
