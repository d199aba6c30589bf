"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark shares a few cores with other tenants, and their load moves
the speed of the same code by up to 2x over minutes.  The kernel below
does the kinds of work qubitlab does, and it never calls qubitlab: scans
of a 32 MiB array that the pass before it has pushed out of the caches,
then interpreted loops, exact fractions, small numpy reductions in a
Python loop, a sort and a small `eigh`, with the caches warm.  Runs
interleaved with the workloads showed the streaming part to follow their
slow spells most closely, and the mix of both parts to do better than
either alone.  Timed passes are interleaved with the kernel, and their
median is rescaled by `procs.host_scale`,

    REFERENCE_S / median(kernel seconds in the same run)

so a reported time reads as seconds on a host where the kernel takes
`procs.REFERENCE_S`.  A change to qubitlab moves the pass time and not the
kernel's; a busy neighbour moves both.  The raw times are kept in the
run's record.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_rng = np.random.default_rng(20241218)
_SYM = _rng.standard_normal((96, 96))
_SYM = _SYM + _SYM.T
_BIG = _rng.standard_normal(1 << 18)
_SMALL = [_rng.random(1 << k) + 0.01 for k in range(3, 12)]
_HUGE = _rng.random(1 << 22) + 0.01


def kernel() -> float:
    """Run the reference kernel once; return its timed wall seconds.

    The streaming part is timed first, from main memory.  The mixed work
    then runs twice and only the second run is timed: the first refills
    the caches, so that part does not depend on how much memory the timed
    pass before it touched.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        acc += float(np.log2(_HUGE).sum()) + float(np.cumsum(_HUGE)[-1])
    streaming = time.perf_counter() - t0
    _work()
    t0 = time.perf_counter()
    _work()
    if not np.isfinite(acc):
        raise AssertionError("reference kernel went wrong")
    return streaming + time.perf_counter() - t0


def _work() -> None:
    acc, table = 0.0, {}
    for i in range(12000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += (i * 7) % 13 / 3.0
    frac = Fraction(0)
    for i in range(1, 600):
        frac += Fraction(1, 1 << (i % 40)) * (i % 3)
    for _ in range(25):
        for v in _SMALL:
            p = v / v.sum()
            acc += float(-(p * np.log2(p)).sum()) + float(np.sort(v)[-3:].sum())
    for _ in range(4):
        acc += float(np.sort(_BIG)[0])
    for _ in range(6):
        acc += float(np.linalg.eigh(_SYM)[0][0])
    if not np.isfinite(acc) or frac < 0:
        raise AssertionError("reference kernel went wrong")
