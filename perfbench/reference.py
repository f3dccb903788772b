"""A fixed reference load that tells how fast the host runs at the moment.

On a shared host the same sweep takes from 1x to 1.6x its best time, and the
host stays in a slow or a fast phase for tens of seconds to minutes, so even
the median of a long run moves with the phases it landed in.  Every sweep
process therefore times this load right before ``run_suite`` and again after
the report is written, and the benchmark gates the sweep's time in multiples
of the mean of the two.  Timed in the sweep's own process, the load sees the
same CPU and the same phase as the sweep; timed in the parent process it
tracked the sweep less well in trials.

The load imports nothing from ``voronoi_lab``, so a change to the package
cannot change it, only the sweep that is divided by it.  It mixes what the
sweeps spend their time on: interpreted loops over residues with complex
exponentials, Fraction sums, dict building, and numpy calls on small arrays.
It allocates well under 1 MB, so the sweep process's peak RSS stays the
sweep's own.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time
from fractions import Fraction

import numpy as np

# Median of this many passes of about 60 ms each, so that one interruption
# does not set the figure.
REPEATS = 5


def _load() -> complex:
    acc = 0j
    for c in range(2, 220):
        units = [a for a in range(1, c) if math.gcd(a, c) == 1]
        inverse = {a: pow(a, -1, c) for a in units}
        for n in (1, 2, 5):
            for a in units:
                acc += cmath.exp(2j * math.pi * (a + n * inverse[a]) / c)
    f = Fraction(0)
    for k in range(1, 200):
        f += Fraction(1, k * k + 1)
    table = {i: complex(i, -i) for i in range(4000)}
    acc += sum(table.values()) + float(f)
    v = np.arange(1, 33, dtype=complex)
    for k in range(1500):
        v = np.exp(1j * v.real / (k + 1)) * v
    w = np.linspace(0.0, 1.0, 2000) * (1 + 1j)
    for _ in range(300):
        acc += complex(np.exp(w).sum())
    return acc + complex(v.sum())


def measure() -> tuple[float, float]:
    """Median wall and CPU seconds of one pass of the load, over REPEATS passes."""
    walls, cpus = [], []
    for _ in range(REPEATS):
        c0, t0 = time.process_time(), time.perf_counter()
        _load()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)
