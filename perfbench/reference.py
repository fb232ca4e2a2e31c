"""The reference computation that times the host's speed.

The benchmark runs on a few cores of a shared host whose speed for
identical work drifts by up to about 1.7x, for seconds at a time, with
the load of other machines' processes.  Raw seconds then say more about
the host than about the program.  So the benchmark times this fixed
computation right before and right after every timed call into the
program, and states each call's time in reference units: its seconds
divided by the mean of those two reference times.  A drift that slows
the call slows the reference alike and cancels; a change to the
program changes only the numerator.

The work mixes what the program spends its time on: interpreted
Python loops, small numpy array operations and sparse matrix-vector
products.  It never calls the program.  Changing it changes every
metric in reference units, so it stays as it is.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

_N = 2000
_LAPLACIAN = sp.csr_matrix(sp.diags_array(
    [-np.ones(_N - 1), 2.0 * np.ones(_N), -np.ones(_N - 1)],
    offsets=[-1, 0, 1]))
_X0 = np.linspace(0.0, 1.0, _N)


def reference_work() -> float:
    """The fixed work: about 20 ms on a 2.0 GHz Xeon core."""
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    x = _X0
    for _ in range(400):
        x = _LAPLACIAN @ x * 0.25 + _X0
    small = _X0[:64]
    for _ in range(800):
        small = np.sqrt(small * small + 1.0) - 1.0
    return float(acc) + float(x[0]) + float(small[0])


def reference_seconds() -> float:
    """Seconds one run of the reference work takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
