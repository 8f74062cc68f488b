"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to a third slower for tens of
seconds at a time, whenever neighbours load the machine; no window a run can
afford averages that out.  The benchmark therefore runs this kernel between
its units of work (before and after every inference scene, training step
and set-up phase) and rescales each unit's wall time by ``NOMINAL_MS`` over the
kernel's time around it.  A calibrated time reads as the wall time on a host
where one reference pass takes ``NOMINAL_MS``; the kernel never changes, so
a change to lanebev moves calibrated times as it moves wall times, while the
host's slow spells cancel.

The kernel mixes the two kinds of work lanebev does: interpreter-bound
Python and small BLAS matrix products.
"""

import time

import numpy as np

# About the kernel's median time on a 2-vCPU KVM Xeon guest at 2.1 GHz
# (Python 3.11, numpy 2.4 with OpenBLAS 0.3.31 on one thread).
NOMINAL_MS = 16.0

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((192, 192))
_B = _rng.standard_normal((192, 192))


def reference_ms():
    """Run the reference kernel once; returns its wall time in ms."""
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i
    for _ in range(20):
        _A @ _B
    return (time.perf_counter() - t0) * 1e3


def scales(refs):
    """Calibration factor of each interval between consecutive reference
    times: ``NOMINAL_MS`` over the mean of the two."""
    return [2.0 * NOMINAL_MS / (a + b) for a, b in zip(refs, refs[1:])]
