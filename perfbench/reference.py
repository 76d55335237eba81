"""Fixed reference work that measures the host's speed during a run.

The block is benchmark code, not tailsurv code: a pure-Python loop and
a numpy elementwise plus matmul block, sized to take about
NOMINAL_REF_S on the reference host.  The runner times it between ops
and reports every time as ``raw * NOMINAL_REF_S / measured_ref``, so a
host that runs everything 1.5x slower for a while does not read as a
1.5x slower program.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one reference block on the reference host (2-CPU
# x86-64 VM, Python 3.11.7, numpy 2.4.6, one BLAS thread).
NOMINAL_REF_S = 0.012

_X = np.linspace(0.0, 8.0, 120_000)
_M = np.linspace(-1.0, 1.0, 120 * 120).reshape(120, 120)


def reference_block() -> float:
    """Run the block once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(50_000):
        acc += (i % 7) * 0.5 - (i % 3) * 0.25
    y = np.sin(_X) * np.exp(-0.1 * _X) + np.sqrt(_X + acc * 0.0)
    m = _M
    for _ in range(8):
        m = np.tanh(m @ _M)
    float(y.sum() + m.sum())
    return time.perf_counter() - start
