"""A fixed reference work, timed around every report leg.

The machine this benchmark runs on is shared: its speed drifts by a
third or more over tens of seconds, and a run's wall times follow it.
The benchmark therefore times a few short passes of this fixed work
just before and just after each leg, and scales the leg's wall time by
the median pass (see `scaled`). The median, unlike one long pass, is
not thrown by a spike that lasts a fraction of a second.

The work mixes what a report spends its time on: sorts, cumulative
sums and argmins over small numpy arrays (as in growing a tree), small
ridge solves, and plain Python loops. It uses numpy only, never
limnoplan, so a change to the program cannot change the reference.
Its inputs are fixed and do not depend on the workload seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# One pass's time on a 2-core Intel Xeon VM in a quiet period (its 5th
# percentile). A scaled time reads as seconds on a machine this fast.
NOMINAL_S = 0.020
ROUNDS = 300
PASSES = 4  # on each side of a leg
_ROWS, _COLS = 120, 8


def reference_s() -> float:
    """Wall time of one pass of the reference work, about 30 ms."""
    rng = np.random.default_rng(20240101)
    X = rng.standard_normal((_ROWS, _COLS))
    y = rng.standard_normal(_ROWS)
    sizes = np.arange(1, _ROWS + 1)[:, None]
    eye = np.eye(_COLS)
    start = time.perf_counter()
    for i in range(ROUNDS):
        m = 30 + i % 60
        rows = rng.choice(_ROWS, size=m, replace=False)
        Xn, yn = X[rows], y[rows]
        order = np.argsort(Xn, axis=0, kind="stable")
        ys = yn[order]
        c1 = np.cumsum(ys, axis=0)
        c2 = np.cumsum(ys * ys, axis=0)
        np.argmin(c2 - c1 * c1 / sizes[:m])
        np.linalg.solve(Xn.T @ Xn + eye, Xn.T @ yn)
        sum(k * k for k in range(150))
    return time.perf_counter() - start


def passes() -> list[float]:
    return [reference_s() for _ in range(PASSES)]


def scaled(seconds: float, pass_times: list[float]) -> float:
    """`seconds` as it would read on a machine whose median pass takes NOMINAL_S."""
    return seconds * NOMINAL_S / statistics.median(pass_times)
