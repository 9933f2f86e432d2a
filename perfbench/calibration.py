"""Machine-speed calibration interleaved with the timed ops.

On a shared 2-CPU machine the same code ran up to 1.8x faster or slower
from one minute to the next, with CPU time following wall time (so the
cause is the speed of the core, not lost time slices).  Raw times of
identical runs spread by 20-50% there, more than any useful regression
bound.

The benchmark times a fixed calibration task, made of the same kind of work
the library does (CPython loops with ``math`` calls, tuples and a dict cache,
and Horner steps on small numpy arrays), between every ~0.1 s of ops, and
reports each time scaled to a machine on which the task takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / calibration

Set-up and CLI start times happen in fresh processes that read files and
start numpy's thread pool, whose speed this task does not follow.  They are
scaled instead by bare interpreter starts (``python -c "import numpy"``)
timed just before and after each of them, to a machine on which such a
start takes ``NOMINAL_START_S``.

The calibration task uses nothing from the library, so no change to the
library can move it.  Every raw time is also printed in the run's detail
line.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from collections import deque

import numpy as np

NOMINAL_S = 0.004
NOMINAL_START_S = 0.125
_BARE_START = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
_REPS = 40
_X = np.linspace(0.1, 0.9, 15)
_W = np.linspace(0.02, 0.1, 15)
_C = np.linspace(1.0, 0.01, 30)


def calibrate() -> float:
    """Seconds the fixed calibration task takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for r in range(_REPS):
        # libm calls in a Python loop
        for k in range(1, 20):
            acc += math.exp(0.1 * k - math.lgamma(k + 0.5))
        # Horner and weighted sums on small arrays
        y = np.zeros_like(_X)
        for c in _C:
            y = y * _X + c
        acc += float(_W @ y) + float(_W @ np.abs(y))
        # tuples, a dict cache, an exact sum and a keyed scan
        cache = {}
        rows = []
        for k in range(40):
            v = cache.get(k)
            if v is None:
                v = cache[k] = (k * 0.5 + r) / (k + 1.0)
            rows.append((k, v, v * 1e-3))
        acc += math.fsum(row[1] for row in rows)
        acc += max(range(len(rows)), key=lambda i: rows[i][2])
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration task produced a non-finite value")
    return elapsed


class Speed:
    """Calibration samples of one run.  The scale for a stretch of ops is
    taken from the median of the last few samples, which smooths the noise
    of single 4 ms samples while still following changes of speed that last
    a second or more."""

    def __init__(self, recent: int = 5):
        self.recent = deque(maxlen=recent)

    def sample(self) -> None:
        self.recent.append(calibrate())

    def factor(self) -> float:
        """Scale for the ops timed just before the latest sample."""
        return NOMINAL_S / statistics.median(self.recent)


def first_line_time(cmd, **popen_kw):
    """(seconds from starting ``cmd`` to its first line of output, all of
    its output); raises if it exits with a non-zero status."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, **popen_kw)
    with proc:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with status {proc.returncode}")
    return elapsed, first + rest


def timed_starts(cmd, n: int, **popen_kw):
    """Start ``cmd`` n times, alternating with bare interpreter starts.
    Returns (scaled seconds, raw seconds, outputs) of the n starts."""
    bare = first_line_time(_BARE_START)[0]
    scaled, raw, outputs = [], [], []
    for _ in range(n):
        elapsed, out = first_line_time(cmd, **popen_kw)
        after = first_line_time(_BARE_START)[0]
        scaled.append(elapsed * NOMINAL_START_S / (0.5 * (bare + after)))
        raw.append(elapsed)
        outputs.append(out)
        bare = after
    return scaled, raw, outputs
