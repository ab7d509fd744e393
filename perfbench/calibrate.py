"""A fixed amount of work whose CPU time measures the machine's speed now.

The benchmark's host is shared: its throughput drifts by up to a factor of
two over minutes, as other work on the host comes and goes.  A job's CPU
time divided by the CPU time of this loop, run by the job's process right
before the job and right after it (worker.py), is steadier than the
job's time alone, and it still moves in proportion when the program does
more or less work.  CPU time rather than wall time, so that neither counts
time the process spent waiting for a CPU (other processes, or the host
running something else on this guest's vCPU, which the guest reports as
steal time).

The loop mixes the kinds of work the `subsel` jobs do: interpreted Python
(about two fifths of its time), many small numpy calls, elementwise numpy
passes over arrays larger than the caches, and small BLAS solves (about a
fifth each).  These shares tracked the jobs' drift best on the machine of
BASELINE.md; a pass that parses CSV text, as ingest does, tracked it worse
and was left out.  It uses nothing from `subsel`, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# The speed the benchmark's times are scaled to: a machine on which one
# calibrate() takes this long, about its time on the 2-vCPU machine of
# perfbench/BASELINE.md in a quiet phase.  A scaled time is a CPU time
# multiplied by CALIBRATION_REF_S / calibrate().
CALIBRATION_REF_S = 0.15

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.standard_normal(64)
_MATRIX = _RNG.standard_normal((120, 120)) + 30.0 * np.eye(120)
_RHS = _RNG.standard_normal((120, 8))


def _interpreted() -> int:
    total = 0
    for i in range(600_000):
        total += (i * i) % 7
    return total


def _small_calls() -> float:
    acc = 0.0
    for _ in range(10_000):
        acc += float(np.dot(_SMALL, np.exp(-np.abs(_SMALL))))
    return acc


def _streaming() -> float:
    # Made on each call, so that each pass also pays for fresh pages, as a
    # job does.
    values = np.linspace(-3.0, 3.0, 1_000_000)
    buf = np.empty_like(values)
    acc = 0.0
    for _ in range(8):
        np.multiply(values, values, out=buf)
        buf += 1.0
        np.sqrt(buf, out=buf)
        acc += float(buf.sum())
    return acc


def _blas() -> float:
    acc = 0.0
    for _ in range(130):
        acc += float(np.linalg.solve(_MATRIX, _RHS)[0, 0])
    return acc


def calibrate() -> float:
    """CPU time, in seconds, of one pass of the fixed loop."""
    start = time.process_time()
    _interpreted()
    _small_calls()
    _streaming()
    _blas()
    return time.process_time() - start
