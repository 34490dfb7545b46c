"""Host speed, sampled with a fixed reference kernel while a call runs.

The speed of a shared host drifts: the same pass can take 4 s in one minute
and 9 s in another, in wall time and CPU time alike, and a single call can
run 20% slower than the one before it. While a timed call runs, a timer
interrupts it every ``INTERVAL_S`` seconds and runs one short slice of a
fixed reference kernel: small matrix products, elementwise maths, reductions
and a little pure Python, the kind of work a ``qll`` step does, and nothing
that makes a system call. Samples fall evenly in time, so their mean over
``REF_SLICE_S`` is the mean slowness while the call ran, and the call's time
without the slices divided by it is the call's time at the reference speed.
The mean, not the median: a call is slowed by the share of its time spent in
slow spells, and the mean is what follows that share.

The kernel is the benchmark's own code, so a change to ``qll`` cannot make
it faster or slower; only the host can.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# Seconds one slice takes, on average, while it interrupts a `qll` call on
# the reference machine in its usual state (2 cores of an Intel Xeon, Python
# 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31).
REF_SLICE_S = 0.00065
SLICE_ITERS = 16
INTERVAL_S = 0.02

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((256, 8))
_W1 = _rng.standard_normal((8, 32)) * 0.3
_W2 = _rng.standard_normal((32, 4)) * 0.3


def _slice() -> float:
    """One slice of the reference kernel; returns its checksum."""
    acc = 0.0
    for i in range(SLICE_ITERS):
        x = _X[(i * 16) % 240:(i * 16) % 240 + 16]
        h = np.maximum(x @ _W1, 0.0)
        z = h @ _W2
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = h.T @ (p - 0.25)
        acc += float(np.log1p(np.abs(g)).sum())
        acc += sum(k * k for k in range(40)) * 1e-9
    return acc


def _timed_slice(into: list[float]) -> None:
    # A collection of the program's heap must not run inside a slice: it
    # would count as host slowness, and be taken out of the call's time.
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _slice()
        into.append(time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()


def measure(fn, *args):
    """Call ``fn(*args)`` while sampling the host speed.

    Returns ``(result, seconds, slices)``: ``seconds`` is the call's wall
    time without the slices, ``slices`` the slice times in seconds. One slice
    runs before the clock starts, so every call has a sample.
    """
    slices: list[float] = []
    _timed_slice(slices)
    old = signal.signal(signal.SIGALRM, lambda signum, frame: _timed_slice(slices))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        n = len(slices)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, old)
    return result, elapsed - sum(slices[1:n]), slices[:n]


def burst(n: int = 50) -> list[float]:
    """Time n slices back to back, for when there is no call to sample."""
    slices: list[float] = []
    for _ in range(n):
        _timed_slice(slices)
    return slices


def factor(slices: list[float]) -> float:
    """Host slowness over the slices: 1.0 at the reference speed, 2.0 at half."""
    return statistics.fmean(slices) / REF_SLICE_S
