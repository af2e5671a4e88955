"""Host-speed probe: times in reference seconds instead of wall seconds.

The baseline machine is a shared host whose speed for identical
single-threaded work shifts by up to 1.6x, in phases of seconds to minutes.
A probe of fixed work slows with the pipeline: the time of an eval call and
the mean of the probes next to it correlate at 0.86.

`HostClock` cuts each timed call into segments and runs the probe at every
cut.  A segment's reference time is its wall time times ``PROBE_NOMINAL_S``
over the mean of the probes at its two ends: the wall time it would have
taken had the host run the probe in ``PROBE_NOMINAL_S``.  A call is cut at
its end and, inside `xtune train`, at the first step boundary
(`ModelParams.zero_grads`) at least ``SPLIT_S`` after the last cut.  Probe
time is in no segment.  The probe is the benchmark's own code, so a change
to the program cannot speed it up or slow it down.
"""

from __future__ import annotations

import time

import numpy as np

import xtune.model

PROBE_ITERS = 10000
PROBE_NOMINAL_S = 0.05      # near the probe's time on the baseline machine
SPLIT_S = 0.5

_A = np.linspace(-1.0, 1.0, 24 * 16).reshape(24, 16)
_B = np.linspace(1.0, -1.0, 16 * 16).reshape(16, 16)


def probe():
    """Wall time of a fixed mix of small matrix products and dict updates,
    the two kinds of work the pipeline spends its time on."""
    start = time.perf_counter()
    acc, counts = 0.0, {}
    for i in range(PROBE_ITERS):
        acc += float(np.tanh(_A @ _B).sum())
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


class HostClock:
    """Times calls in reference seconds; one clock per pipeline.

    Used as a context manager, it also cuts at training step boundaries.
    A traced pipeline uses it without, so that no probe lands inside a
    traced span."""

    def __init__(self):
        self._last = probe()
        self._start = 0.0
        self._wall = self._ref = 0.0
        self._cuts = 0
        self._saved = None
        self.samples = []       # (label, wall s, reference s, cuts)

    def time(self, label, fn):
        """Run ``fn()``; returns (its value, its time in reference seconds)."""
        self._wall = self._ref = 0.0
        self._cuts = 0
        self._start = time.perf_counter()
        value = fn()
        self._cut()
        self.samples.append((label, self._wall, self._ref, self._cuts))
        return value, self._ref

    def _cut(self):
        wall = time.perf_counter() - self._start
        after = probe()
        self._cuts += 1
        self._wall += wall
        self._ref += wall * PROBE_NOMINAL_S / ((self._last + after) / 2)
        self._last = after
        self._start = time.perf_counter()

    def __enter__(self):
        cls = xtune.model.ModelParams
        original = self._saved = cls.zero_grads

        def zero_grads(params):
            if time.perf_counter() - self._start >= SPLIT_S:
                self._cut()
            return original(params)

        zero_grads.__wrapped__ = original
        cls.zero_grads = zero_grads
        return self

    def __exit__(self, *exc):
        xtune.model.ModelParams.zero_grads = self._saved
