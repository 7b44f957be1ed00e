"""Pass timing in reference seconds: host time scaled to a fixed host speed.

A shared host runs this benchmark's single thread at speeds that differ by
up to 1.8x, in states that last from seconds to minutes, and process CPU
time slows with wall time.  A median over passes cannot remove a state that
lasts a whole run, so the clock measures the host's speed while the pass
runs and divides it out.

Every ``INTERVAL_S`` seconds a ``SIGALRM`` handler runs a fixed
calibration sample (pure-Python dictionary and integer work, independent
of the simulator's code) on the pass's own thread.  The time between two
samples is a *segment*; its reference length is its host length times
``REFERENCE_SAMPLE_S`` over the mean of the two samples around it.  The
samples' own time is excluded from every segment, and the clock counts it
in ``paused_ns`` so that span tracing can exclude it too.

Segments are attributed to named buckets (``switch``), which is how set-up
time is split from the rest of a pass.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter, perf_counter_ns
from typing import Dict

#: Calibration iterations per sample: about 2 ms on the reference host.
SAMPLE_ITERATIONS = 8_000
#: One sample's time on the reference host (2-vCPU KVM guest on an Intel
#: Xeon with AVX-512, CPython 3) when no other tenant slows it down.
REFERENCE_SAMPLE_S = 1.9e-3
#: Host seconds between samples.
INTERVAL_S = 0.05


def calibration_sample(iterations: int = SAMPLE_ITERATIONS) -> int:
    """Fixed interpreter work: dictionary reads and writes, integer math."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = i & 1023
        acc = (acc * 31 + table.get(key, i)) & 0xFFFFFFFF
        table[key] = acc
    return acc


class ReferenceClock:
    """Reference seconds per bucket over one timed window."""

    def __init__(self) -> None:
        #: bucket -> reference seconds
        self.reference_s: Dict[str, float] = {}
        #: bucket -> host seconds (calibration samples excluded)
        self.host_s: Dict[str, float] = {}
        #: Host time spent in calibration samples, in nanoseconds.
        self.paused_ns = 0
        self.samples = 0
        self._pending: Dict[str, float] = {}
        self._bucket = "other"
        self._segment_start = 0.0
        self._previous_sample = 0.0
        self._busy = False
        self._running = False
        self._old_handler = None

    def _sample(self) -> float:
        # A collection of the simulator's heap must not land in a sample.
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter_ns()
        calibration_sample()
        elapsed = perf_counter_ns() - started
        if collecting:
            gc.enable()
        self.paused_ns += elapsed
        self.samples += 1
        return elapsed / 1e9

    def _close_segment(self) -> None:
        now = perf_counter()
        self._pending[self._bucket] = (self._pending.get(self._bucket, 0.0)
                                       + now - self._segment_start)
        self._segment_start = now

    def _calibrate(self) -> None:
        """Close the segment, take a sample, convert the pending time."""
        self._close_segment()
        sample = self._sample()
        scale = REFERENCE_SAMPLE_S / ((self._previous_sample + sample) / 2)
        for bucket, host in self._pending.items():
            self.host_s[bucket] = self.host_s.get(bucket, 0.0) + host
            self.reference_s[bucket] = self.reference_s.get(bucket, 0.0) + host * scale
        self._pending.clear()
        self._previous_sample = sample
        self._segment_start = perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        # A tick that lands inside switch() or another tick is skipped.
        if self._running and not self._busy:
            self._busy = True
            try:
                self._calibrate()
            finally:
                self._busy = False

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._previous_sample = self._sample()
        self._running = True
        self._segment_start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._busy = True
        self._calibrate()
        self._running = False
        self._busy = False
        signal.signal(signal.SIGALRM, self._old_handler)

    def switch(self, bucket: str) -> str:
        """Attribute time from now on to ``bucket``; returns the previous one."""
        self._busy = True
        try:
            previous = self._bucket
            self._close_segment()
            self._bucket = bucket
        finally:
            self._busy = False
        return previous

    def total_reference_s(self) -> float:
        return sum(self.reference_s.values())

    def total_host_s(self) -> float:
        return sum(self.host_s.values())
