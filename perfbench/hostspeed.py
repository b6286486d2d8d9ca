"""Host speed, sampled while the benchmark runs, to rescale its times.

The benchmark runs on a few cores of a shared host whose throughput moves
between regimes: the same pure-Python loop runs up to 1.8 times slower for
stretches of several to thirty seconds, with CPU time moving with wall
time (other tenants, not scheduling).  A pass of the workload straddles
such stretches at random, so its raw wall time says as much about the host
as about relends.

A fixed calibration loop, written like the enumerator's inner loops (list
indexing, a union-find walk, appends, small function calls) over a table
that stays in the first-level caches, is timed every `INTERVAL_S` of wall
time from a SIGALRM handler in the measuring process, on the core and in
the moment the workload runs.  Between two samples the workload ran at a
speed proportional to 1 / (calibration time), so

    work_s = sum over the gaps between samples of
             gap * REFERENCE_S / (mean calibration time at the gap's ends)

is the time the same work takes on a host where the loop takes
`REFERENCE_S` -- its fast regime on a 2.1 GHz Xeon VM.  The calibration
time itself is left out of the gaps.  A change to relends that makes a pass
do more or less work moves work_s by the same share; a change of host
regime moves the calibration time and the gap time together and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import NamedTuple

INTERVAL_S = 0.1  # wall time between samples
REFERENCE_S = 0.0006  # calibration time in the fast regime of the reference host

SETUP_SAMPLES = 5  # calibrations at each end of a set-up

# A fixed walk over a table small enough to stay in the first-level caches:
# a table that does not fit reads as much the workload's cache footprint
# at the moment of the sample as the host's speed.
_TABLE_SIZE = 256
_TABLE = [(i * 40503 + 1) % _TABLE_SIZE for i in range(_TABLE_SIZE)]
_ROUNDS = 4000
_WARM_ROUNDS = 500


def _find(uf: list[int], c: int) -> int:
    while uf[c] != c:
        uf[c] = uf[uf[c]]
        c = uf[c]
    return c


def _loop(rounds: int) -> list[int]:
    table = _TABLE
    uf = list(range(64))
    out: list[int] = []
    c = 0
    for k in range(rounds):
        c = table[c]
        r = _find(uf, k & 63)
        uf[c & 63] = r if r < (c & 63) else uf[c & 63]
        out.append(c ^ r)
    return out


def calibrate(clock=time.perf_counter) -> float:
    """Wall time of one warm run of the calibration loop (about 0.6 ms).

    A short untimed run first brings the loop's code and data back into the
    caches, so that what the workload left in them does not count.
    """
    _loop(_WARM_ROUNDS)
    started = clock()
    _loop(_ROUNDS)
    return clock() - started


class Sample(NamedTuple):
    start: float  # before the warm-up run
    end: float
    duration: float  # of the timed run


class SpeedSampler:
    """Calibration samples, one every INTERVAL_S while `running()`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[Sample] = []
        # (work_clock() at the end of the last sample, that end, its speed)
        self._anchor = (0.0, clock(), REFERENCE_S)

    def sample(self) -> None:
        start = self.clock()
        duration = calibrate(self.clock)
        end = self.clock()
        self.samples.append(Sample(start, end, duration))
        work, last_end, speed = self._anchor
        self._anchor = (work + (start - last_end) * REFERENCE_S / speed, end, duration)

    def work_clock(self) -> float:
        """A clock that stands still during samples and otherwise runs at
        the speed of the last sample, in seconds of the reference host.

        Spans and query latencies read it, so that their times are on the
        scale of work_s.  A sample (a signal handler) may run between any
        two bytecodes, here too: the reading is taken again if one did.
        """
        while True:
            anchor = self._anchor
            now = self.clock()
            if anchor is self._anchor:
                work, last_end, speed = anchor
                return work + (now - last_end) * REFERENCE_S / speed

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Run fn() between two samples; returns (result, wall_s, work_s).

        wall_s is the raw wall time of fn() without the calibrations taken
        while it ran, work_s the same time rescaled to the reference host.
        """
        self.sample()
        first = len(self.samples) - 1
        result = fn()
        self.sample()
        window = self.samples[first:]
        return result, gap_seconds(window), work_seconds(window)


def _gaps(window: list[Sample]):
    """(gap, speed) between consecutive samples; speed is the mean of the
    calibration durations at the gap's two ends."""
    for a, b in zip(window, window[1:]):
        yield b.start - a.end, (a.duration + b.duration) / 2


def gap_seconds(window: list[Sample]) -> float:
    """Time between the first and the last sample outside calibrations."""
    return sum(gap for gap, _speed in _gaps(window))


def work_seconds(window: list[Sample]) -> float:
    """Time between the first and the last sample outside calibrations,
    each gap rescaled to the reference host by its speed."""
    return sum(gap * REFERENCE_S / speed for gap, speed in _gaps(window))


def setup_calibration(sampler: SpeedSampler) -> None:
    """Calibrate at one end of a set-up (call once at each end)."""
    for _ in range(SETUP_SAMPLES):
        sampler.sample()


def setup_work_seconds(setup_s: float, sampler: SpeedSampler) -> float:
    """A set-up's time rescaled to the reference host.

    A set-up (interpreter start, import, input generation) is too short to
    sample from a timer, so its speed is the mean of the median calibration
    at its start and at its end.  The calibrations at the start ran inside
    the set-up and are taken out of it.
    """
    before = sampler.samples[:SETUP_SAMPLES]
    after = sampler.samples[SETUP_SAMPLES:]
    speed = (statistics.median(x.duration for x in before)
             + statistics.median(x.duration for x in after)) / 2
    busy = setup_s - sum(x.end - x.start for x in before)
    return busy * REFERENCE_S / speed
