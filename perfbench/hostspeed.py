"""Timings corrected for the drift of the host's CPU speed.

The benchmark runs on shared hosts whose CPU speed drifts: the same
pure-Python loop runs up to 50 % slower for stretches of seconds to minutes,
and process CPU time drifts with wall time, so neither clock alone gives a
steady figure. A :class:`HostClock` therefore times, on a sampler thread,
a fixed calibration slice (a pure-Python loop of dict stores and integer
arithmetic, like the miner's inner loops) every :data:`INTERVAL_S` seconds.
A :class:`Span` times one region of the pipeline and reports its wall time
rescaled to the reference speed::

    reference seconds = wall seconds * REF_SLICE_S / mean(slice seconds)

where the mean runs over the slices timed during the span plus a few timed
in the caller's thread at its start and its end. On a host running at the
reference speed, reference seconds equal wall seconds. The rescaling
follows the host, not the program's code: work the program adds or saves
shows in full. (While Spark jobs run, the slices also share the CPUs with
the Spark JVM, so that stage is rescaled by the speed the JVM leaves over.)

The sampler thread holds the interpreter lock only while it times a slice
(about 0.3 ms), so it takes about 1 % of the timed thread's time, the same
share on every commit.
"""
from __future__ import annotations

import statistics
import threading
from time import perf_counter

SLICE_LOOPS = 4_000
#: Seconds one calibration slice takes at the reference speed: the fast
#: end of what a 4-core Xeon host gave (its median slice ran 1.0 to 1.5x this).
REF_SLICE_S = 0.00030
BRACKET = 8  # slices timed in the caller's thread at each end of a span
INTERVAL_S = 0.025  # between two slices on the sampler thread


def calibration_slice() -> float:
    """Seconds this thread takes for a fixed amount of Python work."""
    t0 = perf_counter()
    d = {}
    for i in range(SLICE_LOOPS):
        d[i & 63] = i * i % 7
    return perf_counter() - t0


class HostClock:
    """Samples the host's speed on a daemon thread between start and stop."""

    def __init__(self):
        self.samples: list[float] = []  # slice seconds, appended by the sampler
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "HostClock":
        self._thread = threading.Thread(target=self._run, name="perfbench-hostclock", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(calibration_slice())

    def span(self) -> "Span":
        return Span(self)


class Span:
    """One timed region; :meth:`stop` returns its reference seconds."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.slices = [calibration_slice() for _ in range(BRACKET)]
        self.first = len(clock.samples)
        self.t0 = perf_counter()

    def stop(self) -> float:
        wall_s = perf_counter() - self.t0
        self.slices += self.clock.samples[self.first:]
        self.slices += [calibration_slice() for _ in range(BRACKET)]
        return wall_s * REF_SLICE_S / statistics.mean(self.slices)
