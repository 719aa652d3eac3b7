"""Host-speed probe: timings in seconds at a fixed reference speed.

The vCPUs this benchmark runs on change speed by up to 2x within seconds
(a shared host), independently of each other, so raw wall time of the same
work spreads by 15-20% from run to run.  A worker therefore samples the
speed of its own CPU while it works: every ``PERIOD_S`` of wall time a
SIGALRM handler runs a fixed pure-Python kernel and records how much CPU
time it took.  :class:`ReferenceClock` turns those samples into a
monotonic map from ``perf_counter()`` time to *reference seconds*: each
stretch of work between two probes counts ``(REF_PROBE_S / m) **
SENSITIVITY`` reference seconds per second, where ``m`` is the rolling
median of nearby probe times, and the probes themselves count zero.  The
same work then reads about the same number of reference seconds whether
the host was fast or slow.

The probe's CPU time (not its wall time) is used, so a probe preempted by
the campaign's pool workers still measures the CPU it ran on.  The pool
workers themselves are probed too (:func:`probe_forked_children`), so each
campaign task is measured at the speed of the CPU that ran it.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import signal
import statistics
import time
from bisect import bisect_right
from pathlib import Path
from typing import Optional

#: wall seconds between two probes
PERIOD_S = 0.025
#: the probe kernel's median CPU time on the reference host (the 2-vCPU VM
#: the baselines were measured on); it only scales the results
REF_PROBE_S = 5.0e-4
#: how strongly the workloads' time follows the probe's: when the host is
#: busy they slow down less than the pure-Python probe does.  Fitted on the
#: reference host, the exponent of workload time against probe time ranged
#: 0.55-1.1 with the neighbours' load (median 0.9); 0.8 kept the worst
#: run-to-run spread of any workload lowest
SENSITIVITY = 0.8
#: probes in the rolling median that estimates the current speed
WINDOW = 9
#: samples a forked child buffers before appending them to its file
FLUSH_EVERY = 8


class _Cell:
    __slots__ = ("hits", "weight")

    def __init__(self) -> None:
        self.hits = 0
        self.weight = 1.0


def _kernel() -> int:
    """Dict, float, heap and slot-attribute work: the interpreter paths the
    simulator spends its time on.  Of the candidates tried, this mix tracked
    the workloads' own speed best (dict/float alone tracked the campaign,
    heap/attribute work the probe engine)."""
    counts: dict = {}
    acc = 0.0
    for i in range(1500):
        key = i & 63
        counts[key] = counts.get(key, 0) + 1
        acc += (i % 7) * 0.5
    heap: list = []
    cell = _Cell()
    for i in range(300):
        heapq.heappush(heap, (i * 7 % 101, i))
        cell.hits += 1
        cell.weight *= 1.0000001
    while heap:
        heapq.heappop(heap)
    return cell.hits


class SpeedProbe:
    """Periodic speed samples ``(wall start, wall end, cpu seconds)``.

    With a ``sink`` path the samples are also appended there, a few at a
    time, tagged with the process name (used in forked pool workers, which
    end without running exit handlers).
    """

    def __init__(self, sink: Optional[Path] = None) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self.sink = sink
        self._flushed = 0

    def _tick(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        _kernel()
        self.samples.append((start, time.perf_counter(), time.thread_time() - cpu))
        if self.sink is not None and len(self.samples) - self._flushed >= FLUSH_EVERY:
            name = multiprocessing.current_process().name
            lines = "".join(json.dumps([name, *sample]) + "\n"
                            for sample in self.samples[self._flushed:])
            try:
                with open(self.sink, "a") as sink:
                    sink.write(lines)
            except OSError:
                # the handler runs inside the program's own code: losing the
                # samples (the task is then timed on the parent's clock) is
                # better than failing the task
                self.sink = None
            self._flushed = len(self.samples)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def probe_forked_children(directory: Path) -> None:
    """Probe every process forked from this one from now on.

    Each child appends its samples to ``directory/probe-<pid>.jsonl``; read
    them back with :func:`child_clocks`.
    """
    def start() -> None:
        SpeedProbe(sink=directory / f"probe-{os.getpid()}.jsonl").start()

    os.register_at_fork(after_in_child=start)


def child_clocks(directory: Path) -> dict[str, "ReferenceClock"]:
    """A reference clock per probed child, keyed by its process name."""
    samples: dict[str, list] = {}
    for path in directory.glob("probe-*.jsonl"):
        for line in path.read_text().splitlines():
            name, *sample = json.loads(line)
            samples.setdefault(name, []).append(tuple(sample))
    return {name: ReferenceClock(rows, rows[0][0]) for name, rows in samples.items()}


def rolling_median(values: list[float], window: int = WINDOW) -> list[float]:
    half = window // 2
    return [statistics.median(values[max(0, i - half): i + half + 1])
            for i in range(len(values))]


class ReferenceClock:
    """Monotonic map from ``perf_counter()`` time to reference seconds.

    ``clock(t)`` is the reference seconds of work done between ``origin``
    and ``t``; ``clock(b) - clock(a)`` is an interval's length.  Time
    before the first probe and after the last one runs at the nearest
    probe's speed; with no probes at all the clock reads raw seconds.
    """

    def __init__(self, samples: list[tuple[float, float, float]], origin: float) -> None:
        samples = [s for s in samples if s[0] >= origin]
        speeds = [(REF_PROBE_S / m) ** SENSITIVITY
                  for m in rolling_median([s[2] for s in samples])]
        self.origin = origin
        self.head = speeds[0] if speeds else 1.0
        self.tail = speeds[-1] if speeds else 1.0
        self.xs = [origin]
        self.fs = [0.0]
        f, last = 0.0, origin
        for (start, end, _), speed in zip(samples, speeds):
            f += (start - last) * speed
            self.xs += [start, end]
            self.fs += [f, f]  # a probe is not work
            last = end

    def __call__(self, t: float) -> float:
        xs, fs = self.xs, self.fs
        if t <= xs[0]:
            return (t - xs[0]) * self.head
        i = bisect_right(xs, t) - 1
        if i == len(xs) - 1:
            return fs[-1] + (t - xs[-1]) * self.tail
        x0, x1 = xs[i], xs[i + 1]
        if x1 == x0:
            return fs[i]
        return fs[i] + (fs[i + 1] - fs[i]) * (t - x0) / (x1 - x0)

    def speed(self, a: float, b: float) -> float:
        """Mean reference seconds per raw second over ``[a, b]``."""
        return (self(b) - self(a)) / (b - a) if b > a else self.head
