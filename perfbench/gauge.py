"""Host-speed gauge: durations normalised against a fixed Python kernel.

On a shared host the same pure-Python work can take a third longer in
one process than in the next, and slow stretches last for seconds.  A
raw wall-clock time therefore says as much about the neighbours as
about the program.  The gauge measures the host's speed *while the work
runs* and divides it out:

* :func:`kernel` is a fixed pure-Python loop heavy in dict, tuple and
  object traffic, the same kind of work the analyses do.  It runs with
  the garbage collector off, so its duration depends only on how fast
  the host executes Python right now.
* :meth:`SpeedGauge.sample` runs the kernel twice and times the second
  run, so that the caches the work just displaced do not count against
  the host.  A sample is taken
  just before and just after every unit of work, and, while the gauge
  is ticking, from a ``SIGALRM`` interval timer (every
  :data:`TICK_SECONDS`), so long units are sampled all the way through.
* :meth:`SpeedGauge.normalise` splits a unit at its samples.  Each gap
  between two samples is work done at the speed the two samples
  measured; the gap is scaled by ``NOMINAL_KERNEL_S / kernel_time`` and
  the scaled gaps are summed.  The kernel's own time lies outside the
  gaps, so it is excluded from the unit.

The result is the unit's duration in seconds on a host running the
kernel in exactly :data:`NOMINAL_KERNEL_S`.  The interval timer fires
in the main thread, so a process that hands work to a child process
must share one CPU with it (see ``pin_to_one_cpu``) for the samples to
see the child's speed.
"""

from __future__ import annotations

import gc
import os
import signal
import time

#: kernel loop length; sized to about a millisecond on the reference host
KERNEL_ROUNDS = 3000
#: the kernel's duration at nominal speed; a calibration constant that
#: must never change between two measurements that are compared
NOMINAL_KERNEL_S = 0.00100
#: interval of the periodic samples inside a unit
TICK_SECONDS = 0.02


class _Node:
    __slots__ = ("key", "value", "link")

    def __init__(self, key, value, link):
        self.key = key
        self.value = value
        self.link = link


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed pure-Python work: tuples as keys, dict buckets, linked objects."""
    table: dict = {}
    head = None
    for i in range(rounds):
        key = (i % 61, i // 61)
        head = _Node(key, i, head)
        bucket = table.get(key[0])
        if bucket is None:
            table[key[0]] = [head]
        else:
            bucket.append(head)
    total = 0
    for bucket in table.values():
        for node in bucket:
            total += node.value & 7
    while head is not None:
        total ^= head.key[1]
        head = head.link
    return total


kernel()  # let the interpreter specialise the loop before any timed run


class SpeedGauge:
    """Kernel samples on one ``perf_counter`` timeline, plus normalisation."""

    def __init__(self):
        #: ``(start, end, kernel_seconds, kernel_cpu_seconds, cpu_seconds)``
        #: of every sample, in time order: the timed kernel run's wall and
        #: CPU time, and the CPU time of the whole sample
        self.samples: list[tuple[float, float, float, float, float]] = []
        self._busy = False
        self._previous_handler = None

    def sample(self) -> int:
        """Run the kernel twice and time the second run; returns the
        sample's index.  A tick that lands inside a sample is dropped."""
        if self._busy:
            return len(self.samples) - 1
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            cpu_start = time.thread_time()
            kernel()  # untimed: brings the kernel's code and data into cache
            timed = time.perf_counter()
            cpu_timed = time.thread_time()
            kernel()
            cpu_end = time.thread_time()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.samples.append(
            (start, end, end - timed, cpu_end - cpu_timed, cpu_end - cpu_start)
        )
        return len(self.samples) - 1

    def _on_tick(self, signum, frame) -> None:
        self.sample()

    def start_ticking(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)

    def stop_ticking(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def cpu_speed(self, first: int, last: int) -> float:
        """Mean speed while running, from the kernel's CPU time, over a range
        of samples: time the host gave to other processes is left out."""
        cpu = sum(sample[3] for sample in self.samples[first:last + 1])
        return NOMINAL_KERNEL_S * (last + 1 - first) / max(cpu, 1e-9)

    def normalise(self, first: int, last: int) -> tuple[float, float]:
        """``(work_seconds, normalised_seconds)`` between two samples.

        ``first`` and ``last`` are the indices of the samples taken just
        before and just after the unit; the samples between them are the
        ticks that fired inside it.
        """
        work = normalised = 0.0
        for index in range(first, last):
            gap = self.samples[index + 1][0] - self.samples[index][1]
            kernel_time = (self.samples[index][2] + self.samples[index + 1][2]) / 2
            work += gap
            normalised += gap * NOMINAL_KERNEL_S / max(kernel_time, 1e-9)
        return work, normalised

    def measure(self, fn):
        """Run ``fn()`` as one unit: ``(result, work_seconds, normalised_seconds)``."""
        first = self.sample()
        result = fn()
        last = self.sample()
        work, normalised = self.normalise(first, last)
        return result, work, normalised


def tree_cpu_seconds(pid: int | None = None) -> float:
    """CPU seconds used by a process and all its descendants so far.

    A process's CPU clock (read through the clock id that
    ``clock_getcpuclockid`` would return) counts every thread it has
    run, finished threads too, to the nanosecond.  Children it has
    already waited for are added from ``/proc/<pid>/stat`` (``cutime``
    and ``cstime``, in clock ticks), live ones by walking
    ``/proc/<pid>/task/*/children``.  A process that exits between two
    readings and has not been waited for yet is missed by the second.
    """
    pid = os.getpid() if pid is None else pid
    try:
        total = time.clock_gettime((~pid << 3) | 2)  # CPUCLOCK_SCHED, process-wide
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[13]) + int(fields[14])) / os.sysconf("SC_CLK_TCK")
        children = []
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                children.extend(int(child) for child in handle.read().split())
    except OSError:  # the process has exited
        return 0.0
    return total + sum(tree_cpu_seconds(child) for child in children)


def pin_to_one_cpu() -> int:
    """Restrict this process (and children forked later) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
