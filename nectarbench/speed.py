"""Host-speed probe: how fast this vCPU runs Python, while the program runs.

On a shared host the same sample's time swings by a quarter or more
within minutes: another tenant's load slows a vCPU by up to ~1.5x and
flips on and off many times a second, with slower phases lasting longer
than a benchmark run.  A calibration run before or after a sample misses
those flips.  So the probe measures *during* the sample instead: every
few milliseconds of process CPU time, ``SIGPROF`` interrupts the program
between two bytecodes and times a fixed pure-Python kernel (a few tens
of microseconds, well under 1% of the run).  The mean kernel time over
an interval says how fast the host ran the program in that interval,
and dividing host seconds by it gives seconds at a fixed reference
speed (:data:`REFERENCE_S` per kernel), which a program change moves
and host drift does not.

Forked workers re-arm the probe and write into their own region of an
anonymous shared mapping, so a scale-out sample's probes cover every
process that did its work.  Each probe also stamps its process's CPU
clock, from which :meth:`SpeedProbe.critical_s` gives an interval's
critical-path CPU seconds: what the interval would take if every
process had a CPU of its own.  Host time does not give that on a shared
host: another tenant holding one of two vCPUs leaves the two scale-out
workers one CPU between them, and their drive then takes ~1.4x as long
while each probe still runs at full speed.  The kernel allocates no
container objects, so it does not move the program's garbage
collections.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time

#: Kernel time that defines the reference speed: the kernel's time on a
#: lightly loaded vCPU of the 2-vCPU Xeon VM this benchmark was tuned
#: on, with CPython 3.11, while the simulator runs around it.
REFERENCE_S = 30e-6
#: Probe period, in seconds of process CPU time.
PERIOD_S = 0.005
#: Share of the slowest probes dropped: a probe the OS preempted
#: measures the preemption, not the vCPU's speed.
TRIM = 0.05

_ENTRY = struct.Struct("=ddd")  # monotonic time, process CPU, kernel s
_PER_PROCESS = 16384
_PROCESSES = 8

_TABLE = [0] * 64


def _kernel() -> None:
    table = _TABLE
    for i in range(400):
        table[i & 63] = (table[(i * 7) & 63] + i) & 255


def _cpu_at(stamps: list[tuple[float, float]], when: float) -> float:
    """Process CPU seconds at monotonic time ``when``, from its stamps."""
    earlier = None
    for stamp in stamps:
        if stamp[0] > when:
            if earlier is None:
                return 0.0
            share = (when - earlier[0]) / (stamp[0] - earlier[0])
            return earlier[1] + (stamp[1] - earlier[1]) * share
        earlier = stamp
    return earlier[1] if earlier else 0.0


class SpeedProbe:
    """Times the probe kernel on ``SIGPROF`` until :meth:`stop`."""

    def __init__(self) -> None:
        self.shared = mmap.mmap(-1, _ENTRY.size * _PER_PROCESS * _PROCESSES)
        self.counts = mmap.mmap(-1, 8 * _PROCESSES)
        self.next_slot = 0
        self.slot = 0
        self.written = 0
        os.register_at_fork(before=self._before_fork,
                            after_in_child=self._in_child)
        signal.signal(signal.SIGPROF, self._probe)
        self._arm()

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _before_fork(self) -> None:
        self.next_slot = min(self.next_slot + 1, _PROCESSES - 1)

    def _in_child(self) -> None:
        # Interval timers are not inherited across fork; re-arm.
        self.slot = self.next_slot
        self.written = 0
        self._arm()

    def _probe(self, _signum, _frame) -> None:
        if self.written >= _PER_PROCESS:
            return
        start = time.perf_counter()
        _kernel()
        spent = time.perf_counter() - start
        offset = (self.slot * _PER_PROCESS + self.written) * _ENTRY.size
        _ENTRY.pack_into(self.shared, offset,
                         time.clock_gettime(time.CLOCK_MONOTONIC),
                         time.process_time(), spent)
        self.written += 1
        struct.pack_into("=q", self.counts, self.slot * 8, self.written)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # A last stamp, so this process's CPU is known up to now.
        self._probe(None, None)

    def _entries(self, slot: int):
        (count,) = struct.unpack_from("=q", self.counts, slot * 8)
        base = slot * _PER_PROCESS
        for index in range(count):
            yield _ENTRY.unpack_from(self.shared,
                                     (base + index) * _ENTRY.size)

    def probes(self, start: float = 0.0,
               end: float = float("inf")) -> list[float]:
        """Kernel times of every process's probes within ``[start, end)``."""
        return [spent for slot in range(_PROCESSES)
                for when, _cpu, spent in self._entries(slot)
                if start <= when < end]

    def cpu_seconds(self, start: float, end: float) -> list[float]:
        """Each process's CPU seconds within ``[start, end)``, by slot.

        Read from the CPU clock the probes stamp, interpolated between
        the probes either side of each bound.  A process's clock starts
        at zero when it is created, so CPU before its first probe counts.
        """
        spent = []
        for slot in range(_PROCESSES):
            stamps = [(when, cpu) for when, cpu, _kernel_s
                      in self._entries(slot)]
            spent.append(max(_cpu_at(stamps, end) - _cpu_at(stamps, start),
                             0.0))
        return spent

    def critical_s(self, start: float, end: float) -> float:
        """CPU seconds on the critical path of ``[start, end)``.

        The first process's CPU plus the busiest forked worker's: workers
        run side by side, and the parent's work falls between their
        rounds.  Unlike host time, this does not grow when another
        tenant leaves the workers fewer CPUs than there are workers.
        """
        own, *workers = self.cpu_seconds(start, end)
        return own + max(workers, default=0.0)

    def scale(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Host seconds to reference seconds, for ``[start, end)``."""
        found = sorted(self.probes(start, end))
        if not found:
            return 1.0
        kept = found[:max(1, int(len(found) * (1 - TRIM)))]
        return REFERENCE_S / (sum(kept) / len(kept))
