"""Host-speed probe: a small process that keeps timing a fixed loop.

On a shared machine the whole host slows down and speeds up, for minutes
at a time, by up to about 1.6x; an op's wall time follows.  The probe runs
next to the timed ops and every ``INTERVAL_S`` times ``LOOPS`` iterations
of a pure-Python loop in its own thread CPU time, so time spent waiting
for a CPU does not count, only how fast the CPU runs when it has one.  It
runs under ``SCHED_IDLE``: it only gets a CPU the benchmark leaves idle,
so it never takes CPU time from the program or shares a CPU with it,
and its readings do not depend on how the program uses the CPUs.  :meth:`HostSpeedProbe.loop_cpu_s` gives the
median loop time over an interval; ``run.py`` rescales the wall time of
set-up and of each op by it.

Run as a script it is the probe itself: it writes one line per sample,
``<start> <end> <cpu seconds>`` with ``time.monotonic`` stamps, and exits
when its reader goes away.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOOPS = 30_000
INTERVAL_S = 0.04
#: Fewest samples an interval's figure is taken from; an interval shorter
#: than that many samples uses the samples nearest to it.
MIN_SAMPLES = 3
START_TIMEOUT_S = 10.0


def sample() -> tuple[float, float, float]:
    start, cpu0 = time.monotonic(), time.thread_time()
    total = 0
    for i in range(LOOPS):
        total += i
    return start, time.monotonic(), time.thread_time() - cpu0


def main() -> int:
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    out = sys.stdout.buffer
    try:
        while True:
            start, end, cpu = sample()
            out.write(f"{start} {end} {cpu}\n".encode())
            out.flush()
            time.sleep(INTERVAL_S)
    except (BrokenPipeError, KeyboardInterrupt):
        return 0


class HostSpeedProbe:
    """The probe process, as a context manager that stops and waits for it."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._tail = b""
        self.started = time.monotonic()
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )

    def _read(self, timeout: float = 0.0) -> None:
        pipe = self._process.stdout
        while select.select([pipe], [], [], timeout)[0]:
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            self._tail += chunk
            timeout = 0.0
        *lines, self._tail = self._tail.split(b"\n")
        self.samples += [tuple(map(float, line.split())) for line in lines]

    def loop_cpu_s(self, start: float, end: float) -> float:
        """Median loop CPU time of the samples taken within [start, end]."""
        self._read()
        deadline = time.monotonic() + START_TIMEOUT_S
        while len(self.samples) < MIN_SAMPLES:
            if time.monotonic() > deadline or self._process.poll() is not None:
                raise RuntimeError("the host-speed probe stopped sampling")
            self._read(timeout=0.1)
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            inside = sorted(self.samples, key=lambda s: abs(s[0] + s[1] - 2 * mid))
            inside = inside[:MIN_SAMPLES]
        return statistics.median(s[2] for s in inside)

    def close(self) -> None:
        if self._process.poll() is None:
            self._process.terminate()
        self._process.wait()
        self._process.stdout.close()

    def __enter__(self) -> "HostSpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    sys.exit(main())
