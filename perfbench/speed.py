"""The speed of the benchmark's core, measured beside the program, so that
the program's times can be given at one fixed speed.

On a shared host the speed of a core swings by up to 2x within seconds, as
other tenants load its sibling, and two cores swing independently of each
other.  So ``Speed`` pins the benchmark (and every child it starts) to one
core, and starts a reference process pinned to the same core at a low
priority, which does fixed units of work until the benchmark ends and
publishes its count through a small memory-mapped file.  The
scheduler interleaves the two every few milliseconds, so both run at the
same speed.  Over an interval, the reference's units per CPU second give
that speed; the program's CPU time over the interval, times the speed and
divided by ``NOMINAL_UNITS_PER_S``, is its time at the nominal speed (close
to the typical speed of a core of a shared 2-core Xeon host).
"""
from __future__ import annotations

import math
import mmap
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import integrate

# units of reference work per CPU second at the nominal speed: a fixed
# constant, so that times from different runs and commits compare
NOMINAL_UNITS_PER_S = 10000.0
NICE = 10  # the reference then gets about a tenth of the core
MIN_REF_CPU_S = 0.02  # shorter windows take the speed since the start

_X = np.linspace(0.01, 4.0, 64)


def unit() -> float:
    """One unit of reference work, in the program's three kinds: scipy
    ``quad`` over a Python integrand, numpy on short arrays, and Python
    float arithmetic."""
    v, _ = integrate.quad(lambda s: math.exp(-s * s) * math.sqrt(s), 0.0, 2.0)
    v += float(np.sum(np.exp(-_X) * _X ** 1.5))
    for i in range(64):
        v += math.exp(-i * 1e-2)
    return v


def _map(path: Path) -> tuple:
    """The shared counters in ``path``: [reference CPU s, units done]."""
    with open(path, "r+b") as fh:
        mm = mmap.mmap(fh.fileno(), 16)
    return mm, np.frombuffer(mm, dtype=np.float64)


def _reference(path: Path, parent: int) -> None:
    os.nice(NICE)
    _, shared = _map(path)
    while os.getppid() == parent:  # ends also when the benchmark is killed
        unit()
        shared[0] = time.thread_time()
        shared[1] += 1.0


class Speed:
    """Context manager: pins this process to one core and runs the
    reference beside it; ``snap()`` marks an instant, ``scale()`` turns CPU
    seconds between two marks into seconds at the nominal speed.  The
    counters live in a file under ``out_dir``, removed on exit."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / f"speed-{os.getpid()}.bin"

    def __enter__(self) -> "Speed":
        self.core = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.core})  # children inherit the core
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_bytes(bytes(16))
        self._mm, self._shared = _map(self.path)
        self._proc = subprocess.Popen([sys.executable, __file__,
                                       str(self.path), str(os.getpid())])
        try:
            while self._shared[0] < MIN_REF_CPU_S:
                if self._proc.poll() is not None:
                    raise RuntimeError("the speed reference process exited")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        self.start = self.snap()
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(5.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self.path.unlink(missing_ok=True)

    def snap(self) -> tuple[float, float]:
        units = self._shared[1]
        return units, self._shared[0]

    def factor(self, a: tuple, b: tuple) -> float:
        """Speed over [a, b] relative to the nominal one."""
        if b[1] - a[1] < MIN_REF_CPU_S:
            a = self.start
        return (b[0] - a[0]) / (b[1] - a[1]) / NOMINAL_UNITS_PER_S

    def scale(self, cpu_s: float, a: tuple, b: tuple) -> float:
        return cpu_s * self.factor(a, b)


if __name__ == "__main__":
    _reference(Path(sys.argv[1]), int(sys.argv[2]))
