"""CPU speed sampled while the workload runs, to scale its times to a
reference speed.

The benchmark was written on a 2-vCPU virtual machine whose CPUs change
speed by up to 2x for seconds to minutes at a time, as other tenants load
the host: the same command took anywhere from 8 to 12 s, and its CPU time
moved with it. A fixed probe kernel slows down by nearly the same factor, so a
background thread runs one every PERIOD_S and records its CPU time
(``thread_time``, so waiting for the CPU or the interpreter lock does not
count). An interval of the workload is scaled by REFERENCE_KERNEL_S over
the mean kernel time sampled inside it. On that machine this cut the
coefficient of variation of one command's time over repeats from 10% to 3%.

The kernel uses numpy alone, never the package, so a change to the package
cannot move the yardstick. The process must be pinned to one CPU, so the
kernel measures the CPU the workload runs on; the thread costs the
workload about 2% of that CPU, the same on every commit.
"""

from __future__ import annotations

import statistics
import threading
import time
import tracemalloc

import numpy as np

PERIOD_S = 0.05
#: kernel CPU time on the machine above while its host was quiet, so that
#: scaled times read as wall seconds on a quiet host
REFERENCE_KERNEL_S = 4.5e-4


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._g = rng.standard_normal((64, 3, 3)) + 1j * rng.standard_normal((64, 3, 3))
        self._phi = rng.standard_normal((64, 3)) + 0j
        self._d = 1e-3 * (rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3)))
        self.samples = []  # (perf_counter at the end, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _kernel(self):
        p = self._phi
        for _ in range(40):
            p = np.exp(self._d) * (p + 1e-3 * np.einsum("kij,kj->ki", self._g, p))

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            if tracemalloc.is_tracing():  # the tracer's allocation hooks would slow the kernel
                continue
            t0 = time.thread_time()
            self._kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Factor turning seconds measured in [t0, t1] into seconds at the
        reference speed. An interval too short to hold a sample uses the
        first sample taken after it started."""
        inside = [d for ts, d in list(self.samples) if t0 <= ts <= t1]
        while not inside:
            time.sleep(PERIOD_S / 5)
            inside = [d for ts, d in list(self.samples) if ts >= t0][:1]
        return REFERENCE_KERNEL_S / statistics.fmean(inside)
