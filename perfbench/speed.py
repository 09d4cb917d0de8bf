"""In-process sampler of how fast the machine runs while a round is timed.

The host this benchmark was built on runs the same code up to 1.6 times
slower for seconds to minutes at a time, because of load outside the
benchmark's process. ``SpeedSampler`` interrupts the timed code every
``INTERVAL_S`` with ``SIGALRM`` and runs a fixed piece of standard-library
work (a 256-bit modular exponentiation, a SHA-256 chain, dictionary updates)
twice; the second run, with warm caches, is one sample of the machine's
current speed. The probe uses nothing from the package, so no change to the
program moves it.

``scaled`` turns host seconds into seconds at the reference speed: the host
seconds less the time spent in the probes, times ``REFERENCE_S`` over the
mean sample. Over a round of several seconds the mean sample follows the
machine's speed closely, so scaled times repeat far better than host times.
"""

from __future__ import annotations

import hashlib
import signal
import time

INTERVAL_S = 0.025
# typical warm probe on the reference host (2-vCPU KVM guest, Intel Xeon at
# 2.1 GHz nominal, CPython 3.11.7). A constant: changing it rescales every
# time the benchmark reports.
REFERENCE_S = 230e-6

_P = 2**255 - 19
_E = 3**160


def _probe() -> None:
    pow(7, _E, _P)
    h = b"probe"
    for _ in range(50):
        h = hashlib.sha256(h).digest()
    table = {}
    for i in range(100):
        table[i] = i * i


class SpeedSampler:
    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0  # host seconds spent in the sampler itself
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        _probe()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.probe_s += t2 - t0

    def start(self) -> None:
        """Forget earlier samples, take one now and one every INTERVAL_S."""
        self.samples.clear()
        self.probe_s = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, host_s: float) -> float:
        """``host_s``, measured since ``start``, at the reference speed."""
        mean = sum(self.samples) / len(self.samples)
        return (host_s - self.probe_s) * REFERENCE_S / mean
