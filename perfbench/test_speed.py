"""The sampler scales host seconds to the reference speed and leaves the
process's signal handling as it found it.

    python3 -m pytest perfbench -q
"""

import signal
import time

import pytest

import speed


def test_scaled_removes_probe_time_and_applies_the_speed_ratio():
    s = speed.SpeedSampler()
    s.samples = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    s.probe_s = 1.0
    assert s.scaled(5.0) == pytest.approx(2.0)


def test_sampler_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    s = speed.SpeedSampler()
    s.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    s.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(s.samples) >= 5
    assert 0 < s.probe_s < 0.3
