import time

import pytest

from reference import KERNELS, NEAR, Clock

NOMINAL = KERNELS["match_map"][1]


def clock_with(samples):
    """A clock whose kernel samples are the given (start, slowdown) pairs."""
    clock = Clock("match_map")
    clock.starts = [start for start, _ in samples]
    clock.durations = [slowdown * NOMINAL for _, slowdown in samples]
    return clock


def test_scale_uses_the_median_sample_taken_during_the_operation():
    clock = clock_with([(float(t), 2.0) for t in range(10)]
                       + [(t, 4.0) for t in (10.5, 11.0, 11.5, 12.0)]
                       + [(float(t), 1.0) for t in range(13, 20)])
    # the samples in [10, 12] read 4x the nominal time, so does the operation
    assert clock.scale(10.0, 12.0, 8.0) == pytest.approx(2.0)


def test_scale_uses_the_samples_next_to_a_short_operation():
    clock = clock_with([(-100.0, 100.0)]
                       + [(float(t), 1.0) for t in range(NEAR)]
                       + [(float(t), 3.0) for t in range(NEAR, 2 * NEAR)]
                       + [(100.0, 100.0)])
    # no sample in the operation: NEAR on either side, median 2x
    assert clock.scale(NEAR - 0.8, NEAR - 0.7, 1.0) == pytest.approx(0.5)


def test_running_clock_samples_on_its_timer_and_counts_its_time():
    clock = Clock("match_map")
    with clock.running():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(clock.starts) >= 3
    assert clock.starts == sorted(clock.starts)
    assert 0.0 < clock.spent < 0.3
