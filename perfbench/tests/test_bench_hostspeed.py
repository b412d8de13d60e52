"""Scaling measured times to the nominal host speed."""

import pytest

import hostspeed


def test_factor_is_nominal_over_median_reference():
    ref = hostspeed.REF_S
    assert hostspeed.factor([ref]) == pytest.approx(1.0)
    # a host twice as slow halves every time it reports
    assert hostspeed.factor([2 * ref, 2 * ref, 9 * ref]) == pytest.approx(0.5)


def test_sample_times_each_rep():
    samples = hostspeed.sample(2)
    assert len(samples) == 2
    assert all(t > 0 for t in samples)


def test_reference_task_is_fixed_work():
    assert hostspeed.reference_task() == hostspeed.reference_task() == 3000
