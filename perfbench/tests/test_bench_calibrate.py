"""Scaling times to the reference machine speed."""

import pytest

import calibrate


def test_times_scale_with_the_calibration_around_them():
    slow = [2 * calibrate.REF_S, 2 * calibrate.REF_S]
    assert calibrate.at_reference_speed(6.0, slow) == pytest.approx(3.0)
    mixed = [calibrate.REF_S, 3 * calibrate.REF_S]
    assert calibrate.at_reference_speed(6.0, mixed) == pytest.approx(3.0)
    assert calibrate.at_reference_speed(6.0, [calibrate.REF_S]) == pytest.approx(6.0)


def test_calibration_times_its_fixed_work():
    first = calibrate.calibrate()
    assert 0 < first < 60
