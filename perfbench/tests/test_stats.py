"""The percentile rule and seed derivation."""

import math

import pytest

from perfbench.common import derive_seed, percentile, supported_percentile, tail


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 95) == 5
    assert percentile(range(101), 95) == 95


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_failed_requests_make_the_tail_infinite_not_nan():
    samples = [1.0] * 18 + [math.inf] * 2
    assert percentile(samples, 50) == 1.0
    assert percentile(samples, 100) == math.inf
    assert percentile(samples, 95) == math.inf
    assert not math.isnan(percentile(samples, 92))


@pytest.mark.parametrize(
    "n, expected", [(200, 95.0), (1000, 99.0), (20, 50.0), (10, 0.0), (9, 0.0)]
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == pytest.approx(expected)


def test_tail_reports_whether_p95_is_supported():
    assert tail([float(i) for i in range(200)])["supported"]
    thin = tail([float(i) for i in range(199)])
    assert not thin["supported"]
    assert thin["samples"] == 199
    assert thin["max_supported_q"] < 95


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(7, "noise", 3) == derive_seed(7, "noise", 3)
    assert derive_seed(7, "noise", 3) != derive_seed(8, "noise", 3)
    assert derive_seed(7, "noise", 3) != derive_seed(7, "noise", 4)
    assert 0 <= derive_seed(7, "x") < 2**63


def test_times_scale_to_reference_speed_by_the_median_calibration():
    from perfbench.common import REFERENCE_CALIBRATION_S as ref
    from perfbench.common import at_reference_speed

    assert at_reference_speed(2.0, [ref, ref]) == 2.0
    # A host running the loop twice as slow reports half its wall time.
    assert at_reference_speed(2.0, [2 * ref, 2 * ref, 9 * ref]) == 1.0
