"""Checks of the benchmark's arithmetic on synthetic inputs.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import math

import pytest

from benchmath import (
    dedup_ratio,
    hit_ratio,
    host_normalised,
    idle_frac,
    kept_ratio,
    scaleout_eff,
    self_times,
    tail_percentile,
)


def test_tail_needs_more_samples_than_beyond():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([]) is None


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]  # 1..100, unsorted
    percentile, value, n = tail_percentile(samples)
    assert (percentile, value, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10


def test_tail_of_eleven_samples_is_the_smallest():
    percentile, value, n = tail_percentile([float(v) for v in range(11)])
    assert value == 0.0 and n == 11
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_of_a_thousand_samples_is_p99():
    percentile, value, _ = tail_percentile([float(v) for v in range(1000)])
    assert percentile == 99.0 and value == 989.0


def test_self_time_of_a_leaf_is_its_duration():
    out = self_times([("leaf", 3.0, 2.0)])
    assert out["leaf"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    spans = [
        ("a", 3.0, 2.0),
        ("c", 6.0, 1.0),
        ("b", 8.0, 4.0),
        ("root", 10.0, 10.0),
    ]
    out = self_times(spans)
    assert out["a"]["self_s"] == 2.0
    assert out["c"]["self_s"] == 1.0
    assert out["b"]["self_s"] == 3.0  # 4 minus c's 1
    assert out["root"]["self_s"] == 4.0  # 10 minus a's 2 and b's 4


def test_self_time_leaves_earlier_siblings_to_the_parent():
    # Two roots in sequence: the first root's child must not be charged
    # to the second root.
    spans = [
        ("child", 2.0, 1.0),
        ("root", 3.0, 3.0),
        ("root", 7.0, 3.0),
    ]
    out = self_times(spans)
    assert out["root"]["calls"] == 2
    assert out["root"]["total_s"] == 6.0
    assert out["root"]["self_s"] == 5.0


def test_self_time_counts_overlapping_children_once():
    # Children clipped to the parent and merged before subtracting: a
    # child reaching past the parent's start only covers the overlap.
    spans = [
        ("x", 2.0, 2.0),   # [0, 2]
        ("y", 5.0, 2.0),   # [3, 5]
        ("p", 6.0, 5.0),   # [1, 6]: x covers [1, 2], y covers [3, 5]
    ]
    assert self_times(spans)["p"]["self_s"] == pytest.approx(2.0)


def test_self_time_accumulates_repeated_calls():
    spans = [("g", float(i + 1), 0.5) for i in range(4)]
    out = self_times(spans)
    assert out["g"]["calls"] == 4
    assert out["g"]["self_s"] == 2.0


def test_hit_ratio():
    assert hit_ratio(24, 100) == 0.24
    assert hit_ratio(0, 0) == 0.0


def test_kept_ratio():
    # 10 performed actions, 7 of them replayed as the kept prefix.
    assert kept_ratio(17, 10) == 0.7
    assert kept_ratio(0, 0) == 0.0


def test_idle_frac():
    # Two workers busy 6 s of a 4 s session: 8 s capacity, 2 s idle.
    assert idle_frac(6.0, 2, 4.0) == 0.25
    assert idle_frac(8.0, 2, 4.0) == 0.0


def test_scaleout_eff():
    assert scaleout_eff([2.0, 2.0, 2.0, 2.0], 2, 5.0) == 0.8
    assert math.isclose(scaleout_eff([3.0], 1, 3.0), 1.0)


def test_dedup_ratio():
    assert dedup_ratio(3, 12) == 0.25
    assert dedup_ratio(0, 0) == 0.0


def test_host_normalised_cancels_a_uniform_slowdown():
    walls, probes = [4.0, 5.0, 6.0], [0.5, 0.6, 0.7]
    base = host_normalised(walls, probes, 0.6)
    slow = host_normalised([w * 1.5 for w in walls], [p * 1.5 for p in probes], 0.6)
    assert slow == pytest.approx(base)


def test_host_normalised_follows_the_program():
    walls, probes = [4.0, 5.0, 6.0], [0.5, 0.6, 0.7]
    faster = host_normalised([w * 0.8 for w in walls], probes, 0.6)
    assert faster == pytest.approx(0.8 * host_normalised(walls, probes, 0.6))


def test_host_normalised_at_reference_speed_is_the_geomean():
    assert host_normalised([2.0, 8.0], [0.6, 0.6], 0.6) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        host_normalised([1.0], [], 0.6)
