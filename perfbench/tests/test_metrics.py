"""Tests of the benchmark's metric math (no program code involved).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from metrics import (  # noqa: E402
    Outcomes,
    due_latencies,
    relative_ok,
    summarize_ms,
    supported_percentile,
)


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, 50.0),
        (15, 50.0),  # not even the median has ten samples beyond it
        (20, 50.0),
        (100, 90.0),
        (500, 98.0),
        (1000, 99.0),  # exactly ten beyond p99
        (5000, 99.0),  # never above the wanted percentile
    ],
)
def test_supported_percentile_keeps_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == pytest.approx(expected)


def test_supported_percentile_always_leaves_ten_beyond():
    for count in range(20, 3000, 7):
        pct = supported_percentile(count)
        assert count * (1 - pct / 100) >= 10 - 1e-9


def test_summary_reports_the_supported_tail_and_count():
    values = np.arange(1, 101) / 1e3  # 1..100 ms
    summary = summarize_ms(values)
    assert summary.count == 100
    assert summary.tail_pct == pytest.approx(90.0)
    assert summary.p50_ms == pytest.approx(50.5)
    assert summary.tail_ms == pytest.approx(np.percentile(np.arange(1, 101), 90))


def test_summary_of_nothing_is_nan():
    summary = summarize_ms([])
    assert summary.count == 0 and math.isnan(summary.p50_ms) and math.isnan(summary.tail_ms)


def test_due_latency_charges_generator_stalls():
    # the generator stalled 40 ms before sending the second request: timing
    # from the due time counts that wait, timing from the send would not
    due = [0.000, 0.010, 0.020]
    sent = [0.000, 0.050, 0.051]
    done = [0.005, 0.055, None]
    latencies = due_latencies(due, done)
    assert latencies == pytest.approx([0.005, 0.045])
    assert due_latencies(sent, done) == pytest.approx([0.005, 0.005])


def test_outcomes_count_every_failure_reason():
    outcomes = Outcomes(attempted=10)
    outcomes.fail("error", 2)
    outcomes.fail("wrong_output")
    outcomes.fail("deadline", 0)
    assert outcomes.failed == 3
    assert outcomes.succeeded == 7
    assert outcomes.error_rate == pytest.approx(0.3)
    assert "error=2" in outcomes.describe() and "deadline" not in outcomes.describe()
    merged = outcomes.merge(Outcomes(attempted=5))
    assert (merged.attempted, merged.failed) == (15, 3)
    with pytest.raises(ValueError):
        outcomes.fail("tired")


def test_error_rate_of_nothing_attempted_is_zero():
    assert Outcomes().error_rate == 0.0


def test_relative_ok_passes_reordered_sums_and_catches_wrong_rows():
    rng = np.random.default_rng(0)
    expected = rng.standard_normal((64, 12)).astype(np.float32)
    reordered = expected * (1 + rng.uniform(-1e-6, 1e-6, expected.shape)).astype(np.float32)
    assert relative_ok(reordered, expected, 1e-4).all()
    wrong = expected.copy()
    wrong[3] = rng.standard_normal(12)
    ok = relative_ok(wrong, expected, 1e-4)
    assert not ok[3] and ok.sum() == 63


def test_relative_ok_tolerates_a_swapped_near_tie_only():
    expected = np.array([[1.0, 1.0 - 1e-6, 0.0]])
    swapped = np.array([[1.0 - 1e-6, 1.0, 0.0]])
    assert relative_ok(swapped, expected, 1e-4).all()
    clear = np.array([[1.0, 0.5, 0.0]])
    flipped = np.array([[0.5, 1.0, 0.0]])
    assert not relative_ok(flipped, clear, 1e-4).any()
