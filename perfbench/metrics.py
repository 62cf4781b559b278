"""Metric math for the serving benchmark: percentiles, due-time latency, outcomes.

Pure functions and small records only (no program imports), so the rules
that turn raw timings into reported numbers are unit-tested on their own
(``perfbench/tests/test_metrics.py``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

#: a reported tail percentile must have at least this many samples beyond it
TAIL_SAMPLES_BEYOND = 10

#: every reason a sent operation can fail; anything else is a bug in the benchmark
FAILURE_REASONS = ("deadline", "error", "wrong_output", "unresolved")


def supported_percentile(count: int, wanted: float = 99.0) -> float:
    """Highest percentile ``<= wanted`` with ``TAIL_SAMPLES_BEYOND`` samples beyond it.

    With ``count`` samples, percentile ``p`` has ``count * (1 - p/100)``
    samples beyond it, so the bound is ``p <= 100 * (1 - 10/count)``.  When
    even the median lacks ten samples beyond it the tail collapses onto the
    median (50), which the report states alongside the sample count.
    """
    if count <= 0:
        return 50.0
    bound = 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / count)
    return max(50.0, min(wanted, bound))


@dataclass(frozen=True)
class LatencySummary:
    """Median and the supported tail of one latency sample, in milliseconds."""

    p50_ms: float
    tail_ms: float
    tail_pct: float
    count: int


def summarize_ms(values_s: Sequence[float], wanted: float = 99.0) -> LatencySummary:
    """Summarize latencies given in seconds; NaN values for an empty sample."""
    count = len(values_s)
    pct = supported_percentile(count, wanted)
    if count == 0:
        return LatencySummary(math.nan, math.nan, pct, 0)
    p50, tail = np.percentile(np.asarray(values_s, dtype=np.float64) * 1e3, [50.0, pct])
    return LatencySummary(float(p50), float(tail), pct, count)


def due_latencies(due_s: Sequence[float], done_s: Sequence[Optional[float]]) -> List[float]:
    """Latency of each finished operation measured from when it was *due*.

    Timing from the due time rather than the send time charges a generator
    stall to every request it delayed (coordinated omission).  Operations
    that never finished (``done is None``) are left out here; the caller
    counts them as failed.
    """
    return [done - due for due, done in zip(due_s, done_s) if done is not None]


@dataclass
class Outcomes:
    """Attempted / succeeded / failed counts with failures broken down by reason."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)

    def fail(self, reason: str, count: int = 1) -> None:
        """Record ``count`` failed operations under ``reason``."""
        if reason not in FAILURE_REASONS:
            raise ValueError(f"unknown failure reason {reason!r}")
        if count:
            self.failures[reason] += count

    @property
    def failed(self) -> int:
        """Operations that failed for any reason."""
        return sum(self.failures.values())

    @property
    def succeeded(self) -> int:
        """Operations that produced a verified result."""
        return self.attempted - self.failed

    @property
    def error_rate(self) -> float:
        """Failed over attempted (0 when nothing was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other: "Outcomes") -> "Outcomes":
        """Sum of two accounts."""
        return Outcomes(self.attempted + other.attempted, self.failures + other.failures)

    def describe(self) -> str:
        """One line: attempted/succeeded/failed plus the non-zero reasons."""
        reasons = ", ".join(f"{r}={self.failures[r]}" for r in FAILURE_REASONS if self.failures[r])
        return (
            f"attempted {self.attempted}, succeeded {self.succeeded}, failed {self.failed}"
            + (f" ({reasons})" if reasons else "")
        )


def relative_ok(got: np.ndarray, expected: np.ndarray, rtol: float) -> np.ndarray:
    """Per-row check of score rows against the reference.

    A row passes when every score is within ``rtol`` of the row's largest
    reference magnitude and its argmax agrees — unless the reference's own
    top two scores are closer than that tolerance, where a reordered
    float sum may legitimately swap them.
    """
    got = np.asarray(got, dtype=np.float64).reshape(len(expected), -1)
    expected = np.asarray(expected, dtype=np.float64).reshape(len(expected), -1)
    scale = np.maximum(np.abs(expected).max(axis=1), np.finfo(np.float32).tiny)
    tol = rtol * scale
    close = (np.abs(got - expected) <= tol[:, None]).all(axis=1)
    top2 = np.sort(expected, axis=1)[:, -2:] if expected.shape[1] > 1 else None
    tie = (top2[:, 1] - top2[:, 0] <= tol) if top2 is not None else np.zeros(len(got), bool)
    same_label = np.argmax(got, axis=1) == np.argmax(expected, axis=1)
    return close & (same_label | tie)

