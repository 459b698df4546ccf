"""Unit fixtures for the kernel bench gate — synthetic payloads, no
actual benchmarking, so these run in milliseconds inside tier-1.

The contract pinned is the **calibration-relative dispatch floor**:
events/sec divided by the machine-speed calibration figure must be at
least ``DISPATCH_MIN_SPEEDUP`` times the committed baseline's same
ratio — so host speed cancels out of the ≥2x claim in both directions.
"""

from __future__ import annotations

from repro.experiments.bench import DISPATCH_MIN_SPEEDUP, check_regression

BASELINE = {
    "name": "kernel",
    "source": "in-process",
    "events_per_sec": 1_000_000.0,
    "events_per_sec_public_schedule": 600_000.0,
    "calibration_ops_per_sec": 25_000_000.0,
}


def _current(events_per_sec: float, calibration: float = 25_000_000.0):
    return {
        "name": "kernel",
        "source": "in-process",
        "events_per_sec": events_per_sec,
        "events_per_sec_public_schedule": events_per_sec * 0.6,
        "calibration_ops_per_sec": calibration,
    }


def test_dispatch_floor_passes_at_2x():
    assert check_regression(_current(2_600_000.0), BASELINE) == []


def test_dispatch_floor_fails_below_2x():
    failures = check_regression(_current(1_500_000.0), BASELINE)
    assert any("dispatch speedup" in f for f in failures)
    assert any(f"{DISPATCH_MIN_SPEEDUP:.1f}x" in f for f in failures)


def test_dispatch_floor_is_calibration_relative():
    # A 2x-slower host: raw 1.4M ev/s is under 2x the baseline's 1.0M,
    # but the host's calibration halved too — the normalised ratio is
    # 2.8x and must pass.  The raw 20% floor passes as well (1.4M > 800k).
    slow_host = _current(1_400_000.0, calibration=12_500_000.0)
    assert check_regression(slow_host, BASELINE) == []
    # A 2x-faster host cannot hide a regressed loop: raw 2.6M clears the
    # naive 2x, but normalised it is only 1.3x.
    fast_host = _current(2_600_000.0, calibration=50_000_000.0)
    failures = check_regression(fast_host, BASELINE)
    assert any("dispatch speedup" in f for f in failures)


def test_dispatch_floor_skips_without_calibration_figures():
    baseline = {k: v for k, v in BASELINE.items()
                if k != "calibration_ops_per_sec"}
    # Identity/tolerance gating still applies; the speedup floor cannot.
    assert check_regression(_current(2_600_000.0), baseline) == []


def test_gate_skips_unlike_sources():
    other = dict(BASELINE, source="pytest-benchmark")
    assert check_regression(_current(100.0), other) == []


def test_tolerance_floor_still_fires():
    failures = check_regression(_current(700_000.0), BASELINE)
    assert any("events_per_sec" in f and "below the committed baseline" in f
               for f in failures)

