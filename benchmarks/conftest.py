"""Shared fixtures for the benchmark harness.

Every experiment of DESIGN.md (E1-E9) has a ``bench_*.py`` file here; running

    pytest benchmarks/ --benchmark-only

regenerates the timing series, and each benchmark asserts the paper's claim
(shape of the result) on the measured workload.
"""

from __future__ import annotations


def pytest_configure(config):
    # Benchmarks are long-running by nature; keep the calibration modest so the
    # whole harness finishes in minutes.
    config.option.benchmark_min_rounds = min(getattr(config.option, "benchmark_min_rounds", 5), 3)
