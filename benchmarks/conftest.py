"""Benchmark harness helpers.

Every benchmark regenerates one table or figure of the paper.  Besides
pytest-benchmark's timing output, each bench *prints* the regenerated
rows (run with ``-s`` to see them inline) and appends them to
``benchmarks/results.txt`` so a full run leaves a complete artifact.
"""

import os
import random

import pytest

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")

#: One seed for every benchmark's RNG use: randomized rule bases and
#: workload synthesis must be reproducible run-to-run.
RNG_SEED = 0x5F1ED


def pin_seeds():
    """(Re)seed every RNG a benchmark might consume."""
    random.seed(RNG_SEED)


@pytest.fixture(autouse=True)
def _pinned_rng():
    """Pin the global RNG before every benchmark test."""
    pin_seeds()
    yield


def _append_results(text):
    with open(RESULTS_PATH, "a") as fh:
        fh.write(text + "\n\n")


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    if os.path.exists(RESULTS_PATH):
        os.remove(RESULTS_PATH)
    yield


@pytest.fixture
def emit():
    """Print a rendered table and persist it to the results artifact."""

    def _emit(text):
        print()
        print(text)
        _append_results(text)

    return _emit


@pytest.fixture
def run_once(benchmark):
    """Run an expensive table-producing function exactly once under
    pytest-benchmark (no auto-calibration re-runs)."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)

    return _run
