"""Shared pytest fixtures and the per-test timeout watchdog."""

from __future__ import annotations

import os
import signal
import sys
import threading

import numpy as np
import pytest

from repro import (
    ClusterDistributionConfig,
    DataDistribution,
    generate_cluster_values,
)

sys.path.insert(0, os.path.dirname(__file__))  # for `import lockcheck`

from lockcheck import LockOrderMonitor  # noqa: E402

#: Modules whose tests run under the dynamic lock-order monitor.  These are
#: the suites that exercise real cross-thread store/cluster interleavings;
#: wrapping everything else would only slow the tier-1 run down.
LOCKCHECK_MODULES = frozenset(
    {
        "test_service_concurrency",
        "test_ingest_lifecycle",
        "test_cluster_properties",
        "test_replication_properties",
        "test_fault_injection",
        "test_spawned_cluster",
        "test_obs",
        "test_profile",
        "test_transport",
        "test_cluster_coordinator",
        "test_cluster_server",
        "test_http_edge",
        "test_held_views",
    }
)

#: Default per-test watchdog.  Generous -- its job is to turn a deadlocked
#: failover/concurrency test into a fast, attributable failure instead of a
#: hung CI job, not to police slow-but-progressing tests.  Override per test
#: with ``@pytest.mark.timeout(seconds)``.
DEFAULT_TEST_TIMEOUT = 120.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """SIGALRM-based per-test timeout (no third-party plugin available).

    The alarm interrupts the main thread even inside ``lock.acquire()`` /
    ``thread.join()`` -- exactly where a deadlocked concurrency test hangs.
    Skipped when the platform has no SIGALRM or tests run off the main
    thread (the watchdog then simply does not arm; it never breaks a run).
    """
    marker = item.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if marker and marker.args else DEFAULT_TEST_TIMEOUT
    can_arm = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
        and seconds > 0
    )
    if not can_arm:
        return (yield)

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:.0f}s watchdog (likely deadlocked); "
            "see pytest.ini markers"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _lockcheck(request):
    """Run concurrency-suite tests under the lock-order race monitor.

    Active only for the modules in ``LOCKCHECK_MODULES`` (set
    ``REPRO_LOCKCHECK=0`` to opt out, e.g. when bisecting an unrelated
    failure).  Any observed lock-order cycle or blocking-socket-I/O-under-
    lock fails the test that produced it.
    """
    if (
        request.module.__name__ not in LOCKCHECK_MODULES
        or os.environ.get("REPRO_LOCKCHECK", "1") == "0"
    ):
        yield
        return
    with LockOrderMonitor() as monitor:
        yield
    problems = monitor.report()
    if problems:
        pytest.fail(
            "lockcheck: " + "; ".join(problems), pytrace=False
        )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for ad-hoc randomness in tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_cluster_config() -> ClusterDistributionConfig:
    """A small, fast-to-generate cluster distribution configuration."""
    return ClusterDistributionConfig(
        n_points=2000,
        n_clusters=20,
        center_skew=1.0,
        size_skew=1.0,
        cluster_sd=2.0,
        domain=(0, 1000),
        seed=7,
    )


@pytest.fixture
def small_values(small_cluster_config) -> np.ndarray:
    """Raw values of the small cluster distribution."""
    return generate_cluster_values(small_cluster_config)


@pytest.fixture
def small_distribution(small_values) -> DataDistribution:
    """Exact distribution of the small cluster data."""
    return DataDistribution(small_values)


@pytest.fixture
def skewed_distribution() -> DataDistribution:
    """A hand-built skewed distribution with one dominant value."""
    pairs = [(10, 5), (11, 3), (12, 2), (20, 40), (21, 6), (35, 1), (36, 1), (50, 12)]
    return DataDistribution.from_frequencies(pairs)


@pytest.fixture
def uniform_values() -> np.ndarray:
    """A deterministic, nearly uniform integer data set."""
    rng = np.random.default_rng(3)
    return rng.integers(0, 200, size=1500)
