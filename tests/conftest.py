"""Shared fixtures: RNG, machines, and the Table 1 recurrence matrix."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.core.coefficients import table1_signatures
from repro.core.recurrence import Recurrence
from repro.gpusim.spec import MachineSpec

TABLE1_NAMES = tuple(table1_signatures().keys())


@pytest.fixture(autouse=True)
def _isolated_tuning(tmp_path, monkeypatch):
    """Every test sees a cold calibration table.

    The planner and ``backend="auto"`` consult the process-wide tuning
    policy by default, so a developer's real ``~/.cache/plr/tuning.json``
    could otherwise steer test outcomes.  Point the lookup at an empty
    per-test path and drop the cached policy singleton on both sides.
    """
    from repro.tune.policy import reset_default_policy

    monkeypatch.setenv("PLR_TUNE_DB", str(tmp_path / "tuning.json"))
    reset_default_policy()
    yield
    reset_default_policy()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20180324)  # the conference date


@pytest.fixture(scope="session")
def titan_x() -> MachineSpec:
    return MachineSpec.titan_x()


@pytest.fixture(scope="session")
def test_gpu() -> MachineSpec:
    return MachineSpec.small_test_gpu()


@pytest.fixture(params=TABLE1_NAMES)
def table1_recurrence(request) -> Recurrence:
    """Parametrizes a test over all eleven Table 1 recurrences."""
    return Recurrence(table1_signatures()[request.param])


def make_values(recurrence: Recurrence, n: int, seed: int = 7) -> np.ndarray:
    """Random input of the dtype the paper uses for this recurrence."""
    generator = np.random.default_rng(seed)
    if recurrence.is_integer:
        return generator.integers(-100, 100, size=n).astype(np.int32)
    return generator.standard_normal(n).astype(np.float32)


HARD_TEST_TIMEOUT_S = 90.0
"""Hard wall-clock ceiling for one test that can hang.

Three kinds of test can hang rather than fail: a ``serve`` test awaiting
a reply that never comes, a ``native`` test whose OpenMP runtime
deadlocks, and a ``tests/test_parallel.py`` test whose forked pool
wedges.  A SIGALRM fired from outside cuts through any stuck ``await``
or future wait, so a hang costs seconds instead of stalling the whole
suite (pytest-timeout is not available in this environment, so the
guard is implemented here).
"""


def _can_hang(item) -> bool:
    return (
        item.get_closest_marker("serve") is not None
        or item.get_closest_marker("native") is not None
        or item.path.name == "test_parallel.py"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not _can_hang(item) or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"hard timeout: {item.nodeid} exceeded {HARD_TEST_TIMEOUT_S:.0f}s "
            "(a serve, native or process-pool test hung)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
