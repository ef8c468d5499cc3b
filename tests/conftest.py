"""Shared fixtures and the acceptance scoreboard.

The acceptance tests register one line per criterion here; the
terminal summary prints the scoreboard after the run so pass/fail
status and the measured numbers are visible in one place even when
the suite is long.

BLAS is pinned to one thread before anything imports numpy, unless the
environment already says otherwise: when other processes share the
cores, OpenBLAS's default threads oversubscribe them, and the small
products the suite makes gain nothing from more threads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

_SCOREBOARD: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str) -> None:
    _SCOREBOARD.append((name, passed, detail))


@pytest.fixture
def criterion_log():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SCOREBOARD:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _SCOREBOARD:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}  {name}  {detail}")
