"""Shared test plumbing.

Acceptance tests record one human-readable pass/fail line each; the
terminal-summary hook replays them at the end of the run so they are
visible even when pytest captures stdout. tie_noise sets the private
constants of dmig.estimation that the estimators read at each call.
"""

from unittest import mock

from dmig import estimation

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    print(line)
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def tie_noise(jitter=estimation._JITTER, seed=estimation._SEED):
    """A context that sets the estimators' tie-breaking jitter and its seed."""
    return mock.patch.multiple(estimation, _JITTER=jitter, _SEED=seed)
