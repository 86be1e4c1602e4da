"""Shared test configuration: hypothesis profile, warnings as errors, acceptance summary."""

from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

_criteria: list[tuple[str, bool, str]] = []
_SUITE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # Every warning the library emits fails its test; tests that expect one
    # catch it with pytest.warns.  Marked per test, so that the filter stays
    # out of other suites collected in the same run.  The one exception is a
    # deprecation that hypothesis's failure report triggers in a dependency;
    # as an error it would turn a falsified test into an internal error.
    errors = pytest.mark.filterwarnings(
        "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )
    for item in items:
        if _SUITE in item.path.parents:
            item.add_marker(errors)


def record_criterion(label: str, passed: bool, detail: str = "") -> None:
    """Register one acceptance-criterion outcome for the end-of-run table."""
    _criteria.append((label, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label, passed, detail in _criteria:
        status = "PASS" if passed else "FAIL"
        line = f"criterion {label}: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
