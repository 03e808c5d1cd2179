from datetime import date
from pathlib import Path

import pytest

from serpchurn.serp_io import FetchPlan, build_snapshot

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_root() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def serp_root() -> Path:
    return FIXTURES / "serp"


@pytest.fixture(scope="session")
def harvey_plan(serp_root) -> FetchPlan:
    return FetchPlan(
        query="hurricane harvey",
        fixture_dir=serp_root,
        politeness_delay=0.0,
    )


@pytest.fixture(scope="session")
def harvey_snapshots(harvey_plan):
    """The two scraped general-vertical days, parsed once per session."""
    return (
        build_snapshot(harvey_plan, date(2017, 9, 7)),
        build_snapshot(harvey_plan, date(2017, 9, 8)),
    )


# -- acceptance summary --------------------------------------------------
#
# Each acceptance test carries a `criterion` marker; the terminal summary
# then prints one pass/fail line per criterion at the end of the run.

_RESULTS: dict[str, tuple[bool, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(id, desc): an acceptance criterion check"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    # a setup or teardown that errors or skips leaves no call report behind,
    # so it is recorded here as a failure of its criterion
    if rep.when != "call" and rep.passed:
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    cid, desc = marker.args
    passed = rep.passed and _RESULTS.get(cid, (True, desc))[0]
    _RESULTS[cid] = (passed, desc)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for cid in sorted(_RESULTS):
        ok, desc = _RESULTS[cid]
        terminalreporter.write_line(f"{cid} {'PASS' if ok else 'FAIL'}: {desc}")
