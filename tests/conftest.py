import os
import shutil
from datetime import date
from pathlib import Path

import pytest

import serpchurn
from serpchurn.serp_io import FetchPlan, build_snapshot

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def child_env():
    """Build the environment for a child interpreter that must import the
    package under test.

    The directory holding the imported package goes first on PYTHONPATH as
    an absolute path, so a child started in another cwd, where a relative
    entry such as the documented PYTHONPATH=src no longer resolves, still
    loads this copy; the caller's entries follow it. Keyword arguments are
    set in the environment as well.
    """
    package_dir = str(Path(serpchurn.__file__).resolve().parent.parent)

    def make(**extra: str) -> dict[str, str]:
        inherited = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        return dict(os.environ, PYTHONPATH=os.pathsep.join([package_dir, *inherited]), **extra)

    return make


@pytest.fixture(scope="session")
def fixture_root() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def serp_root() -> Path:
    return FIXTURES / "serp"


@pytest.fixture
def headline_marker_root(tmp_path, serp_root) -> Path:
    """A copy of the saved pages whose 2017-09-07 general p1 carries a block
    marker in a section heading, beside its ten result links."""
    root = tmp_path / "serp"
    shutil.copytree(serp_root, root)
    page = root / "hurricane-harvey" / "general" / "2017-09-07" / "p1.html"
    html = page.read_text(encoding="utf-8")
    heading = '<h3 class="r">People also ask</h3>'
    assert html.count(heading) == 1
    page.write_text(
        html.replace(heading, '<h3 class="r">Harvey floods bring unusual traffic to I-45</h3>'),
        encoding="utf-8",
    )
    return root


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
