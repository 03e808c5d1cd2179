"""Which modules the package root and each command load.

``import serpchurn`` loads each public name's module, the error classes'
included, on first use; each CLI command imports only the modules it runs.
Each case runs in a fresh interpreter, so nothing the suite imported
counts, and checks module names, not timings.
"""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import serpchurn
from serpchurn.cli import main

# runs one command and reports its exit code, the package it loaded and
# every module loaded by then on stderr's last line
PROBE = (
    "import json, sys\n"
    "from serpchurn.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sys.modules['serpchurn'].__file__, sorted(sys.modules)]), file=sys.stderr)\n"
)

HTTP_CLIENT = ("urllib.request", "http.client", "ssl")
# no CSV field needs quoting, so the report is written without the csv module
CSV_WRITER = ("csv", "_csv")
# the records are named tuples and one class with slots, so no command loads dataclasses
RECORDS = ("dataclasses",)
NO_FIT = ("serpchurn.fitting", "serpchurn.oracle", "serpchurn.serp_io")
NO_ANALYSIS = (*NO_FIT, "serpchurn.metrics", "serpchurn.render", "html.parser")
NO_READS = ("serpchurn.metrics", "serpchurn.fitting", "serpchurn.render", "serpchurn.oracle")
# a scrape finds result links with its own scan, not the standard library's tag parser
NO_TAG_PARSER = ("html.parser", "_markupbase")

# (argv, modules it must not load); {store} is a small synthetic collection,
# {serp} the saved result pages; stdin carries a snapshot stream for ingest
COMMANDS = [
    (["stats", "--store", "{store}"], NO_ANALYSIS),
    (["ingest", "-", "--store", "-"], NO_ANALYSIS),
    (["synth", "--days", "2", "--store", "-"], NO_ANALYSIS),
    (["metrics", "--store", "{store}"], NO_FIT),
    (["prob", "--store", "{store}"], NO_FIT),
    (["transitions", "--store", "{store}"], NO_FIT),
    (["report", "--kind", "temporal-grid", "--store", "{store}"], NO_FIT),
    (["scrape", "--query", "hurricane harvey", "--fixture", "{serp}", "--delay", "0",
      "--date", "2017-09-07", "--store", "-"], (*NO_READS, *NO_TAG_PARSER)),
    (["timelines", "--store", "{store}"], ()),
    (["fit", "--store", "{store}"], ()),
    (["compare", "--store-a", "{store}", "--store-b", "{store}"], ()),
    (["report", "--kind", "fit-curve", "--store", "{store}"], ()),
    (["report", "--kind", "page-chart", "--store", "{store}"], ()),
]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports") / "col"
    argv = ["synth", "--days", "8", "--pages", "2", "--per-page", "4", "--rate", "0.4", "--seed", "12"]
    assert main([*argv, "--store", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def stream(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "serpchurn", "synth", "--days", "2", "--store", "-"],
        capture_output=True, env=child_env(), check=True,
    )
    return proc.stdout


def test_the_package_root_loads_only_itself_yet_lists_every_name(child_env):
    probe = (
        "import sys, serpchurn; "
        "print(sorted(m for m in sys.modules if m.startswith('serpchurn'))); "
        "print(sorted(set(serpchurn.__all__) - set(dir(serpchurn))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['serpchurn']\n[]\n"


@pytest.mark.parametrize(
    "argv, absent",
    COMMANDS,
    ids=[" ".join(argv[:3] if argv[0] == "report" else argv[:1]) for argv, _ in COMMANDS],
)
def test_a_command_loads_only_what_it_runs(child_env, store, stream, serp_root, argv, absent):
    args = [a.format(store=store, serp=serp_root) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        input=stream, capture_output=True, env=child_env(),
    )
    code, package_file, loaded = json.loads(proc.stderr.decode().splitlines()[-1])
    assert code == 0, proc.stderr
    assert Path(package_file).resolve() == Path(serpchurn.__file__).resolve()
    # no command but a live scrape needs the HTTP client, not even a scrape of saved pages
    assert sorted({*HTTP_CLIENT, *CSV_WRITER, *RECORDS, *absent} & set(loaded)) == []


def test_dir_lists_every_public_name():
    assert set(serpchurn.__all__) <= set(dir(serpchurn))


# (module, name) that only tests and the benchmark use: importable from their
# modules, not listed or re-exported by the package root
TEST_ONLY = [
    ("metrics", "RateKind"),
    ("metrics", "avg_interval_rate"),
    ("metrics", "prob_seen"),
    ("metrics", "prob_seen_on_page"),
    ("oracle", "oracle_report"),
    ("oracle", "oracle_transition_counts"),
]


@pytest.mark.parametrize("module, name", TEST_ONLY, ids=[name for _, name in TEST_ONLY])
def test_a_test_only_name_lives_in_its_module_alone(module, name):
    assert name not in serpchurn.__all__
    assert name not in dir(serpchurn)
    assert callable(getattr(importlib.import_module(f"serpchurn.{module}"), name))
    with pytest.raises(AttributeError):
        getattr(serpchurn, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'serpchurn' has no attribute 'no_such_name'"):
        serpchurn.no_such_name


def test_a_star_import_binds_each_name_to_its_home_modules_object():
    namespace = {}
    exec("from serpchurn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(serpchurn.__all__)
    for name in serpchurn.__all__:
        value = namespace[name]
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_the_version_is_stated_alike_in_both_places():
    # a regular expression, since tomllib is missing on Python 3.10
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert version == serpchurn.__version__
