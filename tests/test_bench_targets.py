"""The names the benchmark looks up in the package must exist.

``bench/spans.py`` finds each traced function with ``getattr`` at run time,
so a rename or deletion in ``src/`` would otherwise only show as an
``AttributeError`` in a ``bench/run.py --trace 1`` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import serpchurn

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_package_under_test_is_this_checkout():
    assert Path(serpchurn.__file__).resolve().parent == ROOT / "src" / "serpchurn"


@pytest.mark.parametrize("name, modname, attr", [t[:3] for t in _load_spans().TARGETS])
def test_every_traced_target_resolves(name, modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):  # a function, or Class.method
        owner = getattr(owner, part)
    assert callable(owner), name


@pytest.mark.parametrize("name", serpchurn.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(serpchurn, name)
