"""Line-coverage gate for ``src/serpchurn``, from the standard library alone.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line tracer,
then maps the traced lines onto every statement of each module in
``src/serpchurn``. A statement counts as run when any line in its whole
range ran, so a multi-line condition, whose events land on its continuation
lines, counts; a decorated definition's range starts at its first
decorator. It exits 1 when a statement never ran and ``EXEMPT`` does not
name it, or when an entry of ``EXEMPT`` names no unrun statement, and with
pytest's own code when the suite fails. Run it from the repository root:

    PYTHONPATH=src python tests/coverage_gate.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "serpchurn"
TIER1 = ["-q", "--continue-on-collection-errors"]

_CHILD_ONLY = "only a `python -m serpchurn` child runs __main__.py, and no child is traced"
_TYPES_ONLY = "a TYPE_CHECKING import, which only type checkers read"
# (module file, first line of the statement's source) -> why it never runs in-process
EXEMPT = {
    ("__main__.py", "import sys"): _CHILD_ONLY,
    ("__main__.py", "from .cli import main"): _CHILD_ONLY,
    ("__main__.py", "sys.exit(main())"): _CHILD_ONLY,
    ("cli.py", "from .fitting import RefindabilityModel"): _TYPES_ONLY,
    ("cli.py", "from .metrics import ChurnReport"): _TYPES_ONLY,
    ("render.py", "from .fitting import RefindabilityModel"): _TYPES_ONLY,
}


def statements(path: Path):
    """(first line, last line, first line's text) of each statement that compiles
    to code: no docstring or other bare constant, no ``global`` or ``nonlocal``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        yield first, node.end_lineno, lines[node.lineno - 1].strip()


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, by module file name, the lines of the package that ran."""
    ran: dict[str, set[int]] = {path.name: set() for path in SRC.glob("*.py")}
    tracers = {}  # code file name -> the line tracer of its module, or None

    def tracer(hits: set[int]):
        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return line

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = Path(name).resolve()
            tracers[name] = tracer(ran[path.name]) if path.parent == SRC else None
        return tracers[name]

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    if any(name == "serpchurn" or name.startswith("serpchurn.") for name in sys.modules):
        print("serpchurn was imported before tracing began", file=sys.stderr)
        return 1
    code, ran = traced_run(TIER1)
    if code != 0:
        print(f"coverage gate: the suite failed (pytest exit {code})", file=sys.stderr)
        return code
    unrun, exempted = [], set()
    for path in sorted(SRC.glob("*.py")):
        hits = ran[path.name]
        for first, last, text in statements(path):
            if not hits.intersection(range(first, last + 1)):
                key = (path.name, text)
                if key in EXEMPT:
                    exempted.add(key)
                else:
                    unrun.append(f"src/serpchurn/{path.name}:{first}: {text}")
    stale = [f"{name}: {text}" for name, text in EXEMPT if (name, text) not in exempted]
    for key in sorted(exempted):
        print(f"exempt {key[0]}: {key[1]} ({EXEMPT[key]})")
    for entry in unrun:
        print(f"never ran: {entry}")
    for entry in stale:
        print(f"exempt, yet no unrun statement matches: {entry}")
    if unrun or stale:
        return 1
    print(f"coverage gate: every statement of {len(ran)} modules ran, {len(exempted)} exempt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
