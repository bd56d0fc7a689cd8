#!/usr/bin/env python3
"""Print the statements of the package that no tier-1 test runs.

    python tools/untested_lines.py [ROOT]

ROOT is a checkout, by default the one this script is in.  A line tracer
(``sys.settrace``, standard library only), limited to the files under
``src/ellipcenters``, is installed before ``ellipcenters`` is imported, and
the checkout's tests then run in this process through ``pytest.main``.
Every statement (found with ``ast``) none of whose own lines raised a line
event is printed as ``file:line: source``; a compound statement's own lines
are its header's.  Docstrings, ``def`` and ``class`` lines and
``nonlocal`` and ``global`` raise no line event and are skipped.  The
allocation tests are deselected, since the tracer's own allocations move
what they measure: ``tests/test_memory.py`` and
``test_records.py::test_append_leaves_the_gc_count_alone``.  Tests run in
a subprocess are not traced.  The exit status is pytest's.  A run takes
about a minute on 2 cores.
"""

import ast
import os
import sys
import threading
from pathlib import Path

DESELECT = ["tests/test_memory.py",
            "tests/test_records.py::test_append_leaves_the_gc_count_alone"]
NO_LINE_EVENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Nonlocal, ast.Global)


def statements(source: str):
    """``(first line, own lines)`` of every statement of ``source`` that
    raises a line event when it runs."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, NO_LINE_EVENT):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(node.lineno, last + 1)


def trace_tests(root: Path) -> tuple[int, dict[str, set[int]]]:
    """Run ``root``'s tests under the tracer; pytest's exit status and the
    lines run in each of the package's files."""
    package = str(root / "src" / "ellipcenters") + os.sep
    hits: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = os.path.realpath(name).startswith(package)
        if not mine:
            return None
        lines = hits.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    import pytest
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              *(f"--deselect={d}" for d in DESELECT)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    run: dict[str, set[int]] = {}
    for name, lines in hits.items():
        run.setdefault(os.path.realpath(name), set()).update(lines)
    return int(status), run


def main(root: Path) -> int:
    status, run = trace_tests(root)
    for path in sorted((root / "src" / "ellipcenters").glob("*.py")):
        source = path.read_text()
        lines, ran = source.splitlines(), run.get(str(path), set())
        for first, own in sorted(statements(source)):
            if ran.isdisjoint(own):
                print(f"{path.relative_to(root)}:{first}: "
                      f"{lines[first - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1
                       else Path(__file__).parents[1]).resolve()))
