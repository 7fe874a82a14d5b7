"""Branch coverage of ``src/tropdiv`` under ``pytest tests``.

    python3 tools/branches.py

Runs ``pytest tests`` in this process under ``sys.settrace``, recording
every line-to-line arc in each frame of a ``src/tropdiv`` module, then
prints, sorted by module and line:

- ``module:line: never run: source`` for each line of code that never ran;
- ``module:line: never true: source`` or ``never false`` for each ``if``
  or ``elif`` whose test ran and one of whose sides was never followed.

An ``if``'s true side is an arc from a line of its test to the first
line of its body; its false side is an arc from a line of its test to
any other line, or a return out of the frame.  A line that raised starts
no arc, so a test that raises counts as neither side.  A body that
starts on its test's line cannot be told apart from the way past it;
such an ``if`` is printed as ``one line``.  Other threads and
subprocesses are not traced.  Stdlib only, with no options.  Traced,
Tier-1's 30 s take several minutes, so this is not a CI step.  It exits
with pytest's status.
"""
from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropdiv"
# the line an arc comes from on entering a frame or after a raise, and
# goes to on leaving it
OUTSIDE = 0


def trace(func, prefix: str, *args):
    """Run ``func(*args)`` under ``sys.settrace``; returns its result and
    the arcs (from line, to line) seen in each file whose name starts
    with ``prefix``, as {filename: set of arcs}."""
    arcs: dict[str, set[tuple[int, int]]] = defaultdict(set)

    def on_call(frame, event, _arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        seen, last = arcs[frame.f_code.co_filename], OUTSIDE

        def on_event(frame, event, _arg):
            nonlocal last
            if event == "line":
                seen.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                seen.add((last, OUTSIDE))
            elif event == "exception":
                last = OUTSIDE
            return on_event
        return on_event

    old = sys.gettrace()
    sys.settrace(on_call)
    try:
        return func(*args), arcs
    finally:
        sys.settrace(old)


def code_lines(code) -> set[int]:
    """The lines that hold an instruction of ``code`` or of a code object
    inside it.  A function's or class's first line is left to the code
    that defines it: its own entry instructions run with no line event."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const) - {const.co_firstlineno}
    return lines


def report(filename: str, source: str, arcs: set[tuple[int, int]]) -> list[tuple[int, str]]:
    """(line, kind) for each line of ``source`` that never ran and each
    ``if`` that ran with a side never followed, kind being ``never run``,
    ``never true``, ``never false`` or ``one line``."""
    ran = {b for _a, b in arcs}
    found = [(n, "never run") for n in code_lines(compile(source, filename, "exec"))
             if n not in ran]
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.If) or node.lineno not in ran:
            continue
        test = range(node.lineno, node.test.end_lineno + 1)
        body = node.body[0].lineno
        if body in test:
            found.append((node.lineno, "one line"))
            continue
        out = {b for a, b in arcs if a in test and b not in test}
        if body not in out:
            found.append((node.lineno, "never true"))
        if not out - {body}:
            found.append((node.lineno, "never false"))
    return sorted(found)


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    status, arcs = trace(pytest.main, str(PACKAGE),
                         [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                          "--rootdir", str(ROOT)])
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for n, kind in report(str(path), source, arcs.get(str(path), set())):
            print(f"{path.relative_to(ROOT / 'src')}:{n}: {kind}: {lines[n - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
