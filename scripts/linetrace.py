#!/usr/bin/env python3
"""Lines and branches of `src/fluxq` that a pytest run never executes.

    python3 scripts/linetrace.py [pytest arguments]    (default: -q tests)

Runs pytest in this process under `sys.settrace`, tracing only code under
`src/fluxq`, then prints for each module the executable lines that never
ran and each `if` or `while` whose test never took one of its sides, and
exits with pytest's exit code.

Executable lines are the line numbers of the module's compiled code
objects, less each function's or class's own first line (the `def` or
`class` statement runs in the enclosing code).  A test took its true side
when any line inside its body's span ran, and its false side when any line
of its `else` span ran or, without one, when the frame went on from a line
of the test to a line outside the test and the body, or returned.  Spans,
not first lines, decide: a statement spread over several lines may report
its line event on any of them.  A `while` on a constant true test has no
false side.
"""
import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

PACKAGE = ROOT / "src" / "fluxq"


class Tracer:
    """Line events and (previous line, line) arcs per traced file; an arc
    to None is a return from the frame."""

    def __init__(self, package: Path):
        self.prefix = os.path.realpath(package) + os.sep
        self.lines = defaultdict(set)
        self.arcs = defaultdict(set)
        self._traced = {}  # co_filename -> its real path, or None

    def _path(self, filename):
        path = self._traced.get(filename, False)
        if path is False:
            real = os.path.realpath(filename)
            path = self._traced[filename] = real if real.startswith(self.prefix) else None
        return path

    def __call__(self, frame, event, arg):
        path = self._path(frame.f_code.co_filename)
        if path is None:
            return None
        lines, arcs = self.lines[path], self.arcs[path]
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                lines.add(line)
                arcs.add((last, line))
                last = line
            elif event == "return":
                arcs.add((last, None))
            elif event == "exception":  # the frame does not go on from `last`
                last = None
            return local

        return local


def executable_lines(code) -> set[int]:
    """Line numbers of the code object and of every code object nested in
    it, less the nested ones' first lines."""
    lines = {line for _, _, line in code.co_lines() if line}  # 0: module start
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const) - {const.co_firstlineno}
    return lines


def _span(statements) -> range:
    return range(statements[0].lineno, statements[-1].end_lineno + 1)


def one_sided(tree: ast.AST, ran: set[int], arcs: set) -> list[tuple[int, str]]:
    """(line, "never true" or "never false") for each side that the test
    of an if or while never took; tests that never ran are left out."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.While)):
            continue
        test = range(node.lineno, node.test.end_lineno + 1)
        body = _span(node.body)
        if not ran.intersection(test):
            continue  # reported as lines never run
        true_side = bool(ran.intersection(body))
        if node.orelse:
            false_side = bool(ran.intersection(_span(node.orelse)))
        elif isinstance(node.test, ast.Constant) and node.test.value:
            false_side = True  # `while True` has no false side
        else:
            false_side = any(
                a in test and (b is None or (b not in test and b not in body))
                for a, b in arcs
            )
        if not true_side:
            found.append((node.lineno, "never true"))
        if not false_side:
            found.append((node.lineno, "never false"))
    return sorted(found)


def _ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 as "1-3, 7"."""
    parts, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(f"{start}" if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def report(tracer: Tracer, package: Path) -> list[str]:
    out = []
    for path in sorted(package.glob("*.py")):
        real = os.path.realpath(path)
        name = path.relative_to(ROOT)
        ran, arcs = tracer.lines[real], tracer.arcs[real]
        if not ran:
            out.append(f"{name}: never imported")
            continue
        source = path.read_text()
        missed = sorted(executable_lines(compile(source, real, "exec")) - ran)
        sides = one_sided(ast.parse(source), ran, arcs)
        if not missed and not sides:
            continue
        out.append(f"{name}:")
        if missed:
            out.append(f"  lines never run: {_ranges(missed)}")
        for line, side in sides:
            out.append(f"  line {line}: test {side}")
    return out


def main(argv: list[str]) -> int:
    args = argv or ["-q", str(ROOT / "tests")]
    tracer = Tracer(PACKAGE)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = report(tracer, PACKAGE)
    print(f"\nlines and branches of {PACKAGE.relative_to(ROOT)} never run:")
    print("\n".join(lines) if lines else "  none")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
