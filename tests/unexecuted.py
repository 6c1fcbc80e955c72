"""List the statements of src/fusionring that the tier-1 suite never runs.

Runs pytest in this process under a sys.settrace line tracer that records
only frames of the package, then prints each package statement none of
whose lines ran, as `path:line: first source line`, and a count. A simple
statement counts as run when any line it spans ran, a compound one (if,
for, try, def, class, ...) when any line of its header or body ran, so an
untaken branch shows up as the statements inside it. Docstrings, global
and nonlocal are not listed. Code that runs only in a child process (the
`fusionring` entry point `cli.main`, the BrokenPipe branch of `cli.run`)
is not seen. Standard library and pytest only; pytest does not collect
this file. Run from the repository root:

    python tests/unexecuted.py [extra pytest arguments]

The exit code is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fusionring"


def _is_docstring(body, node) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statement_spans(source: str) -> list:
    """(first line, last line) of each statement in source, in order."""
    spans = []

    def visit(body):
        for node in body:
            if _is_docstring(body, node) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans.append((first, node.end_lineno))
            visit(getattr(node, "body", []))
            for block in getattr(node, "handlers", []) + getattr(node, "cases", []):
                visit(block.body)
            visit(getattr(node, "orelse", []))
            visit(getattr(node, "finalbody", []))

    visit(ast.parse(source).body)
    return spans


def unexecuted(executed: dict) -> list:
    """(path, line, source line) of each package statement with no line in
    executed[path]."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = executed.get(str(path), set())
        out += [(path, first, lines[first - 1].strip())
                for first, last in statement_spans(source)
                if not any(line in ran for line in range(first, last + 1))]
    return out


def run_traced(pytest_args) -> tuple:
    """Run pytest under the tracer; (exit code, {path: lines that ran})."""
    import pytest

    if any(name == "fusionring" or name.startswith("fusionring.") for name in sys.modules):
        raise RuntimeError("fusionring was imported before tracing began")
    executed = {}
    inside = {}  # co_filename -> the set of lines to add to, or None

    def lines_of(filename):
        if filename not in inside:
            path = Path(os.path.realpath(filename))
            inside[filename] = (executed.setdefault(str(path), set())
                                if path.parent == PACKAGE else None)
        return inside[filename]

    def on_call(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main(argv) -> int:
    os.chdir(ROOT)
    code, executed = run_traced(argv)
    missed = unexecuted(executed)
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} statements of src/fusionring never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
