"""Dead-name guard over the package source, with the standard library only.

Fails on an imported name that the module never uses, on a function
local that is assigned but never read, on a module-level private
function, class or constant that no package module reads, and on a
function named in a module's __all__ that nothing outside the module
reads, and on a name in a module's __all__ that the module does not define
(a re-export). The package's __init__.py is all re-exports, so its imports
and __all__ are not checked and it does not count as a reader.
"""

import ast
import re
from pathlib import Path

import fusionring

SOURCES = sorted(Path(fusionring.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def _loaded(tree) -> set:
    """Names read anywhere in tree, including __all__ entries."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= {e.value for e in node.value.elts}
    return names


def unused_imports(tree) -> list:
    used = _loaded(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    out.append(f"line {node.lineno}: import {bound}")
    return out


def _assigned(node):
    """(name, line) of each plain name an assignment-like node binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
        targets = [node.target]
    elif isinstance(node, ast.withitem):
        targets = [node.optional_vars]
    elif isinstance(node, ast.ExceptHandler) and node.name:
        return [(node.name, node.lineno)]
    else:
        return []
    return [(t.id, t.lineno) for t in targets if isinstance(t, ast.Name)]


def unread_locals(tree) -> list:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # a nested function reading the name counts as a read
        read = _loaded(fn)
        shared = {name for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal))
                  for name in n.names}
        for node in ast.walk(fn):
            for name, line in _assigned(node):
                if name not in read and name not in shared and not name.startswith("_"):
                    out.append(f"line {line}: {fn.name}.{name}")
    return out


def unread_privates(trees: dict) -> list:
    """Each module-level _name (not __dunder__) bound by a def, class or
    assignment in one of trees (module name -> tree) that no tree reads by
    name, as an attribute or through a from-import."""
    read = set()
    for tree in trees.values():
        read |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [(node.name, node.lineno)]
            else:
                bound = _assigned(node)
            out += [f"{module} line {line}: {name}" for name, line in bound
                    if name.startswith("_") and not name.startswith("__")
                    and name not in read]
    return out


def _reads(tree) -> set:
    """Names tree reads by name, as an attribute or through a from-import."""
    read = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def dead_public_functions(trees: dict, readers: list, text: str) -> list:
    """Each top-level function named in the __all__ of one of trees (module
    name -> tree) that no other of trees, no tree in readers and no word of
    text reads. Classes are exempt: they are return and exception types."""
    out = []
    for module, tree in trees.items():
        public = {e.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                  for e in node.value.elts}
        read = set(re.findall(r"\w+", text)).union(
            *(_reads(t) for t in readers), *(_reads(t) for m, t in trees.items() if m != module))
        out += [f"{module} line {node.lineno}: {node.name}" for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name in public
                and node.name not in read]
    return out


def reexports(tree) -> list:
    """Each name in tree's __all__ that no top-level def, class or
    assignment of tree binds."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        else:
            defined |= {name for name, _ in _assigned(node)}
    return [e.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in node.value.elts if e.value not in defined]


def test_sources_found():
    assert {"cli.py", "core.py", "__init__.py"} <= {p.name for p in SOURCES}


def test_no_unused_imports():
    found = {p.name: unused_imports(ast.parse(p.read_text())) for p in SOURCES
             if p.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}


def test_no_unread_locals():
    found = {p.name: unread_locals(ast.parse(p.read_text())) for p in SOURCES}
    assert {k: v for k, v in found.items() if v} == {}


def test_no_unread_privates():
    assert unread_privates({p.name: ast.parse(p.read_text()) for p in SOURCES}) == []


def test_no_dead_public_functions():
    # readers: the tests, the benchmark scripts and README
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES if p.name != "__init__.py"}
    readers = [ast.parse(p.read_text())
               for folder in ("tests", "benchmarks") for p in sorted((ROOT / folder).glob("*.py"))]
    assert dead_public_functions(trees, readers, (ROOT / "README.md").read_text()) == []


def test_no_reexports():
    found = {p.name: reexports(ast.parse(p.read_text())) for p in SOURCES
             if p.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}


def test_guard_catches_dead_names():
    tree = ast.parse("import os\nfrom a import b, c\n"
                     "def f(x):\n    r = 1\n    y = x\n    return c(y)\n")
    assert unused_imports(tree) == ["line 1: import os", "line 2: import b"]
    assert unread_locals(tree) == ["line 4: f.r"]
    trees = {"a.py": ast.parse("_K = 1\n_L = 2\n__x__ = 3\ndef _f():\n    return _K\n"
                               "class _C:\n    pass\nclass _D:\n    pass\n"
                               "def _g():\n    return 0\n"),
             "b.py": ast.parse("import a\nfrom a import _C\nprint(_C, a._g)\n")}
    assert unread_privates(trees) == ["a.py line 2: _L", "a.py line 4: _f",
                                      "a.py line 8: _D"]


def test_guard_catches_dead_public_functions():
    trees = {"a.py": ast.parse("__all__ = ['f', 'g', 'h', 'K', 'p']\n"
                               "def f():\n    pass\ndef g():\n    pass\n"
                               "def h():\n    pass\nclass K:\n    pass\n"
                               "def p():\n    return f()\n"),
             "b.py": ast.parse("from a import g\n")}
    readers = [ast.parse("import a\na.h()\n")]
    assert dead_public_functions(trees, readers, "p()") == ["a.py line 2: f"]
    assert dead_public_functions(trees, [], "") == [
        "a.py line 2: f", "a.py line 6: h", "a.py line 10: p"]


def test_guard_catches_reexports():
    tree = ast.parse("from a import f\nimport b\n__all__ = ['f', 'b', 'g', 'C', 'K']\n"
                     "def g():\n    pass\nclass C:\n    pass\nK = 1\n")
    assert reexports(tree) == ["f", "b"]
