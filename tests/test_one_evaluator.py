"""One-evaluator guard over the package source, with the standard library
only.

Scalar strings (table and datum entries, catalog dimension expressions) are
read by one walker over Python's parse tree, exact.parse_zeta_expr. This
fails when another package module imports ast, the first step of a second
evaluator.
"""

import ast
from pathlib import Path

import fusionring

SOURCES = sorted(Path(fusionring.__file__).parent.glob("*.py"))
EVALUATOR = "exact"


def ast_importers(module: str, tree) -> list:
    """'module line N' for each import of ast (or a name from it) in tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == "ast" or name.startswith("ast.") for name in names):
            out.append(f"{module} line {node.lineno}")
    return out


def test_only_exact_imports_ast():
    found = {p.stem: ast_importers(p.stem, ast.parse(p.read_text())) for p in SOURCES}
    assert found[EVALUATOR]
    assert [line for module, lines in found.items() if module != EVALUATOR
            for line in lines] == []


def test_guard_catches_ast_imports():
    tree = ast.parse("import ast\nimport ast as tree\nfrom ast import parse\n"
                     "import astropy\nfrom .ast import x\nimport os, ast.x\n")
    assert ast_importers("m", tree) == ["m line 1", "m line 2", "m line 3", "m line 6"]
