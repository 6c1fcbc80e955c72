"""Theorem guard over the package source, with the standard library only.

The functions below build or read their results by theorem from a fusion
ring, which every FusionRing is (see README, "Every `FusionRing` is a fusion
ring"), so
none of them checks a theorem at run time: property tests check those
theorems instead. This fails when one of them contains a raise statement.
"""

import ast
from pathlib import Path

import fusionring

PACKAGE = Path(fusionring.__file__).parent
BY_THEOREM = {
    "structure": ["universal_grading", "adjoint_subring", "pointed_subring", "closure",
                  "integral_subring"],
    "nearintegral": ["detect", "distinguished_characters", "dim_a_chi_minus",
                     "near_integral_codegrees"],
    "core": ["product_ring"],
}


def raising_functions(tree, names) -> dict:
    """Each top-level function of tree named in names, mapped to the line
    numbers of the raise statements in it."""
    return {node.name: [sub.lineno for sub in ast.walk(node) if isinstance(sub, ast.Raise)]
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names}


def test_functions_built_by_theorem_do_not_raise():
    for module, names in BY_THEOREM.items():
        found = raising_functions(ast.parse((PACKAGE / f"{module}.py").read_text()), names)
        # the list names nothing that is gone
        assert sorted(found) == sorted(names), module
        assert {name: lines for name, lines in found.items() if lines} == {}, module


def test_guard_catches_raises():
    tree = ast.parse("def checks(x):\n    if x:\n        raise ValueError(x)\n    return x\n"
                     "def nested(x):\n    def inner():\n        raise ValueError(x)\n"
                     "    return inner\n"
                     "def fine(x):\n    return x\n")
    assert raising_functions(tree, {"checks", "nested", "fine"}) == {
        "checks": [3], "nested": [7], "fine": []}
