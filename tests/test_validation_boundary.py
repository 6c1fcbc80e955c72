"""Validation-boundary guard over the package source, with the standard
library only.

The fusion ring axioms are checked (FusionRing.validated, validate_tensor)
on input from outside the program and on results of a float snap, never on
rings the library builds by theorem. This fails when a package function
other than the listed boundary functions refers to either check. The orders
path of group_ring, which shares its function with the table path, is
pinned by test_core instead.
"""

import ast
from pathlib import Path

import fusionring

from shared_rings import references

SOURCES = sorted(Path(fusionring.__file__).parent.glob("*.py"))
CHECKS = {"validated", "validate_tensor"}
BOUNDARY = {
    "core.FusionRing.validated",  # the check itself
    "core.ring_from_json",  # ring JSON
    "core.character_table_to_fusion_ring",  # multiplicities snapped from floats
    "core.group_ring",  # the multiplication-table branch only
    "premodular.verlinde_fusion",  # multiplicities snapped from floats
    "catalog.CatalogEntry.ring",  # ring JSON read unvalidated
    "cli.cmd_verify",  # lists every violation
}


def test_checks_only_at_the_boundary():
    found = [name for p in SOURCES
             for name in references(p.stem, ast.parse(p.read_text()), CHECKS)]
    assert [name for name in found if name not in BOUNDARY] == []
    # the list names nothing that is gone
    assert set(found) >= BOUNDARY


def test_guard_catches_checks():
    tree = ast.parse("from .core import validate_tensor\n"
                     "def build(t):\n    return FusionRing.validated(['1'], t, [0])\n"
                     "class R:\n    def check(self):\n        return validate_tensor(1, 2)\n"
                     "def fine(t):\n    return FusionRing(['1'], t, [0])\n"
                     "CHECK = validate_tensor\n")
    assert references("m", tree, CHECKS) == ["m.build", "m.R.check", "m"]
