"""Validation-boundary guard over the package source, with the standard
library only.

The fusion ring axioms are checked by validate_tensor in one place, the
constructor FusionRing(...), so every ring is a fusion ring. Only builders
whose result is a fusion ring by theorem skip that check, through the
private constructor FusionRing._by_theorem. This fails when another package
function refers to validate_tensor, or another function than those builders
to _by_theorem. The orders path of group_ring, which shares its function
with the table path, is pinned by test_core instead.
"""

import ast
from pathlib import Path

import fusionring

from shared_rings import references

SOURCES = sorted(Path(fusionring.__file__).parent.glob("*.py"))
CHECKS = {"validate_tensor"}
BOUNDARY = {"core.FusionRing.__post_init__"}  # the check itself
BY_THEOREM = {"_by_theorem"}
BUILDERS = {
    "core.product_ring",  # each axiom holds factor by factor
    "core.group_ring",  # the cyclic-orders branch only
    "nearintegral.construct",  # R(S, kappa) on certified FPdims
    "nearintegral.subring_on",  # a fusion-closed subset
}


def _found(names) -> list:
    return [name for p in SOURCES
            for name in references(p.stem, ast.parse(p.read_text()), names)]


def test_checks_only_at_the_boundary():
    assert set(_found(CHECKS)) == BOUNDARY


def test_only_builders_by_theorem_skip_the_check():
    # the list names nothing that is gone, either
    assert sorted(_found(BY_THEOREM)) == sorted(BUILDERS)


def test_guard_catches_checks():
    tree = ast.parse("from .core import validate_tensor\n"
                     "def build(t):\n    return FusionRing._by_theorem(['1'], t, [0])\n"
                     "class R:\n    def check(self):\n        return validate_tensor(1, 2)\n"
                     "def fine(t):\n    return FusionRing(['1'], t, [0])\n"
                     "CHECK = validate_tensor\n")
    assert references("m", tree, CHECKS) == ["m.R.check", "m"]
    assert references("m", tree, BY_THEOREM) == ["m.build"]
