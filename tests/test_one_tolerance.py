"""One-tolerance guard over the package source, with the standard library
only, and the fail-closed behaviour that the one policy gives.

Every decision that a float is an exact value goes through exact._agrees
(within EXACT_TOL) or exact._snaps (within SNAP_TOL), each returning
(ok, distance), with nan and inf never ok. This fails when another package
module names either constant or calls allclose or isclose, the first step
of a tolerance of its own, or when any package module reads the builtin
round, the first step of a snap of its own.
"""

import ast
import cmath
from pathlib import Path

import numpy as np
import pytest

import fusionring as fr
from fusionring.catalog import ClassificationRow
from fusionring.core import CharacterTable, FusionRingError
from fusionring.exact import EXACT_TOL, SNAP_TOL, _agrees, _snaps
from fusionring.nearintegral import ExtensionObstructed, construct, detect, extend_character
from fusionring.premodular import ModularDatum, centralizer_profile

SOURCES = sorted(Path(fr.__file__).parent.glob("*.py"))
POLICY = "exact"
TOLERANCE_NAMES = {"SNAP_TOL", "EXACT_TOL", "allclose", "isclose"}
NAN, INF = float("nan"), float("inf")
ONE = fr.RootOfUnity(0, 1)


def tolerance_uses(module: str, tree) -> list:
    """'module line N: name' for each name, attribute or imported name in
    tree that is a tolerance constant, allclose or isclose, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in TOLERANCE_NAMES]
    return [f"{module} line {line}: {name}" for line, name in sorted(found)]


def test_only_exact_reads_the_tolerance():
    found = {p.stem: tolerance_uses(p.stem, ast.parse(p.read_text())) for p in SOURCES}
    assert found[POLICY]
    assert [use for module, uses in found.items() if module != POLICY for use in uses] == []


def test_guard_catches_tolerance_uses():
    tree = ast.parse("from .exact import SNAP_TOL as tol\n"
                     "close = np.allclose(a, b, atol=tol)\n"
                     "from math import isclose\n"
                     "bound = exact.EXACT_TOL * 2\n"
                     "import numpy.isclose\n"
                     "snap_tol, allclose_count = 1, 2\n")
    assert tolerance_uses("m", tree) == ["m line 1: SNAP_TOL", "m line 2: allclose",
                                         "m line 3: isclose", "m line 4: EXACT_TOL",
                                         "m line 5: isclose"]


def builtin_round_uses(module: str, tree) -> list:
    """'module line N: round' for each read of the bare name round (a call
    or an alias of the builtin), in line order; np.round is an attribute."""
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id == "round"
                   and isinstance(node.ctx, ast.Load))
    return [f"{module} line {line}: round" for line in lines]


def test_no_module_rounds_by_the_builtin():
    # a float becomes an int by an exact test, an exact certificate or _snaps
    found = [builtin_round_uses(p.stem, ast.parse(p.read_text())) for p in SOURCES]
    assert [use for uses in found for use in uses] == []


def test_guard_catches_builtin_round():
    tree = ast.parse("k = np.round(v, 6)\n"
                     "r = int(round(z.real))\n"
                     "near = round\n"
                     "round_to = v.round(2)\n")
    assert builtin_round_uses("m", tree) == ["m line 2: round", "m line 3: round"]


@pytest.mark.parametrize("helper, tol", [(_agrees, EXACT_TOL), (_snaps, SNAP_TOL)],
                         ids=["agrees", "snaps"])
def test_helpers_fail_closed_and_return_the_distance(helper, tol):
    # targets 1: the bound itself passes; nan, inf and inf - inf never do,
    # whatever the scale, and numpy warns of none of them
    values = np.array([1 + tol * 1j, 1 + 2 * tol * 1j, NAN, INF, complex(1, NAN)])
    for scale in (1.0, INF, NAN):
        ok, _ = helper(values, 1.0, scale)
        assert ok.tolist() == [scale == scale, scale == INF, False, False, False]
    _, distance = helper(values, 1.0)
    assert distance.tolist()[:2] == [abs(v - 1) for v in values[:2].tolist()]
    assert not helper(INF, INF)[0] and cmath.isnan(helper(INF, INF)[1])
    assert helper(3.0, 3)[0] and helper(1e9 * tol, 0.0, 1e9)[0]


def test_a_datum_with_a_nan_is_refused():
    # named by its own check, before the symmetry test reads it as a defect:
    # a nan, a nan placed symmetrically, an inf and an imaginary inf
    for s in ([[1, 1], [1, NAN]], [[1, NAN], [NAN, 1]], [[1, 1], [1, INF]],
              [[1, complex(0, INF)], [complex(0, INF), 1]]):
        with pytest.raises(FusionRingError, match="^S holds a value that is not finite$"):
            ModularDatum(s, (ONE, ONE))


def test_a_nan_does_not_extend_as_a_character():
    ring = construct(fr.group_ring([2]), 1)
    with pytest.raises(ExtensionObstructed, match="^zero extension fails multiplicativity by nan"):
        extend_character(ring, detect(ring), [1, NAN])


def test_a_nan_dimension_fails_verify():
    row = ClassificationRow("nan", "probe", "2", ("1", "1e308*10-1e308*10"), "", 1)
    with pytest.raises(ValueError, match=r"\(nan\+0j\) is not finite$"):
        row.verify()


def test_a_centralizer_entry_at_the_bound_centralizes():
    # S[1][1] - d_1 d_1 = 1e-6 i, exactly SNAP_TOL from its target
    mask, candidates = centralizer_profile(ModularDatum([[1, 1], [1, 1 + 1e-6j]], (ONE, ONE)))
    assert mask.tolist() == [[True, True], [True, True]] and candidates == (0, 1)


def test_a_degree_snaps_within_a_disk():
    # 2 + (7.5 + 7.5i) 1e-7: each part within SNAP_TOL, its distance 1.06e-6 is not
    s3 = fr.load_entry("S3").payload
    rows = s3.rows.copy()
    rows[2, 0] += 7.5e-7 + 7.5e-7j
    with pytest.raises(FusionRingError, match="^column 0 must hold positive integer degrees$"):
        CharacterTable(s3.order, rows, s3.class_sizes)
