"""Duality is read one way: from the integer pairing column c_ij^0, by
core._pairing_dual. A FusionRing built without a dual reads it so from its
checked tensor; only verlinde_fusion also reads it first, for its S-row
check. On every catalog table and modular datum it agrees with the two
float derivations it replaced, and on products, group rings, R(S, kappa)
and subrings with the four formulas the builders used; all six are kept
here as oracles."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import fusionring as fr
from fusionring.core import AxiomViolation, _pairing_dual, ring_from_json, ring_to_json
from fusionring.exact import SNAP_TOL
from fusionring.nearintegral import construct, subring_on

from shared_rings import references

SOURCES = sorted(Path(fr.__file__).parent.glob("*.py"))
TABLES = [n for n in fr.list_catalog() if fr.load_entry(n).kind == "characterTable"]
DATA = [n for n in fr.list_catalog() if fr.load_entry(n).kind == "modularDatum"]


def conjugate_row_dual(table) -> list:
    """Oracle: dual(i) is the one row k that np.isclose matches with the
    complex conjugate of row i."""
    rows = table.rows
    match = np.isclose(rows[None], rows.conj()[:, None], atol=1e-8).all(axis=2)
    assert (match.sum(axis=1) == 1).all()
    return match.argmax(axis=1).tolist()


def charge_conjugation_dual(m) -> list:
    """Oracle: the permutation that normalized S squared snaps to."""
    s = m.s / math.sqrt(m.global_dim)
    hits = np.abs((s @ s).real - 1) < SNAP_TOL
    assert (hits.sum(axis=1) == 1).all()
    return hits.argmax(axis=1).tolist()


@pytest.mark.parametrize("name", TABLES)
def test_character_ring_dual_is_row_conjugation(name):
    table = fr.load_entry(name).payload
    ring = fr.character_table_to_fusion_ring(table)
    assert list(ring.dual) == _pairing_dual(ring.tensor) == conjugate_row_dual(table)


@pytest.mark.parametrize("name", DATA)
def test_verlinde_dual_is_charge_conjugation(name):
    m = fr.load_entry(name).payload
    ring = fr.verlinde_fusion(m)[0]
    assert list(ring.dual) == _pairing_dual(ring.tensor) == charge_conjugation_dual(m)


@pytest.mark.parametrize("name", TABLES + DATA)
def test_ring_json_without_dual_reads_the_same_dual(name):
    ring = fr.entry_ring(name)
    data = ring_to_json(ring)
    del data["dual"]
    assert ring_from_json(data) == ring


def test_a_row_pairing_twice_is_named():
    tensor = np.ones((2, 2, 2), dtype=np.int64)
    with pytest.raises(AxiomViolation) as exc:
        _pairing_dual(tensor)
    assert exc.value.violations == [("dual-pairing", (0,), "row 0 pairs with [0, 1]")]


RINGS = [fr.entry_ring(n) for n in TABLES + DATA]


def product_dual(a, b) -> list:
    """Oracle: (i, j) goes to (i*, j*), pairs numbered i * rank(b) + j."""
    m = b.rank
    return [a.dual[i] * m + b.dual[j] for i in range(a.rank) for j in range(m)]


def negation_dual(orders) -> list:
    """Oracle: g goes to -g, elements numbered in itertools.product order."""
    elements = list(itertools.product(*map(range, orders)))
    number = {e: i for i, e in enumerate(elements)}
    return [number[tuple(-x % f for x, f in zip(e, orders))] for e in elements]


def test_product_dual_is_the_pair_of_duals():
    pairs = list(itertools.combinations_with_replacement(RINGS, 2))
    a4, s3 = fr.entry_ring("A4"), fr.entry_ring("S3")
    pairs.append((fr.product_ring(a4, a4), s3))  # A4xA4xS3
    for a, b in pairs:
        assert list(fr.product_ring(a, b).dual) == product_dual(a, b)
    big = construct(fr.group_ring([1]), 2 ** 32)
    ring = fr.product_ring(big, big)
    assert ring.tensor.dtype == object
    assert list(ring.dual) == product_dual(big, big)


@pytest.mark.parametrize("orders", [[16], [32], [48], [8, 8], [2] * 6, [4] * 3])
def test_group_ring_dual_is_negation(orders):
    assert list(fr.group_ring(orders).dual) == negation_dual(orders)


def test_construct_dual_adds_a_self_dual_rho():
    for sub in RINGS:
        for kappa in (0, 1, 7, 10 ** 6):
            assert list(construct(sub, kappa).dual) == list(sub.dual) + [sub.rank]


def test_subring_dual_is_the_restricted_dual():
    for ring in RINGS:
        for sub in fr.enumerate_subrings(ring):
            idx = list(sub.indices)
            pos = {b: a for a, b in enumerate(idx)}
            assert list(subring_on(ring, idx).dual) == [pos[ring.dual[i]] for i in idx]


def test_only_the_ring_and_verlinde_read_the_pairing_column():
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    readers = [name for stem, tree in trees.items()
               for name in references(stem, tree, {"_pairing_dual"})]
    assert readers == ["core.FusionRing._store", "premodular.verlinde_fusion"]
    # the tensor is checked once, by the ring, before the dual is read
    assert references("core", trees["core"], {"_as_tensor"}) == ["core.FusionRing._store"]
