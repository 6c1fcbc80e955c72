"""Duality is read one way: from the integer pairing column c_ij^0, by
core._pairing_dual. On every catalog table and modular datum it agrees with
the two float derivations it replaced, kept here as oracles."""

import math

import numpy as np
import pytest

import fusionring as fr
from fusionring.core import AxiomViolation, _pairing_dual, ring_from_json, ring_to_json
from fusionring.exact import SNAP_TOL

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
