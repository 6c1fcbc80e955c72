"""Built-in data: loading, verification, classification-row consistency."""

import functools
import math

import numpy as np
import pytest

import fusionring as fr
from fusionring import catalog, spectral
from fusionring.catalog import (CatalogEntry, ClassificationRow, UnknownEntry, entry_ring,
                                eval_dimension_expr, list_catalog, load_entry,
                                verify_catalog)
from fusionring.exact import quantum_integer

GOLDEN = (1 + math.sqrt(5)) / 2


def test_quantum_integer_values():
    assert quantum_integer(3, 5) == pytest.approx(GOLDEN, abs=1e-12)
    assert quantum_integer(1, 7) == pytest.approx(1.0)
    assert quantum_integer(3, 8) == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    assert quantum_integer(2, 4) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_quantum_integer_range_check():
    for n, m in [(0, 5), (5, 5), (6, 5), (1, 1)]:
        with pytest.raises(ValueError):
            quantum_integer(n, m)


def test_eval_dimension_expr():
    assert eval_dimension_expr("1") == 1
    assert eval_dimension_expr("5/4*csc(pi/5)**2") == pytest.approx(1 + GOLDEN ** 2)
    assert eval_dimension_expr("sqrt(2)") == pytest.approx(math.sqrt(2))
    assert eval_dimension_expr("qint(3,5)**2") == pytest.approx(GOLDEN ** 2)
    # zeta combinations that happen to be real are fine
    assert eval_dimension_expr("1-zeta(9,4)-zeta(9,5)") == pytest.approx(
        1 - 2 * math.cos(8 * math.pi / 9))


def test_eval_dimension_expr_rejects():
    with pytest.raises(ValueError):
        eval_dimension_expr("zeta(4,1)")  # not real
    for bad in ["__import__('os')", "zeta(2.5,1)", "qint(3.5,5)", "1/0"]:
        with pytest.raises(ValueError):
            eval_dimension_expr(bad)


def test_list_and_load():
    names = list_catalog()
    assert "PSU(3,2)" in names and "Z(Rep(S3))" in names
    entry = load_entry("PSU(3,2)")
    assert entry.kind == "characterTable"
    assert entry.payload.order == 72
    assert load_entry("Z(Rep(S3))").kind == "modularDatum"
    assert len(load_entry("Z(Rep(S3))").payload.t) == 8


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        load_entry("nonexistent")


def test_catalog_contents_complete():
    names = set(list_catalog())
    for required in ["C2", "S3", "A4", "D4", "Q8", "F5", "PSU(3,2)", "Aut(D9)",
                     "SmallGroup(32,7)", "SmallGroup(32,8)", "SmallGroup(32,44)",
                     "Z(Rep(S3))", "Z(Rep(A4))", "groups<=6classes"]:
        assert required in names
    rows = [n for n in names if load_entry(n).kind == "classificationRow"]
    assert len(rows) == 85


def test_classification_counts_by_family():
    totals = {}
    for name in list_catalog():
        entry = load_entry(name)
        if entry.kind == "classificationRow":
            row = entry.payload
            totals[row.family] = totals.get(row.family, 0) + row.count
    assert totals["rank<=3"] == 29
    assert totals["rank4"] == 57
    assert totals["rank5-tannakian45"] + totals["rank5-tannakian123"] == 14 + 41
    assert (totals["rank6-tannakian6"] + totals["rank6-tannakian4"]
            + totals["rank6-tannakian3"] + totals["rank6-tannakian2"]
            + totals["rank6-tannakian1"]) == 8 + 5 + 21 + 53 + 137


def test_rows_consistent():
    for name in list_catalog():
        entry = load_entry(name)
        if entry.kind == "classificationRow":
            entry.payload.verify()


def test_rank4_a19_row():
    row = load_entry("rank4/C(A1,9,q)_ad").payload
    dims = row.fpdims()
    expected = [1] + [quantum_integer(n, 9) for n in (3, 5, 7)]
    assert dims == pytest.approx(expected, abs=1e-12)
    assert sum(d * d for d in dims) == pytest.approx(
        9 / 4 / math.sin(math.pi / 9) ** 2, abs=1e-9)


def test_verify_catalog_all_pass():
    results = verify_catalog()
    assert results == sorted(results, key=lambda r: r[0])
    failures = [r for r in results if not r[1]]
    assert failures == []


def test_verify_catalog_deterministic():
    assert verify_catalog() == verify_catalog()


@pytest.fixture
def fresh_catalog(monkeypatch):
    """Catalog entries loaded anew for one test, so that nothing it stubs or
    adds stays in the shared entries or their caches."""
    monkeypatch.setattr(catalog, "_entries", functools.cache(catalog._entries.__wrapped__))


@pytest.mark.parametrize("module, name, stub, entry, detail", [
    (spectral, "formal_codegrees", lambda ring: [4], "S3",
     "codegree 4 of S3 does not divide |G| = 6"),
    (catalog, "balancing_check", lambda ring, m: [()], "Z(Rep(S3))",
     "Z(Rep(S3)): 1 balancing violations"),
    (catalog, "gauss_sums", lambda dims, twists: (0, 0), "Z(Rep(S3))",
     "Z(Rep(S3)): Gauss sum product misses global dim"),
    (spectral, "fpdims", lambda ring: np.zeros(ring.rank), "Z(Rep(S3))",
     "Z(Rep(S3)): FPdims disagree with S-matrix row 0"),
], ids=["codegree", "balancing", "gauss-sums", "fpdims"])
def test_verify_catalog_reports_a_failed_check(module, name, stub, entry, detail, monkeypatch,
                                               fresh_catalog):
    monkeypatch.setattr(module, name, stub)
    results = {n: (ok, d) for n, ok, d in verify_catalog()}
    assert results[entry] == (False, "FusionRingError: " + detail)


def test_verify_catalog_reports_bad_entries(fresh_catalog):
    entries = catalog._entries()
    entries["groups<=6classes"] = CatalogEntry(
        "groups<=6classes", "groupList", ({"order": 0, "numCentralInvolutive": 1},), "")
    entries["zz-ring"] = CatalogEntry("zz-ring", "ring", entry_ring("S3"), "")
    # a ring payload passed the axioms when its ring was built: a broken
    # tensor is refused there, so no entry can hold it
    tensor = fr.group_ring([2]).tensor.copy()
    tensor[1, 1, 0] = 2
    with pytest.raises(fr.AxiomViolation, match=r"^dual-pairing at \(1, 1, 0\)"):
        fr.FusionRing(["1", "x"], tensor, [0, 1])
    entries["zz-other"] = CatalogEntry("zz-other", "other", None, "")
    results = {n: (ok, d) for n, ok, d in verify_catalog()}
    assert results["groups<=6classes"] == (
        False, "FusionRingError: implausible group record {'order': 0, 'numCentralInvolutive': 1}")
    assert results["zz-ring"] == (True, "rank 3 fusion ring, axioms hold")
    assert results["zz-other"] == (False, "FusionRingError: unknown entry kind other")
    assert sum(not ok for ok, _ in results.values()) == 2


def test_duplicate_classification_row_is_refused(monkeypatch):
    read = catalog._read
    monkeypatch.setattr(catalog, "_read", lambda fname: read(fname) * 2
                        if fname == "classification_rows.json" else read(fname))
    with pytest.raises(fr.FusionRingError, match="^duplicate classification row "):
        catalog._entries.__wrapped__()


def test_fault_injection_detected():
    # corrupting a codegree or a dims entry on a debug copy must fail
    row = load_entry("rank<=3/C(A1,5,q)_ad").payload
    broken = ClassificationRow(row.name, row.family, row.fpdim_expr,
                               row.dim_exprs[:-1] + ("qint(3,7)",),
                               row.center, row.count)
    with pytest.raises(fr.FusionRingError):
        broken.verify()


def test_entry_ring_kinds():
    assert entry_ring("S3").rank == 3
    assert entry_ring("Z(Rep(S3))").rank == 8
    with pytest.raises(fr.FusionRingError):
        entry_ring("groups<=6classes")


def test_entry_ring_built_once():
    # each ring-valued entry builds its ring on first use and keeps it
    kinds = {"characterTable": fr.character_table_to_fusion_ring,
             "modularDatum": lambda m: fr.verlinde_fusion(m)[0]}
    entries = [load_entry(n) for n in list_catalog() if load_entry(n).kind in kinds]
    for entry in entries:
        assert entry_ring(entry.name) is entry_ring(entry.name) is entry.ring
        assert entry.ring == kinds[entry.kind](entry.payload), entry.name
    assert len(entries) == 13


def test_entry_ring_error_is_not_cached():
    entry = load_entry("groups<=6classes")
    message = "entry 'groups<=6classes' of kind groupList is not ring-valued"
    for _ in range(3):
        with pytest.raises(fr.FusionRingError) as exc:
            entry_ring("groups<=6classes")
        assert str(exc.value) == message
    assert not any(key.endswith("ring") for key in vars(entry))


def test_group_list_contents():
    groups = load_entry("groups<=6classes").payload
    assert len(groups) == 24
    by_name = {g["name"]: g for g in groups}
    assert by_name["PSU(3,2)"]["order"] == 72
    assert by_name["PSU(2,7)"]["order"] == 168
    assert by_name["C2^2"]["numCentralInvolutive"] == 4
    assert sum(1 for g in groups if g["numClasses"] == 6) == 8
