"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -v tests/test_acceptance.py` to see one line per criterion.
"""

import itertools
import json
import math

import numpy as np
import pytest

import fusionring as fr
from fusionring import cli
from fusionring.core import group_ring, product_ring
from fusionring.exact import RootOfUnity
from fusionring.premodular import ModularDatum

CHARACTER_TABLES = ["C2", "S3", "A4", "D4", "Q8", "F5", "PSU(3,2)", "Aut(D9)",
                    "SmallGroup(32,7)", "SmallGroup(32,8)", "SmallGroup(32,44)"]
DOUBLES = ["Z(Rep(S3))", "Z(Rep(A4))"]


def _note(text):
    print(f"ACCEPTANCE {text}")


def test_criterion_01_catalog_integrity(capsys):
    code = cli.run(["catalog", "verify"])
    assert code == 0
    results = fr.verify_catalog()
    assert all(ok for _, ok, _ in results)
    for name in CHARACTER_TABLES:
        ring = fr.entry_ring(name)  # construction validates all axioms exactly
        assert ring.rank >= 2
    with capsys.disabled():
        _note(f"criterion 1 pass: catalog verify clean on {len(results)} entries, exit 0")


def test_criterion_02_formal_codegrees(capsys):
    s3 = fr.formal_codegrees(fr.entry_ring("S3"))
    a4 = fr.formal_codegrees(fr.entry_ring("A4"))
    assert s3 == [6, 3, 2]
    assert a4 == [12, 4, 3, 3]
    with capsys.disabled():
        _note(f"criterion 2 pass: codegrees Rep(S3) -> {s3}, Rep(A4) -> {a4}")


def test_criterion_03_near_integral_detection(capsys):
    expected = {"C2": 0, "S3": 1, "A4": 2, "D4": 0, "Q8": 0, "F5": 3,
                "PSU(3,2)": 7, "Aut(D9)": 3,
                "SmallGroup(32,7)": 0, "SmallGroup(32,8)": 0,
                "SmallGroup(32,44)": 0}
    for name, kappa in expected.items():
        report = fr.detect(fr.entry_ring(name))
        assert report is not None and report.kappa == kappa, name
    psu = fr.detect(fr.entry_ring("PSU(3,2)"))
    assert (psu.d_plus, psu.d_minus) == (8.0, -1.0)
    assert abs(fr.dim_a_chi_minus(psu) - 8.0) <= 1e-9
    with capsys.disabled():
        _note("criterion 3 pass: kappa map matches on all 11 tables; "
              "PSU(3,2) roots (8,-1), dim(A_chi-) = 8 within 1e-9")


def test_criterion_04_theorem_round_trip(capsys):
    checked = 0
    for name in CHARACTER_TABLES:
        sub = fr.entry_ring(name)
        dims = fr.fpdims(sub)
        assert np.allclose(dims, np.round(dims), atol=1e-8)  # integral
        n = int(round(float(np.sum(dims ** 2))))
        for kappa in range(6):
            ring = fr.construct(sub, kappa)
            report = fr.detect(ring)
            assert report is not None, (name, kappa)
            assert report.kappa == kappa
            assert report.big_n == n
            assert report.subring_indices == tuple(range(sub.rank))
            _, chi_minus = fr.nearintegral.distinguished_characters(ring, report)
            kernel, closed = fr.nearintegral.character_kernel(ring, chi_minus)
            assert kernel == tuple(range(sub.rank))
            assert closed
            checked += 1
    with capsys.disabled():
        _note(f"criterion 4 pass: detect(construct(S,k)) round trip with "
              f"chi- kernel = S on {checked} (ring, kappa) pairs")


def test_criterion_05_verlinde_and_balancing(capsys):
    gdims = {}
    for name, want in zip(DOUBLES, (36.0, 144.0)):
        m = fr.load_entry(name).payload
        ring, info = fr.verlinde_fusion(m)
        assert ring.tensor.min() >= 0
        assert info["globalDim"] == pytest.approx(want, abs=1e-9)
        assert fr.balancing_check(ring, m) == []
        gdims[name] = info["globalDim"]
        rng = np.random.default_rng(11)
        i = int(rng.integers(1, ring.rank))
        t = list(m.t)
        t[i] = RootOfUnity(7 * t[i].num + t[i].den, 7 * t[i].den)  # t[i] times zeta_7
        assert len(fr.balancing_check(ring, ModularDatum(m.s, tuple(t)))) >= 1
    with capsys.disabled():
        _note(f"criterion 5 pass: Verlinde integral with global dims "
              f"{sorted(gdims.values())}, balancing clean, perturbation breaks it")


def test_criterion_06_gauss_sums(capsys):
    for name in DOUBLES:
        m = fr.load_entry(name).payload
        plus, minus = fr.gauss_sums(m.dims, m.twist_values())
        assert abs(plus * minus - m.global_dim) < 1e-6
    with capsys.disabled():
        _note("criterion 6 pass: tau+ tau- = global dim on every catalog modular datum")


def test_criterion_07_pre_metric_groups(capsys):
    counts = {(2,): len(fr.quadratic_forms([2])),
              (3,): len(fr.quadratic_forms([3])),
              (9,): len(fr.quadratic_forms([9]))}
    assert counts == {(2,): 4, (3,): 3, (9,): 9}
    classes = {(9,): len(fr.form_classes([9])),
               (3, 3): len(fr.form_classes([3, 3])),
               (2,): len(fr.form_classes([2]))}
    assert classes == {(9,): 5, (3, 3): 5, (2,): 4}
    with capsys.disabled():
        _note("criterion 7 pass: form counts C2->4 C3->3 C9->9; "
              "classes C9->5 C3xC3->5 C2->4")


def test_criterion_08_braided_cases(capsys):
    c8 = {r[0]: r for r in fr.braided_cases(8)}
    assert c8[2][1] == 24 and "zeta(3," in c8[2][2]
    c12 = {r[0]: r for r in fr.braided_cases(12)}
    assert c12[4][1] == 48 and c12[4][2] == "theta_rho = -1"
    c5 = fr.braided_cases(5)
    assert [r[0] for r in c5] == [0]
    with capsys.disabled():
        _note("criterion 8 pass: cases(8) has (2,24,zeta3^+-1); "
              "cases(12) has (4,48,-1); cases(5) only kappa=0")


def test_criterion_09_extraspecial_family(capsys):
    assert fr.extraspecial_kappa(3, 1) == (3, 18, 6)
    for p, n in itertools.product((3, 5, 7), (1, 2)):
        kappa, big_n, d_plus = fr.extraspecial_kappa(p, n)
        assert d_plus * d_plus - kappa * d_plus - big_n == 0
    with capsys.disabled():
        _note("criterion 9 pass: extraspecial (3,1) -> (3,18,6); "
              "quadratic identity exact for p in {3,5,7}, n in {1,2}")


def test_criterion_10_classification_rows(capsys):
    rows = 0
    worst = 0.0
    for name in fr.list_catalog():
        entry = fr.load_entry(name)
        if entry.kind != "classificationRow":
            continue
        err = entry.payload.consistency_error()
        assert err <= 1e-6, name
        worst = max(worst, err)
        rows += 1
    assert rows == 85
    a19 = fr.load_entry("rank4/C(A1,9,q)_ad").payload
    assert sum(d * d for d in a19.fpdims()) == pytest.approx(
        9 / 4 / math.sin(math.pi / 9) ** 2, abs=1e-9)
    with capsys.disabled():
        _note(f"criterion 10 pass: {rows} rows, worst sum-of-squares error {worst:.2e}")


def _brute_force_associative(ring) -> bool:
    n = ring.rank
    t = ring.tensor
    for i, j, k in itertools.product(range(n), repeat=3):
        left = sum(int(t[i, j, a]) * t[a, k] for a in range(n))
        right = sum(int(t[j, k, b]) * t[i, b] for b in range(n))
        if not np.array_equal(left, right):
            return False
    return True


def test_criterion_11_property_suites(capsys):
    # character orthogonality on every commutative catalog ring
    commutative = 0
    for name in CHARACTER_TABLES + DOUBLES:
        ring = fr.entry_ring(name)
        if not ring.is_commutative():
            continue
        m = np.array([c.values for c in fr.characters(ring)])
        gram = m @ m.conj().T
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-6
        commutative += 1
    # FPdim multiplicativity under products on 20 random pairs
    pool = [fr.entry_ring(n) for n in CHARACTER_TABLES[:6]] + [
        group_ring([2]), group_ring([3]), group_ring([2, 2])]
    rng = np.random.default_rng(2026)
    for _ in range(20):
        a, b = (pool[int(x)] for x in rng.integers(0, len(pool), 2))
        ab = product_ring(a, b)
        assert fr.ring_fpdim(ab) == pytest.approx(
            fr.ring_fpdim(a) * fr.ring_fpdim(b), rel=1e-9)
    # brute-force associativity oracle on all catalog rings of rank <= 4
    small = [n for n in CHARACTER_TABLES if fr.entry_ring(n).rank <= 4]
    for name in small:
        assert _brute_force_associative(fr.entry_ring(name))
    assert len(small) >= 2
    with capsys.disabled():
        _note(f"criterion 11 pass: orthogonality on {commutative} commutative rings, "
              f"20 product pairs multiplicative, associativity oracle on {small}")
