"""Fusion ring axioms, group rings, character rings and JSON round trips."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fusionring as fr
from fusionring.core import (AxiomViolation, CharacterTable, FusionRing, FusionRingError,
                             MalformedInput, NonIntegralMultiplicity,
                             character_table_to_fusion_ring, group_ring,
                             product_ring, ring_from_json, ring_to_json,
                             table_from_json, table_to_json, validate_tensor)
from fusionring.exact import snap_int

TABLES = [name for name in fr.list_catalog()
          if fr.load_entry(name).kind == "characterTable"]


def fib_ring():
    tensor = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    return FusionRing.validated(["1", "tau"], tensor, [0, 1])


def ising_ring():
    # 1, psi, sigma with sigma^2 = 1 + psi
    t = np.zeros((3, 3, 3), dtype=int)
    t[0] = np.eye(3)
    t[:, 0] = np.eye(3)
    t[1, 1, 0] = 1
    t[1, 2, 2] = t[2, 1, 2] = 1
    t[2, 2, 0] = t[2, 2, 1] = 1
    return FusionRing.validated(["1", "psi", "sigma"], t, [0, 1, 2])


def test_group_ring_cyclic():
    ring = group_ring([6])
    assert ring.rank == 6
    assert ring.is_commutative()
    assert ring.dual[1] == 5
    # convolution: b1 * b2 = b3
    assert ring.tensor[1, 2, 3] == 1 and ring.tensor[1, 2].sum() == 1


def test_group_ring_product_factors():
    ring = group_ring([2, 2])
    assert ring.rank == 4
    assert all(ring.dual[i] == i for i in range(4))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=2))
def test_group_ring_always_valid(factors):
    ring = group_ring(factors)
    assert not validate_tensor(ring.tensor, ring.dual)


def test_validated_rejects_broken_associativity():
    # x^2 = 1 + kappa x is associative for every kappa (near-group of Z1)
    t = np.zeros((2, 2, 2), dtype=int)
    t[0] = np.eye(2)
    t[:, 0] = np.eye(2)
    t[1, 1, 0] = 1
    t[1, 1, 1] = 3
    FusionRing.validated(["1", "x"], t, [0, 1])
    # doubling one off-axis coefficient of the C3 group ring is not
    t2 = np.array(group_ring([3]).tensor)
    t2[1, 1, 2] = 2
    with pytest.raises(AxiomViolation):
        FusionRing.validated(["1", "g", "g2"], t2, [0, 2, 1])


def test_violation_report_names_axioms():
    ring = group_ring([3])
    t = np.array(ring.tensor)
    t[1, 2, 0] = 0  # kill the duality pairing
    violations = validate_tensor(t, ring.dual)
    assert violations
    assert any(v[0] == "dual-pairing" for v in violations)


def test_frobenius_reciprocity_violation_detected():
    t = np.zeros((3, 3, 3), dtype=int)
    t[0] = np.eye(3)
    t[:, 0] = np.eye(3)
    t[1, 2, 0] = t[2, 1, 0] = 1
    t[1, 1, 2] = 1  # b1*b1 = b2 but b2*b2 = 0: reciprocity/associativity break
    violations = validate_tensor(t, [0, 2, 1])
    assert violations


def test_product_ring():
    a, b = fib_ring(), group_ring([2])
    ab = product_ring(a, b)
    assert ab.rank == 4
    assert not validate_tensor(ab.tensor, ab.dual)
    assert fr.ring_fpdim(ab) == pytest.approx(fr.ring_fpdim(a) * fr.ring_fpdim(b))


def test_fuse_and_basis_vector():
    ring = ising_ring()
    out = ring.fuse(ring.basis_vector(2), ring.basis_vector(2))
    assert list(out) == [1, 1, 0]


def test_ring_json_round_trip():
    ring = ising_ring()
    data = ring_to_json(ring)
    back = ring_from_json(json.dumps(data))
    assert back == ring


def test_ring_json_dual_recovery():
    ring = group_ring([5])
    data = ring_to_json(ring)
    del data["dual"]
    back = ring_from_json(data)
    assert list(back.dual) == list(ring.dual)


@pytest.mark.parametrize("data", [
    '{"tensor": ',
    '[1, 2]',
    '{"tensor": [[[1, 0], [0, 1]], [[0, 1]]]}',
    '{"tensor": "x"}',
    '{"tensor": null}',
    '{"tensor": []}',
    '{"tensor": [[["a"]]]}',
    '{"tensor": [[[1, 0], [0, 1]], [[0, 1], [1e300, 0]]]}',
    '{"tensor": [[[1]]], "labels": 5}',
    '{"tensor": [[[1]]], "dual": 0}',
    '{"tensor": [[[1]]], "dual": [true]}',
])
def test_ring_from_json_rejects_malformed(data):
    with pytest.raises(MalformedInput):
        ring_from_json(data)


@pytest.mark.parametrize("entry, error", [
    (1.000009, NonIntegralMultiplicity),
    (1 + 1e-12, NonIntegralMultiplicity),
    (1j, NonIntegralMultiplicity),
    (-1.0, NonIntegralMultiplicity),
    (1.0, None),
])
def test_float_tensor_must_be_exact(entry, error):
    tensor = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 1]]], dtype=type(entry))
    tensor[1, 1, 1] = entry
    if error is None:
        assert FusionRing.validated(["1", "tau"], tensor, [0, 1]) == fib_ring()
    else:
        with pytest.raises(error):
            FusionRing(["1", "tau"], tensor, [0, 1])


def loop_character_ring(table, tol=1e-9):
    """Reference: the character ring snapped one inner product at a time."""
    r = table.num_classes
    rows = table.rows
    w = np.array(table.class_sizes, dtype=float) / table.order
    tensor = np.zeros((r, r, r))
    for i in range(r):
        for j in range(r):
            prod = rows[i] * rows[j]
            for k in range(r):
                val = np.sum(w * prod * rows[k].conj())
                if abs(val.imag) > tol:
                    raise NonIntegralMultiplicity(
                        f"<chi_{i} chi_{j}, chi_{k}> = {val} is not real")
                m = snap_int(val.real, tol)
                if m is None or m < 0:
                    raise NonIntegralMultiplicity(
                        f"<chi_{i} chi_{j}, chi_{k}> = {val.real} is not a nonnegative integer")
                tensor[i, j, k] = m
    dual = []
    for i in range(r):
        matches = [k for k in range(r) if np.allclose(rows[k], rows[i].conj(), atol=1e-8)]
        if len(matches) != 1:
            raise FusionRingError(f"conjugate of row {i} matches rows {matches}")
        dual.append(matches[0])
    labels = [f"chi{i}[{int(round(d))}]" for i, d in enumerate(table.degrees)]
    return FusionRing.validated(labels, tensor, dual)


def outcome(build, arg):
    """("ok", result), or the exception class and message with the printed
    inner-product value masked, since its last digits depend on the
    summation order."""
    try:
        return "ok", build(arg)
    except FusionRingError as exc:
        return type(exc), re.sub(r" = \S+ is not", " = _ is not", str(exc))


@pytest.mark.parametrize("table", [
    *(fr.load_entry(name).payload for name in TABLES),
    CharacterTable(2, [[1, 1], [1, -3]], (1, 1)),  # <chi_0 chi_0, chi_1> = -1
    CharacterTable(2, [[1, 1], [1, 1]], (1, 1)),  # row 0 is conjugate to both rows
], ids=[*TABLES, "negative", "two-conjugates"])
def test_character_ring_matches_loop(table):
    ring = outcome(character_table_to_fusion_ring, table)
    assert ring == outcome(loop_character_ring, table)
    assert ring[0] != "ok" or ring[1].tensor.dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLES), st.data())
def test_perturbed_character_table_matches_loop(name, data):
    """One entry moved by a real or imaginary amount, or its sign flipped;
    or two entries of a row moved so that <chi_a, 1> is unchanged, which
    moves the first failing cell past (0, 0, a)."""
    table = fr.load_entry(name).payload
    rows = table.rows.copy()
    r = table.num_classes
    a, x, y = (data.draw(st.integers(0, r - 1)) for _ in range(3))
    kind = data.draw(st.sampled_from(["one", "flip", "pair"]))
    delta = data.draw(st.floats(1e-6, 0.5)) * data.draw(st.sampled_from([1, -1, 1j, -1j]))
    if kind == "one":
        rows[a, x] += delta
    elif kind == "flip":
        rows[a, x] = -rows[a, x]
    else:
        assume(x != y)
        w = np.array(table.class_sizes) / table.order
        rows[a, x] += delta / w[x]
        rows[a, y] -= delta / w[y]
    broken = CharacterTable(table.order, rows, table.class_sizes)
    want = outcome(loop_character_ring, broken)
    assert outcome(character_table_to_fusion_ring, broken) == want


def test_character_table_class_sizes_derived():
    table = fr.load_entry("S3").payload
    assert table.class_sizes == (1, 2, 3)
    a4 = fr.load_entry("A4").payload
    assert a4.class_sizes == (1, 3, 4, 4)


def test_character_table_validation_catches_bad_order():
    with pytest.raises(Exception):
        CharacterTable.from_rows(7, [[1, 1], [1, -1]])


def test_s3_character_ring_rules():
    ring = character_table_to_fusion_ring(fr.load_entry("S3").payload)
    # two-dimensional rep squares to 1 + sign + itself
    assert list(ring.tensor[2, 2]) == [1, 1, 1]
    assert ring.is_commutative()
    assert all(ring.is_self_dual(i) for i in range(ring.rank))


def test_a4_duality_swaps_conjugate_linears():
    ring = character_table_to_fusion_ring(fr.load_entry("A4").payload)
    assert list(ring.dual) == [0, 2, 1, 3]


def test_table_json_round_trip():
    table = fr.load_entry("Aut(D9)").payload
    back = table_from_json(table_to_json(table))
    assert back.order == table.order
    assert np.allclose(back.rows, table.rows)
    assert back.class_sizes == table.class_sizes
