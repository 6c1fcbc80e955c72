"""Fusion ring axioms, group rings, character rings and JSON round trips."""

import ast
import copy
import inspect
import io
import itertools
import json
import math
import re
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fusionring as fr
from fusionring import cli, core, premodular, spectral
from fusionring.core import (AxiomViolation, CharacterTable, FusionRing, FusionRingError,
                             MalformedInput, NonIntegralMultiplicity,
                             _associativity_violations, character_table_to_fusion_ring,
                             group_ring, product_ring, ring_from_json, ring_to_json,
                             table_from_json, table_to_json, validate_tensor)
from fusionring.exact import SNAP_TOL
from shared_rings import dihedral_table, ordered_factor_lists, refuse, s3_group_ring

TABLES = [name for name in fr.list_catalog()
          if fr.load_entry(name).kind == "characterTable"]


FIB = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]


def fib_ring():
    return FusionRing(["1", "tau"], FIB, [0, 1])


def ising_ring():
    # 1, psi, sigma with sigma^2 = 1 + psi
    t = np.zeros((3, 3, 3), dtype=int)
    t[0] = np.eye(3)
    t[:, 0] = np.eye(3)
    t[1, 1, 0] = 1
    t[1, 2, 2] = t[2, 1, 2] = 1
    t[2, 2, 0] = t[2, 2, 1] = 1
    return FusionRing(["1", "psi", "sigma"], t, [0, 1, 2])


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


def _loop_group_ring(orders) -> FusionRing:
    """group_ring of cyclic orders as it was built by a double loop over
    element tuples, kept as an oracle."""
    elements = list(itertools.product(*[range(o) for o in orders]))
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    labels = ["e" if all(x == 0 for x in e) else "+".join(
        f"{x}g{i}" for i, x in enumerate(e) if x) for e in elements]
    tensor = np.zeros((n, n, n), dtype=np.int64)
    dual = [0] * n
    for e in elements:
        i = index[e]
        dual[i] = index[tuple((-x) % o for x, o in zip(e, orders))]
        for f in elements:
            prod = tuple((x + y) % o for x, y, o in zip(e, f, orders))
            tensor[i, index[f], index[prod]] = 1
    return FusionRing(labels, tensor, dual)


def test_group_ring_of_orders_is_unchecked_and_matches_loop(monkeypatch):
    specs = ordered_factor_lists(32) + [[1], [3, 1], [8, 8], [2] * 6]
    monkeypatch.setattr(core, "validate_tensor", refuse)
    rings = [group_ring(spec) for spec in specs]
    monkeypatch.undo()
    for spec, ring in zip(specs, rings):
        assert ring == _loop_group_ring(spec), spec
        assert validate_tensor(ring.tensor, ring.dual) == [], spec
    assert len(specs) == 140


def test_group_tables_built_once_and_read_only():
    grp = core._Group((2, 4))
    assert core._Group((2, 4)) is grp
    for arr in (grp.coords, grp.mods, grp.strides, grp.add, grp.neg, grp.gens):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


@pytest.mark.parametrize("factors", [(), (16,), (32,), (48,), (8, 8), (9,), (3, 3), (4, 2),
                                     (2, 3, 5, 7)])
def test_place_values_are_the_products_of_later_orders(factors):
    for orders in (factors, premodular._form_orders(factors)):
        got = core._place_values(orders)
        assert got.dtype == np.int64
        assert got.tolist() == [math.prod(orders[t + 1:]) for t in range(len(orders))]


@pytest.mark.parametrize("table", [[[0, 5], [5, 0]], [[0, -1], [-1, 0]]])
def test_group_ring_rejects_table_entries_out_of_range(table):
    with pytest.raises(FusionRingError, match=r"entries must lie in range\(2\)"):
        group_ring(table)


def test_table_entries_are_read_by_the_one_integer_test():
    # the entry types are checked as a set, in one pass; a 0-d array sends
    # the table to exact._is_int entry by entry, and past-int64 ints and
    # numpy bools are refused like Python bools
    want = group_ring([[0, 1], [1, 0]])
    for entry in (np.int64(1), np.uint64(1), np.array(1), np.array(1, dtype=np.uint8)):
        assert group_ring([[0, entry], [entry, 0]]) == want, repr(entry)
    for entry in (np.bool_(True), np.array(True), np.array(1.0), np.float64(1), 2 ** 70, None, "1"):
        with pytest.raises(FusionRingError, match=r"entries must lie in range\(2\)"):
            group_ring([[0, entry], [entry, 0]])


def test_validated_rejects_broken_associativity():
    # x^2 = 1 + kappa x is associative for every kappa (near-group of Z1)
    t = np.zeros((2, 2, 2), dtype=int)
    t[0] = np.eye(2)
    t[:, 0] = np.eye(2)
    t[1, 1, 0] = 1
    t[1, 1, 1] = 3
    FusionRing(["1", "x"], t, [0, 1])
    # doubling one off-axis coefficient of the C3 group ring is not
    t2 = np.array(group_ring([3]).tensor)
    t2[1, 1, 2] = 2
    with pytest.raises(AxiomViolation):
        FusionRing(["1", "g", "g2"], t2, [0, 2, 1])


def test_a_ring_breaking_an_axiom_cannot_be_built():
    # C4 with c_22^2 = 1 added: associative nowhere near g2, and refused
    # with validate_tensor's whole list, before any function can read it
    t = np.array(group_ring([4]).tensor)
    t[2, 2, 2] = 1
    want = validate_tensor(t, [0, 3, 2, 1])
    assert len(want) == 8 and {name for name, _, _ in want} == {"associativity"}
    with pytest.raises(AxiomViolation) as refused:
        FusionRing(["e", "g", "g2", "g3"], t)
    assert refused.value.violations == want and refused.value.rank == 4


PERTURBABLE = {"Fib": fib_ring, "Ising": ising_ring, "C4": lambda: group_ring([4]),
               "C2xC2": lambda: group_ring([2, 2]), "S3": s3_group_ring,
               "A4": lambda: fr.entry_ring("A4"),
               "R(C3,2)": lambda: fr.construct(group_ring([3]), 2)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PERTURBABLE)), st.data())
def test_constructor_raises_exactly_on_violations(name, data):
    # up to three +-1 edits, kept nonnegative, each maybe mirrored to
    # c_{i* k}^j so that the first Frobenius identity holds, and maybe two
    # non-unit duals swapped: the constructor raises AxiomViolation iff
    # validate_tensor lists a violation, and with that list
    ring = PERTURBABLE[name]()
    t, dual, n = np.array(ring.tensor, dtype=np.int64), list(ring.dual), ring.rank
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 3))):
        i, j, k = data.draw(index), data.draw(index), data.draw(index)
        t[i, j, k] = max(0, t[i, j, k] + data.draw(st.sampled_from([-1, 1])))
        if data.draw(st.booleans()):
            t[dual[i], k, j] = t[i, j, k]
    if n > 2 and data.draw(st.booleans()):
        a, b = data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
        dual[a], dual[b] = dual[b], dual[a]
    want = validate_tensor(t, dual)
    try:
        built = FusionRing(range(n), t, dual)
    except AxiomViolation as exc:
        assert want and exc.violations == want and exc.rank == n
    else:
        assert want == [] and built.dual == tuple(dual)


def test_violation_report_names_axioms():
    ring = group_ring([3])
    t = np.array(ring.tensor)
    t[1, 2, 0] = 0  # kill the duality pairing
    violations = validate_tensor(t, ring.dual)
    assert violations
    assert any(v[0] == "dual-pairing" for v in violations)


@pytest.mark.parametrize("dual, want", [
    ([0, 0, 2, 3], [((0, 0, 2, 3), "dual is not a permutation")]),
    ([1, 0, 2, 3], [((0,), "dual of the unit is not the unit")]),
    ([0, 2, 3, 1], [((1,), "dual is not an involution"), ((2,), "dual is not an involution"),
                    ((3,), "dual is not an involution")]),
])
def test_duality_violations(dual, want):
    violations = validate_tensor(group_ring([4]).tensor, dual)
    assert [(i, d) for a, i, d in violations if a == "duality"] == want


@pytest.mark.parametrize("order, rows, sizes, message", [
    (2, [[1, 1], [-1, 1]], (1, 1), "column 0 must hold positive integer degrees"),
    (3, [[1, 1], [1, -1]], (1, 2), "sum of squared degrees must equal the group order"),
    (2, [[1, 1], [1, -1]], (1, 2), "class sizes must sum to the group order"),
    (2, [[1, 1], [1, 1]], (1, 1), "column orthogonality fails"),
    (0, np.zeros((0, 0)), (), "character table must be square"),
    # the squared degree (2^27 + 1)^2 is summed in ints, not rounded in floats
    ((2 ** 27 + 1) ** 2, [[2 ** 27 + 1]], None, "class sizes must sum to the group order"),
    (1, [[10 ** 4]], None, "column 0: |G|/sum|chi(x)|^2 = 1e-08 is not a positive integer"),
    (2, [[1, 1], [1, -1]], (2, 0), "class sizes must list one positive integer per class"),
    (2, [[1, 1], [1, -1]], (2,), "class sizes must list one positive integer per class"),
])
def test_character_table_checks(order, rows, sizes, message):
    """Refusals of the constructor, with fixed data; a numpy warning would
    fail the test too."""
    with pytest.raises(FusionRingError, match=f"^{re.escape(message)}$"):
        CharacterTable(order, rows, sizes)


@pytest.mark.parametrize("data, error, message", [
    ({"order": 1, "rows": [[0]]}, NonIntegralMultiplicity,  # a zero column, with no warning
     r"^column 0: \|G\|/sum\|chi\(x\)\|\^2 = inf is not a positive integer$"),
    ({"order": 2, "rows": [[1, 1], [1, -1]], "classSizes": [0, 2]}, MalformedInput,
     r"^class sizes must list one positive integer per class$"),
], ids=["zero-column", "zero-size"])
def test_table_json_refusals(data, error, message):
    with pytest.raises(error, match=message):
        table_from_json(data)


@pytest.mark.parametrize("sizes, message", [
    ((2, 0), "class sizes must list one positive integer per class"),
    ((2,), "class sizes must list one positive integer per class"),
    ((1, 1, 0), "class sizes must list one positive integer per class"),
    ((1, 1.0), "class sizes must be integers"),
    (2, "class sizes must be integers"),
    ("11", "class sizes must be integers"),
])
def test_class_sizes_are_checked_once_as_input(sizes, message):
    # the constructor is the one check of given sizes, for table JSON too
    with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
        CharacterTable(2, [[1, 1], [1, -1]], sizes)
    with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
        table_from_json({"order": 2, "rows": [[1, 1], [1, -1]], "classSizes": sizes})


def test_column_orthogonality_is_bounded_per_entry():
    # |G| = 2^62 + 1 with degrees (1, 2^31) and sizes (1, 2^62): chi_1(x_1) =
    # 1000 misses |C_G(x_1)| = 1 by 1e6 and the (0, 1) entry 0 by 2.1e12,
    # within SNAP_TOL |G| = 4.6e12 but far outside SNAP_TOL sqrt(|C_G(x)| |C_G(y)|)
    with pytest.raises(FusionRingError, match="^column orthogonality fails$"):
        CharacterTable(2 ** 62 + 1, [[1, 1], [2 ** 31, 1000]], (1, 2 ** 62))


@pytest.mark.parametrize("rows", [[[1], [1]], [1]], ids=["2x1", "1-d"])
def test_the_shape_is_checked_before_sizes_are_derived(rows):
    with pytest.raises(FusionRingError, match="^character table must be square$"):
        CharacterTable(len(rows), rows)


@pytest.mark.parametrize("order, rows", [(10 ** 400, [[10 ** 200]]), ("6", [[1]])],
                         ids=["past-int64", "string"])
def test_the_order_is_checked_before_sizes_are_derived(order, rows):
    with pytest.raises(MalformedInput, match=r"^'order' must be a positive integer below 2\^63$"):
        CharacterTable(order, rows)


def test_character_table_reads_its_degrees_once_as_ints():
    table = fr.load_entry("A4").payload
    assert table.degrees == (1, 1, 1, 3)
    assert {type(d) for d in table.degrees} == {int}
    assert type(CharacterTable(np.int64(2), [[1, 1], [1, -1]]).order) is int


def test_frobenius_reciprocity_violation_detected():
    t = np.zeros((3, 3, 3), dtype=int)
    t[0] = np.eye(3)
    t[:, 0] = np.eye(3)
    t[1, 2, 0] = t[2, 1, 0] = 1
    t[1, 1, 2] = 1  # b1*b1 = b2 but b2*b2 = 0: reciprocity/associativity break
    violations = validate_tensor(t, [0, 2, 1])
    assert violations


def loop_frobenius(t, dual, identity):
    """Violations of one Frobenius identity as validate_tensor lists them:
    every (i, j, k) with c_ij^k != c_{i* k}^j (identity 0) or with
    c_ij^k != c_{k j*}^i (identity 1)."""
    c = np.asarray(t).tolist()
    out = []
    for i, j, k in itertools.product(range(len(dual)), repeat=3):
        a, b, m = (dual[i], k, j) if identity == 0 else (k, dual[j], i)
        if c[i][j][k] != c[a][b][m]:
            out.append(("frobenius", (i, j, k), f"c[{i}][{j}][{k}] = {c[i][j][k]} but "
                                                 f"c[{a}][{b}][{m}] = {c[a][b][m]}"))
    return out


def _perturbed(ring, rng, kind):
    """ring's tensor and dual with one to three seeded edits: +-1 entries
    (kind 0), +-1 edits copied to c_{i* k}^j so that the first Frobenius
    identity still holds (kind 1), or swapped duals of non-unit elements
    (kind 2)."""
    t, dual, n = np.array(ring.tensor, dtype=np.int64), list(ring.dual), ring.rank
    for _ in range(int(rng.integers(1, 4))):
        i, j, k = (int(x) for x in rng.integers(0, n, 3))
        delta = int(rng.choice([-1, 1]))
        if kind == 0:
            t[i, j, k] += delta
        elif kind == 1:
            t[i, j, k] = t[dual[i], k, j] = t[i, j, k] + delta
        else:
            a, b = rng.choice(np.arange(1, n), 2, replace=False)
            dual[a], dual[b] = dual[b], dual[a]
    return t, dual


def test_frobenius_violations_match_loop():
    # the whole list, entries and order: duality, unit and pairing
    # violations, the Frobenius ones of the loop, then associativity
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0] = np.eye(3)
    t[:, 0] = np.eye(3)
    t[1, 2, 0] = t[2, 1, 0] = 1
    t[1, 1, 2] = 1
    c3 = np.array(group_ring([3]).tensor)
    c3[1, 1, 2] = 2
    c3[2, 1, 0] = 0
    cases = [(t, [0, 2, 1]), (c3, [0, 2, 1])]
    assert all(loop_frobenius(tensor, dual, 0) for tensor, dual in cases)
    bases = [fr.entry_ring(name) for name in TABLES] + [
        group_ring([16]), group_ring([4, 4]), group_ring([2] * 5),
        fr.construct(group_ring([17]), 3), s3_group_ring()]
    rng = np.random.default_rng(5)
    cases += [_perturbed(ring, rng, kind) for ring in bases for kind in (0, 1, 2) * 3
              if kind < 2 or ring.rank > 2]
    second_only = valid = 0
    for tensor, dual in cases:
        got = validate_tensor(tensor, dual)
        first, second = loop_frobenius(tensor, dual, 0), loop_frobenius(tensor, dual, 1)
        assert got == ([v for v in got if v[0] in ("duality", "unit", "dual-pairing")]
                       + first + second + _associativity_violations(tensor))
        second_only += bool(second) and not first
        valid += not got
    # the mirrored edits leave the first identity and break the second
    assert second_only >= len(bases) and valid < len(cases) // 10
    # validate_tensor does not compare the second identity on a ring that
    # passes every other check: that it then holds is a theorem
    rings = bases + [fr.entry_ring(name) for name in fr.list_catalog()
                     if fr.load_entry(name).kind == "modularDatum"]
    rings.append(product_ring(s3_group_ring(), fr.entry_ring("A4")))
    for ring in rings:
        assert not validate_tensor(ring.tensor, ring.dual)
        assert not loop_frobenius(ring.tensor, ring.dual, 1), ring.labels


def test_int64_tensor_is_kept_read_only_not_copied():
    # a tensor already in its storage dtype is kept: uint8 for Fibonacci,
    # int64 once an entry needs it (tau^2 = 1 + 2^32 tau)
    for dtype, top in ((np.uint8, 1), (np.int64, 2 ** 32)):
        t = np.array([[[1, 0], [0, 1]], [[0, 1], [1, top]]], dtype=dtype)
        ring = FusionRing(["1", "tau"], t, [0, 1])
        assert np.shares_memory(ring.tensor, t)
        assert not ring.tensor.flags.writeable and not t.flags.writeable
    for dtype in (np.int64, np.int32, np.float64):
        other = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 1]]], dtype=dtype)
        ring = FusionRing(["1", "tau"], other, [0, 1])
        assert ring.tensor.dtype == np.uint8 and not np.shares_memory(ring.tensor, other)
        assert not ring.tensor.flags.writeable and other.flags.writeable
        assert ring == fib_ring()


def test_product_ring():
    a, b = fib_ring(), group_ring([2])
    ab = product_ring(a, b)
    assert ab.rank == 4
    assert not validate_tensor(ab.tensor, ab.dual)
    assert fr.ring_fpdim(ab) == pytest.approx(fr.ring_fpdim(a) * fr.ring_fpdim(b))


def test_associativity_exact_beyond_int64():
    # x x = 1, x y = y x = K y and y y = K + x: (x x) y = y but
    # x (x y) = K^2 y. Every associator is a multiple of K^2 - 1, which is 0
    # mod 2^64 for K = 2^63 - 1, so int64 arithmetic would find none
    k = 2 ** 63 - 1
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0] = t[:, 0] = np.eye(3, dtype=np.int64)
    t[1, 1, 0] = t[2, 2, 1] = 1
    t[1, 2, 2] = t[2, 1, 2] = t[2, 2, 0] = k
    assert any(name == "associativity" for name, _, _ in validate_tensor(t, [0, 1, 2]))


def test_product_ring_beyond_int64():
    # R(C1, 2^32) has rho^2 = 1 + 2^32 rho, so its square has the
    # multiplicity 2^64, which wraps to 0 in int64
    big = fr.construct(group_ring([1]), 2 ** 32)
    ab = product_ring(big, big)
    assert int(ab.tensor.max()) == 2 ** 64
    assert ab.fuse(ab.basis_vector(3), ab.basis_vector(3)).tolist()[3] == 2 ** 64
    assert not validate_tensor(ab.tensor, ab.dual)
    codegrees = fr.formal_codegrees(ab)
    assert len(codegrees) == 4
    # the Perron dims read the Python-int tensor a block at a time
    assert spectral._perron_dims(ab) == pytest.approx(spectral.fpdims(ab), rel=1e-12)
    assert sum(1 / float(f) for f in codegrees) == pytest.approx(1.0, rel=1e-12)


def einsum_associativity_violations(tensor):
    """Reference: both sides as full n^4 tensors of Python ints."""
    t = np.asarray(tensor).astype(object)
    left = np.einsum("ijt,tkm->ijkm", t, t)
    right = np.einsum("jkt,itm->ijkm", t, t)
    return [("associativity", (int(i), int(j), int(k), int(m)),
             f"sum_t c[{i}][{j}][t] c[t][{k}][{m}] = {left[i, j, k, m]} "
             f"!= {right[i, j, k, m]}")
            for i, j, k, m in zip(*np.nonzero(left != right))]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.sampled_from([3, 24, 53, 2 ** 26, 2 ** 40]),
       st.floats(0.05, 1.0), st.sampled_from([np.int64, object]), st.integers(0, 2 ** 32 - 1))
def test_associativity_matches_einsum_reference(n, ceiling, density, dtype, seed):
    # 24 and 53: the largest entries with max^2 * n below 2^24 or 2^53, the
    # edges of the float32 and float64 paths
    hi = math.isqrt((2 ** ceiling - 1) // n) if ceiling in (24, 53) else ceiling
    rng = np.random.default_rng(seed)
    t = np.where(rng.random((n, n, n)) < density, rng.integers(0, hi, (n, n, n), endpoint=True), 0)
    t = t.astype(dtype)
    assert _associativity_violations(t) == einsum_associativity_violations(t)


@pytest.mark.parametrize("bits, float_type", [(24, np.float32), (53, np.float64)])
def test_associativity_exact_at_float_limits(bits, float_type):
    # c[1][1] = K x + y, c[1][2] = K x, c[2][2] = x: at (1, 1, 2, 1) the two
    # sides are K^2 + 1 and K^2, which the float type rounds to the same value
    k = 2 ** ((bits + 1) // 2)
    assert float_type(k * k + 1) == float_type(k * k)
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0] = t[:, 0] = np.eye(3, dtype=np.int64)
    t[1, 1, 1], t[1, 1, 2], t[1, 2, 1], t[2, 2, 1] = k, 1, k, 1
    violations = _associativity_violations(t)
    assert ("associativity", (1, 1, 2, 1),
            f"sum_t c[1][1][t] c[t][2][1] = {k * k + 1} != {k * k}") in violations
    assert violations == einsum_associativity_violations(t)
    # x^2 = 1 + kappa x is associative; 2 kappa^2 is just below 2^bits
    kappa = math.isqrt((2 ** bits - 1) // 2)
    assert 2 * kappa ** 2 < 2 ** bits <= 2 * (kappa + 1) ** 2
    for c in (kappa, kappa + 1):
        near_group = np.array([[[1, 0], [0, 1]], [[0, 1], [1, c]]])
        assert _associativity_violations(near_group) == []


def _unit_fixing_relabel(ring, seed):
    """ring's tensor under a random basis permutation that fixes the unit."""
    p = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(ring.rank - 1)])
    return ring.tensor[np.ix_(p, p, p)]


# Associative tensors of rank >= 16, where _associativity_violations checks a
# generating set's slabs first, the group rings (one-hot) on their table; the
# last runs on Python ints (max|c| = 2^32)
CERTIFIED = {
    "C16": lambda: _unit_fixing_relabel(group_ring([16]), 1),
    "C4xC4": lambda: _unit_fixing_relabel(group_ring([4, 4]), 2),
    "C2^4": lambda: _unit_fixing_relabel(group_ring([2] * 4), 3),
    "D8": lambda: _unit_fixing_relabel(group_ring(dihedral_table(8)), 4),
    "A4xA4": lambda: product_ring(fr.entry_ring("A4"), fr.entry_ring("A4")).tensor,
    "Q8xD4": lambda: product_ring(fr.entry_ring("Q8"), fr.entry_ring("D4")).tensor,
    "R(C16,3)": lambda: fr.construct(group_ring([16]), 3).tensor,
    "R(C1,2^32)xC8": lambda: product_ring(fr.construct(group_ring([1]), 2 ** 32),
                                          group_ring([8])).tensor,
}

# (entry, change) pairs, and ((i, j), k) moves of all of c_ij onto e_k, which
# keep a one-hot tensor one-hot, so its table is certified and refused; a
# change in row 0 breaks the left-unit start of _generators
PERTURBATIONS = [
    (),
    (((3, 5, 7), 1),),
    (((2, 2, 1), -1),),
    (((0, 1, 4), 2),),
    (((0, 3, 3), -1), ((9, 4, 2), 1)),
    (((5, 5, 0), 2), ((1, 2, 9), -1)),
    (((3, 6), 8),),
    (((2, 9), 0),),
    (((0, 4), 6),),
    (((1, 1), 3), ((6, 2), 11)),
]


def _perturb(t, changes):
    """t with changes (see PERTURBATIONS) made in place."""
    for index, change in changes:
        if len(index) == 2:  # a move
            total = t[index].sum()
            t[index] = 0
            t[index + (change,)] = total
        else:
            t[index] += change


@pytest.mark.parametrize("changes", PERTURBATIONS, ids=lambda c: str(list(c)))
@pytest.mark.parametrize("name", CERTIFIED)
def test_certified_associativity_matches_einsum_reference(name, changes):
    t = np.array(CERTIFIED[name](), dtype=np.int64)
    assert t.shape[0] >= core._CERTIFY_MIN_RANK
    _perturb(t, changes)
    violations = _associativity_violations(t)
    assert violations == einsum_associativity_violations(t)
    assert bool(violations) == bool(changes)


# changes (see PERTURBATIONS) at the end of the basis: in blocks of one or
# three slabs they break the last blocks of i (Frobenius) and of k
# (associativity) and, by the move, of the one-hot table
LATE = [
    (((-1, -1, -2), 1),),
    (((-2, -1, -1), 1), ((-1, -2, -1), 2)),
    (((-1, 5, -1), 2),),
    (((-3, -2, -1), 1), ((-3, -1, -2), 1)),
    (((-1, -2), 3),),
]


@pytest.mark.parametrize("late", LATE, ids=lambda c: str(list(c)))
@pytest.mark.parametrize("name", ["C16", "D8", "R(C16,3)", "A4xA4", "R(C1,2^32)xC8"])
def test_blocked_checks_list_as_one_block(name, late, monkeypatch):
    # at these ranks the default chunk holds the whole tensor, so the checks
    # run as one block, as they did before blocks; in blocks of one or three
    # slabs the list is the same, and it is the references' list
    t = np.array(CERTIFIED[name](), dtype=np.int64)
    n, dual = len(t), list(FusionRing(range(len(t)), t.copy()).dual)
    assert n >= core._CERTIFY_MIN_RANK and n * n * n * 8 <= core._CHUNK_BYTES
    _perturb(t, late)
    whole = validate_tensor(t, dual)
    first = [v for v in whole if v[0] in ("duality", "unit", "dual-pairing")]
    assert whole == (first + loop_frobenius(t, dual, 0) + loop_frobenius(t, dual, 1)
                     + einsum_associativity_violations(t))
    for slabs in (1, 3):
        monkeypatch.setattr(core, "_CHUNK_BYTES", 8 * n * n * slabs)
        assert validate_tensor(t, dual) == whole
        assert _associativity_violations(t) == einsum_associativity_violations(t)
        with pytest.raises(AxiomViolation) as refused:
            FusionRing(range(n), t, dual)
        assert refused.value.violations == whole and refused.value.rank == n
        assert FusionRing(range(n), CERTIFIED[name](), dual).is_commutative() == (name != "D8")


def _nucleus_gap_tensor():
    """Z[C16] + Z y with g y = y, y g^k = (-1)^k y and y y = sum of G, in the
    basis g^k (k != 2), g^2 + y, y. The group lies in the left nucleus and y
    does not, so g g = (g^2 + y) - y gives neither of its two basis
    elements to the peeling."""
    n = 17
    e = np.zeros((n, n, n), dtype=np.int64)
    e[:16, :16, :16] = group_ring([16]).tensor
    e[:16, 16, 16] = 1
    e[16, :16, 16] = (-1) ** np.arange(16)
    e[16, 16, :16] = 1
    p, p_inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    p[2, 16], p_inv[2, 16] = 1, -1  # b_2 = g^2 + y, so g^2 = b_2 - b_16
    return np.einsum("ia,jb,abc,ck->ijk", p, p, e, p_inv)


def test_certificate_is_sound_on_crafted_nucleus():
    # the generating set must be grown only from slabs that hold: the
    # tensors below fail associativity in slabs that a looser peeling, or a
    # unit taken for granted, would never check
    gap = _nucleus_gap_tensor()
    not_unit = np.zeros((16, 16, 16), dtype=np.int64)
    not_unit[0] = np.eye(16, dtype=np.int64)
    not_unit[0, 2, 0] = -1  # only slab 0 fails; every other product is 0
    for t in (gap, not_unit):
        violations = _associativity_violations(t)
        assert violations and violations == einsum_associativity_violations(t)
    assert {i for _, (i, *_), _ in _associativity_violations(not_unit)} == {0}


@pytest.mark.parametrize("spec", [[48], [8, 8], [2] * 6, [162], dihedral_table(12)],
                         ids=lambda s: str(s) if len(s) < 8 else f"table of order {len(s)}")
def test_group_ring_generators_at_most_log2_order(spec):
    # peeling closes the known set under products, so it is a subgroup, and
    # each new generator at least doubles it; on the table, the same rule
    # picks the same generators
    tensor = group_ring(spec).tensor
    gens = core._generators(tensor)
    assert len(gens) <= math.log2(len(tensor))
    assert core._generators(tensor, core._one_hot_table(tensor)) == gens


def test_extraspecial_ring_generators():
    # R(C162, 9): a generator of C162, then rho
    assert core._generators(fr.construct(group_ring([162]), 9).tensor) == [1, 162]


def _loop_one_hot_table(t):
    """The table k = table[i][j] with c_ij = e_k if every c_ij is a unit
    vector, else None, cell by cell as lists, kept as an oracle."""
    c = np.asarray(t).tolist()
    if any(sorted(row) != [0] * (len(c) - 1) + [1] for slab in c for row in slab):
        return None
    return [[row.index(1) for row in slab] for slab in c]


def test_one_hot_read_is_exact_on_any_tensor(capsys, monkeypatch):
    # C16 with c_11 = e_9 + e_10 and c_34 = 0: max 1 and n^2 nonzeros, but
    # not one-hot, and the row sums k c_11^k read 19 at (1, 1), outside
    # range(16)
    t = np.array(group_ring([16]).tensor)
    t[1, 1] = t[3, 4] = 0
    t[1, 1, [9, 10]] = 1
    assert t.max() == 1 and np.count_nonzero(t) == 16 ** 2
    assert (t.astype(np.float32) @ np.arange(16, dtype=np.float32))[1, 1] == 19
    # the row sums read 5 at (1, 1) for e_2 + e_3, which c_11 does not
    # hold; and 5 for e_0 + e_5, which it holds, with one nonzero too many
    split, extra = np.array(t), np.array(group_ring([16]).tensor)
    split[1, 1] = 0
    split[1, 1, [2, 3]] = 1
    extra[2, 3, 0] = 1
    cases = [t, split, extra]
    rng = np.random.default_rng(11)
    for base in (group_ring([16]).tensor, group_ring(dihedral_table(8)).tensor):
        for kind in (0, 1, 2, 3) * 2:
            c = np.array(base, dtype=np.int64)
            i, j, a, b, k = (int(x) for x in rng.integers(0, 16, 5))
            if kind == 0:  # a move, which stays one-hot
                _perturb(c, [((i, j), k)])
            elif kind == 1:  # n^2 nonzeros, spread unevenly
                c[i, j] = 0
                c[a, b, k] += 1
            elif kind == 2:  # a -1
                c[i, j, k] -= 1
            else:  # a 2 or another -1
                c[i, j, k] += 1
                c[a, b, k] -= 1
            cases += [c, c.astype(object)]
    wants = [_loop_one_hot_table(c) for c in cases]
    assert sum(want is not None for want in wants) >= 4
    for c in cases:
        assert _associativity_violations(c) == einsum_associativity_violations(c)
    for slabs in (16, 3):  # one block, then blocks of three slabs
        monkeypatch.setattr(core, "_CHUNK_BYTES", 8 * 16 * 16 * slabs)
        for c, want in zip(cases, wants):
            table = core._one_hot_table(c)
            assert (table is None) if want is None else table.tolist() == want
    # the exit-code contract: a finding, no traceback
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"tensor": t.tolist()})))
    code = cli.run(["verify", "-"])
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err and "associativity" in out


def test_one_hot_rings_skip_the_float_slab_products(monkeypatch):
    # group rings of rank >= 16 are certified on their table; other rings
    # still by the float slab products
    calls = []
    products = core._slab_products_hold
    monkeypatch.setattr(core, "_slab_products_hold", lambda *a: calls.append(a) or products(*a))
    for tensor, by_products in [(group_ring([8, 8]).tensor, False), (CERTIFIED["D8"](), False),
                                (CERTIFIED["R(C16,3)"](), True), (CERTIFIED["A4xA4"](), True)]:
        calls.clear()
        ring = FusionRing(range(len(tensor)), tensor)
        assert validate_tensor(ring.tensor, ring.dual) == []
        assert bool(calls) == by_products


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_tensor_memory_is_cubic():
    # the full n^4 associativity tensors would take over 250 MB at rank 64.
    # Each check copies or converts one block of at most core._CHUNK_BYTES
    # of int64 slabs at a time, and its products are as large; _generators
    # holds the booleans of one such block. A whole float or permuted copy,
    # as before, takes 1.6 int64 tensors and more: 3.3 MB for C8xC8 and
    # 54 MB for R(C162, 9), whose tensor is 33 MB in int64 and 4.1 MB stored
    # D150 (order 300) is certified on its table, four n x n index arrays
    for ring in (group_ring([8, 8]), group_ring([48]), fr.construct(group_ring([162]), 9),
                 group_ring(dihedral_table(150))):
        peak = traced_peak(lambda: validate_tensor(ring.tensor, ring.dual))
        wide = 8 * ring.rank ** 3  # the tensor's size in int64
        chunk = min(wide, core._CHUNK_BYTES)
        assert peak < 0.5 * wide + 2 * chunk, ring.rank
        # no share of the tensor at all: 1.9 MB at R(C162, 9), where whole
        # boolean supports in _generators took 15.3 MB
        assert peak < 2.5 * chunk, ring.rank


@pytest.mark.parametrize("name", ["C8xC8", "R(C162,9)"])
def test_ring_work_memory_is_a_few_chunks(name):
    # formal_codegrees, is_commutative and near_integral_codegrees hold a
    # few blocks of core._CHUNK_BYTES, never a float, boolean or restricted
    # copy of the whole tensor (33 MB for R(C162, 9), where the whole copies
    # took 4.2 MB for is_commutative and 33-65 MB for the other two);
    # construct holds its result and one float block of _perron_dims
    sub = group_ring([8, 8]) if name == "C8xC8" else group_ring([162])
    fresh = (lambda: sub) if name == "C8xC8" else (lambda: fr.construct(sub, 9))
    ring = fresh()
    assert traced_peak(ring.is_commutative) < core._CHUNK_BYTES
    ring = fresh()  # no cached derived data
    assert traced_peak(lambda: fr.formal_codegrees(ring)) < 3 * core._CHUNK_BYTES
    big = fr.construct(sub, 9)
    report = fr.detect(big)
    assert traced_peak(lambda: fr.near_integral_codegrees(big, report)) < 3 * core._CHUNK_BYTES
    peak = traced_peak(lambda: fr.construct(sub, 9))
    assert peak < 1.2 * 8 * big.rank ** 3  # the result's size in int64
    assert peak < big.tensor.nbytes + 1.5 * core._CHUNK_BYTES


def test_fpdims_memory_is_a_few_chunks():
    # The power iteration holds float copies of a chunk of matrices, about
    # 1 MB, never one of the whole tensor: 34 MB for C162
    ring = group_ring([162])
    assert traced_peak(lambda: spectral.fpdims(ring)) < 4 * 2 ** 20


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
    data["tensor"][2][1][0] = 1  # row 2 now pairs with both 1 and 3
    with pytest.raises(AxiomViolation) as err:
        ring_from_json(data)
    assert err.value.violations == [("dual-pairing", (2,), "row 2 pairs with [1, 3]")]


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
    '{"tensor": [[[true]]]}',
    '{"tensor": [[[[1]]]]}',
    '{"tensor": [[[]]]}',
    '{"tensor": [[[1]], [[1]]]}',
    '{"tensor": [[[1, 0], [0, 1]], [[0, 1], [1]]]}',
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
    (256, None),  # tau^2 = 1 + 256 tau
])
def test_float_tensor_must_be_exact(entry, error):
    tensor = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 1]]], dtype=type(entry))
    tensor[1, 1, 1] = entry
    if error is None:
        want = FusionRing(["1", "tau"], [[[1, 0], [0, 1]], [[0, 1], [1, int(entry)]]],
                                    [0, 1])
        assert FusionRing(["1", "tau"], tensor, [0, 1]) == want
        # JSON 1.0 and 256 miss the typed read and are read by np.asarray
        back = ring_from_json(json.dumps({"labels": ["1", "tau"], "tensor": tensor.tolist()}))
        assert back == want and back.tensor.dtype == (np.uint8 if entry == 1 else np.uint16)
        assert entry != 1 or want == fib_ring()
    else:
        with pytest.raises(error):
            FusionRing(["1", "tau"], tensor, [0, 1])


def read_ring(tensor):
    """What ring_from_json makes of a 'tensor' value: the ring's labels,
    dual, dtype, shape and bytes, or the exception class and message."""
    try:
        ring = ring_from_json({"tensor": tensor})
    except FusionRingError as exc:
        return type(exc), str(exc)
    return ring.labels, ring.dual, ring.tensor.dtype, ring.tensor.shape, ring.tensor.tobytes()


def assert_reads_as_asarray(tensor):
    """A nested-list tensor reads as its np.asarray array does, which takes
    the np.asarray path; a ragged one, which np.asarray refuses, reads as
    a 0-d array, so as MalformedInput."""
    try:
        want = read_ring(np.asarray(tensor))
    except ValueError:
        want = read_ring(np.asarray(None))
        assert want[0] is MalformedInput
    assert read_ring(tensor) == want
    return want


ODD_ENTRIES = [2 ** 63, -2 ** 63 - 1, -1, 256, 1.0, 1.5, 1e300, float("nan"), True, False,
               None, "1", np.int64(1), np.uint8(1), np.bool_(True)]


def with_entry(tensor, index, value):
    out = copy.deepcopy(tensor)
    i, j, k = index
    out[i][j][k] = value
    return out


@pytest.mark.parametrize("tensor, ok", [
    (FIB, True),
    ([[[True]]], False),  # all-bool: dtype bool
    ([[[False]]], False),
    ([[[np.True_]]], False),
    (with_entry(FIB, (0, 0, 0), True), True),  # bool first, then ints: int64
    (with_entry(FIB, (1, 1, 1), True), True),
    ([[[np.int64(1), 0], [0, 1]], [[0, np.uint8(1)], [1, np.uint8(1)]]], True),
    ([[[np.uint8(1)]]], True),  # dtype uint8 from np.asarray
    (ring_to_json(group_ring([2, 2]))["tensor"], True),
    *((with_entry(FIB, (1, 1, 1), x), None) for x in ODD_ENTRIES),
    *((with_entry(FIB, (0, 0, 0), x), None) for x in ODD_ENTRIES),
    ([], False),
    ([[[]]], False),
    ([[[[1]]]], False),
    ([[[1, 0], [0, 1]], [[0, 1]]], False),
    ([[[1, 0], [0, 1]], [[0, 1], [1]]], False),
    ([[[1, 0], [0, 1]], [[0, 1], [1, [1]]]], False),
    ([[[1]], [[1]]], False),
    ((((1,),),), True),  # a tuple is read by np.asarray
])
def test_typed_read_matches_asarray_cases(tensor, ok):
    got = assert_reads_as_asarray(tensor)
    assert ok is None or (got[0] is not MalformedInput) == ok


@st.composite
def near_cube_tensors(draw):
    """Cubes of rank 1-5, from a ring or filled with one value, some entries
    replaced from ints in [-2, 300] and ODD_ENTRIES; then maybe one list
    grown or shrunk at depth 1, 2 or 3, or leaves wrapped to a 4-deep list."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        tensor = ring_to_json(group_ring([n]))["tensor"]
    else:
        fill = draw(st.sampled_from([0, 1, True, False]))
        tensor = [[[fill] * n for _ in range(n)] for _ in range(n)]
    entries = st.one_of(st.integers(-2, 300), st.sampled_from(ODD_ENTRIES),
                        st.integers(-2, 300).map(np.int64), st.integers(0, 255).map(np.uint8))
    for _ in range(draw(st.integers(0, 3))):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        tensor[i][j][k] = draw(entries)
    depth = draw(st.sampled_from([None, 1, 2, 3, 4]))
    if depth == 4:
        tensor = [[[[x] for x in col] if draw(st.booleans()) else col for col in row]
                  for row in tensor]
    elif depth is not None:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        target = [tensor, tensor[i], tensor[i][j]][depth - 1]
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(copy.deepcopy(target[0]))
    return tensor


@settings(max_examples=150, deadline=None)
@given(near_cube_tensors())
def test_typed_read_matches_asarray(tensor):
    assert_reads_as_asarray(tensor)


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
                m = round(val.real)
                err = abs(val - m)
                if err > tol:
                    raise NonIntegralMultiplicity(
                        f"N[{i}][{j}][{k}] = {val} is not an integer (defect {err})")
                if m < 0:
                    raise NonIntegralMultiplicity(f"N[{i}][{j}][{k}] = {m} is negative")
                tensor[i, j, k] = m
    dual = []
    for i in range(r):
        matches = [k for k in range(r) if tensor[i, k, 0] == 1]
        if len(matches) != 1:
            raise AxiomViolation([("dual-pairing", (i,), f"row {i} pairs with {matches}")])
        dual.append(matches[0])
    labels = [f"chi{i}[{d}]" for i, d in enumerate(table.degrees)]
    return FusionRing(labels, tensor, dual)


def outcome(build, arg):
    """("ok", result), or the exception class and message with the printed
    inner-product value and defect masked, since their last digits depend
    on the summation order."""
    try:
        return "ok", build(arg)
    except FusionRingError as exc:
        return type(exc), re.sub(r" = \S+ is not an integer \(defect \S+\)$",
                                 " = _ is not an integer (defect _)", str(exc))


# Tables whose character ring failed its snap or its dual before the
# constructor checked column orthogonality; now they are not built at all.
REFUSED_TABLES = {
    "negative": (2, [[1, 1], [1, -3]], (1, 1)),  # <chi_0 chi_0, chi_1> = -1
    "two-conjugates": (2, [[1, 1], [1, 1]], (1, 1)),  # row 0 is conjugate to both rows
}


@pytest.mark.parametrize("name", [*TABLES, *REFUSED_TABLES])
def test_character_ring_matches_loop(name):
    if name in REFUSED_TABLES:
        with pytest.raises(FusionRingError, match="^column orthogonality fails$"):
            CharacterTable(*REFUSED_TABLES[name])
        return
    table = fr.load_entry(name).payload
    ring = outcome(character_table_to_fusion_ring, table)
    assert ring == outcome(loop_character_ring, table)
    assert ring[0] != "ok" or ring[1].tensor.dtype == np.uint8


@pytest.mark.parametrize("degree", [2 ** 21, 2 ** 64])  # c_00^0 = 2^63, 2^192
def test_character_ring_refuses_a_multiplicity_past_int64(degree):
    # the one-class table whose ring would overflow is refused when built
    with pytest.raises(FusionRingError,
                       match="^sum of squared degrees must equal the group order$"):
        CharacterTable(1, [[degree]], (1,))


def nudged_table(name, row, col, delta):
    """Catalog table name with one entry moved by delta."""
    table = fr.load_entry(name).payload
    rows = table.rows.copy()
    rows[row, col] += delta
    return CharacterTable(table.order, rows, table.class_sizes)


def table_ring(args):
    return character_table_to_fusion_ring(CharacterTable(*args))


def unit_datum(s):
    return premodular.ModularDatum(s, (fr.RootOfUnity(0, 1),) * len(s))


@pytest.mark.parametrize("build, data, error, message", [
    (character_table_to_fusion_ring, nudged_table("S3", 1, 1, 3e-7), NonIntegralMultiplicity,
     r"^N\[0\]\[0\]\[1\] = \(9\.99\d*e-08[+-]0j\) is not an integer \(defect 9\.99\d*e-08\)$"),
    (fr.verlinde_fusion, unit_datum([[1, 1], [1, -3.4]]), NonIntegralMultiplicity,
     r"^N\[0\]\[0\]\[1\] = \(-1\.19\d*[+-]0j\) is not an integer \(defect 0\.19\d*\)$"),
    (table_ring, (2, [[1, 1], [1, -3]], (1, 1)), FusionRingError,
     r"^column orthogonality fails$"),
    (fr.verlinde_fusion, unit_datum([[1, 1], [1, -3]]), NonIntegralMultiplicity,
     r"^N\[0\]\[0\]\[1\] = -1 is negative$"),
    (table_ring, (1, [[2 ** 21]], (1,)), FusionRingError,
     r"^sum of squared degrees must equal the group order$"),
    (fr.verlinde_fusion, unit_datum([[1, 1e-300], [1e-300, 1]]), NonIntegralMultiplicity,
     r"^N\[1\]\[1\]\[1\] = 1e\+300 does not fit in int64$"),
], ids=["table-non-integral", "datum-non-integral", "table-negative", "datum-negative",
        "table-overflow", "datum-overflow"])
def test_both_ring_builders_share_one_snap(build, data, error, message):
    """Each failure of core._snap_multiplicities, from the character ring
    and from the Verlinde ring, with fixed data. The tables that reached the
    negative and the int64 branches fail the table's own checks when built,
    so only the datum cases reach those branches."""
    with pytest.raises(error, match=message):
        build(data)


def test_ring_builders_have_no_snap_of_their_own():
    for build in (character_table_to_fusion_ring, premodular.verlinde_fusion):
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(build))))
                 if isinstance(node, (ast.Attribute, ast.Name))}
        assert "_snap_multiplicities" in names and not names & {"rint", "hypot", "astype"}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLES), st.data())
def test_perturbed_character_table_matches_loop(name, data):
    """One entry moved by a real or imaginary amount, or its sign flipped;
    or two entries of a row moved so that <chi_a, 1> is unchanged, which
    moves the first failing cell past (0, 0, a). A table the constructor
    accepts gives the loop's ring or its failure; most moves below SNAP_TOL
    pass the table checks and fail the ring's snap. Any other table is
    refused with a FusionRingError."""
    table = fr.load_entry(name).payload
    rows = table.rows.copy()
    r = table.num_classes
    a, x, y = (data.draw(st.integers(0, r - 1)) for _ in range(3))
    kind = data.draw(st.sampled_from(["one", "flip", "pair"]))
    size = data.draw(st.floats(1e-10, SNAP_TOL) | st.floats(SNAP_TOL, 0.5))
    delta = size * data.draw(st.sampled_from([1, -1, 1j, -1j]))
    if kind == "one":
        rows[a, x] += delta
    elif kind == "flip":
        rows[a, x] = -rows[a, x]
    else:
        assume(x != y)
        w = np.array(table.class_sizes) / table.order
        rows[a, x] += delta / w[x]
        rows[a, y] -= delta / w[y]
    built = outcome(lambda rows: CharacterTable(table.order, rows, table.class_sizes), rows)
    if built[0] == "ok":
        want = outcome(loop_character_ring, built[1])
        assert outcome(character_table_to_fusion_ring, built[1]) == want


def test_character_table_class_sizes_derived():
    table = fr.load_entry("S3").payload
    assert table.class_sizes == (1, 2, 3)
    a4 = fr.load_entry("A4").payload
    assert a4.class_sizes == (1, 3, 4, 4)


def test_character_table_validation_catches_bad_order():
    with pytest.raises(NonIntegralMultiplicity, match=r"^column 0: .* = 3\.5 is not a positive"):
        CharacterTable(7, [[1, 1], [1, -1]])


def test_s3_character_ring_rules():
    ring = character_table_to_fusion_ring(fr.load_entry("S3").payload)
    # two-dimensional rep squares to 1 + sign + itself
    assert list(ring.tensor[2, 2]) == [1, 1, 1]
    assert ring.is_commutative()
    assert all(ring.is_self_dual(i) for i in range(ring.rank))


def test_a4_duality_swaps_conjugate_linears():
    ring = character_table_to_fusion_ring(fr.load_entry("A4").payload)
    assert list(ring.dual) == [0, 2, 1, 3]


def test_column_orthogonality_within_the_absolute_bound_only():
    """S3 with column 1 scaled by 1 + 3e-6: its Gram entry misses |G|/|C|
    = 3 by 1.8e-5, three times the bound SNAP_TOL |G|, which numpy's
    default rtol would have widened to 3.6e-5."""
    data = table_to_json(fr.load_entry("S3").payload)
    for row in data["rows"]:
        row[1] *= 1 + 3e-6
    with pytest.raises(FusionRingError, match=r"^column orthogonality fails$"):
        table_from_json(data)


def test_table_json_round_trip():
    table = fr.load_entry("Aut(D9)").payload
    back = table_from_json(table_to_json(table))
    assert back.order == table.order
    assert np.allclose(back.rows, table.rows)
    assert back.class_sizes == table.class_sizes
