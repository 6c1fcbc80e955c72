"""Subring enumeration, pointed/adjoint/integral subrings, universal grading."""

import functools
import itertools
import math

import numpy as np
import pytest

import fusionring as fr
from fusionring import structure
from fusionring.core import FusionRing, group_ring, product_ring
from fusionring.structure import (ClosureViolation, GradingReport, SearchBudgetExceeded,
                                  SubringHandle, adjoint_subring, closure,
                                  enumerate_subrings, integral_subring,
                                  pointed_subring, universal_grading)
from shared_rings import refuse, s3_group_ring


def ising_ring():
    t = np.zeros((3, 3, 3), dtype=int)
    t[0] = np.eye(3)
    t[:, 0] = np.eye(3)
    t[1, 1, 0] = 1
    t[1, 2, 2] = t[2, 1, 2] = 1
    t[2, 2, 0] = t[2, 2, 1] = 1
    return FusionRing(["1", "psi", "sigma"], t, [0, 1, 2])


def fib_ring():
    return FusionRing(["1", "tau"],
                                [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [0, 1])


def test_closure_unit():
    ring = fr.entry_ring("S3")
    assert closure(ring, ()).indices == (0,)


def test_closure_generates():
    ring = fr.entry_ring("S3")
    assert closure(ring, (2,)).indices == (0, 1, 2)


def test_enumerate_subrings_rep_s3():
    handles = enumerate_subrings(fr.entry_ring("S3"))
    assert [h.indices for h in handles] == [(0,), (0, 1), (0, 1, 2)]


def test_enumerate_subrings_rep_a4():
    handles = enumerate_subrings(fr.entry_ring("A4"))
    assert [h.indices for h in handles] == [(0,), (0, 1, 2), (0, 1, 2, 3)]


def test_enumerate_subrings_group_ring():
    # subrings of ZC6 = subgroups of C6: {e}, C2, C3, C6
    handles = enumerate_subrings(group_ring([6]))
    assert sorted(h.rank for h in handles) == [1, 2, 3, 6]


def test_handle_verify_rejects_open_sets():
    ring = fr.entry_ring("S3")
    with pytest.raises(ClosureViolation):
        SubringHandle((0, 2)).verify(ring)


def test_handle_verify_names_first_escaping_product():
    # chi2 * chi2 = chi0 + chi1 + chi2 in Rep(S3), and chi1 is outside
    with pytest.raises(ClosureViolation, match=r"^product 2\*2 meets 1 outside the handle$"):
        SubringHandle((0, 2)).verify(fr.entry_ring("S3"))


def test_handle_drops_repeated_indices():
    handle = SubringHandle((0, 1, 1))
    assert (handle.indices, handle.rank) == ((0, 1), 2)
    ring = group_ring([2, 2])
    assert fr.subring_on(ring, [0, 1, 1]) == fr.subring_on(ring, [0, 1])


def test_pointed_subring():
    assert pointed_subring(fr.entry_ring("A4")).indices == (0, 1, 2)
    assert pointed_subring(ising_ring()).indices == (0, 1)
    assert pointed_subring(fib_ring()).indices == (0,)


def test_adjoint_subring():
    # 2 (x) 2 hits everything in Rep(S3)
    assert adjoint_subring(fr.entry_ring("S3")).indices == (0, 1, 2)
    assert adjoint_subring(ising_ring()).indices == (0, 1)
    assert adjoint_subring(group_ring([4])).indices == (0,)


def test_integral_subring():
    assert integral_subring(ising_ring()).indices == (0, 1)
    assert integral_subring(fib_ring()).indices == (0,)
    assert integral_subring(fr.entry_ring("F5")).rank == 5


CHARACTER_RINGS = [name for name in fr.list_catalog()
                   if fr.load_entry(name).kind == "characterTable"]


@pytest.mark.parametrize("kappa", [0, 1, 2, 3, 10 ** 4, 10 ** 6, 10 ** 8, 2 ** 40])
def test_integral_part_of_near_integral_rings(kappa, monkeypatch):
    # the integral part of R(S, kappa) is S, and rho joins it exactly when
    # d+ is an integer, i.e. kappa^2 + 4N is a square; the snapped FPdims
    # are certified, so SubringHandle.verify is never reached
    rings = {name: fr.construct(fr.entry_ring(name), kappa) for name in CHARACTER_RINGS}
    monkeypatch.setattr(SubringHandle, "verify", refuse)
    for name, ring in rings.items():
        n = ring.rank - 1
        big_n = int(sum(int(d) ** 2 for d in ring.tensor[n, n, :n]))
        disc = kappa * kappa + 4 * big_n
        want = tuple(range(n + (math.isqrt(disc) ** 2 == disc)))
        assert integral_subring(ring).indices == want, name
    assert len(rings) == 11


@pytest.mark.parametrize("sub, kappa, want", [
    ("C1", 10 ** 4, (0,)), ("C1", 10 ** 6, (0,)), ("C1", 10 ** 7, (0,)), ("C1", 10 ** 8, (0,)),
    ("C1", 2 ** 40, (0,)), ("C3", 10 ** 7, (0, 1, 2)), ("S3", 10 ** 8, (0, 1, 2))])
def test_integral_subring_refuses_snapped_irrational_fpdims(sub, kappa, want):
    # FPdim(rho) = (kappa + sqrt(kappa^2 + 4N)) / 2 is irrational but lies
    # within the snap tolerance of kappa; N_rho d = kappa d fails in integers
    ring = group_ring([int(sub[1:])]) if sub.startswith("C") else fr.entry_ring(sub)
    assert integral_subring(fr.construct(ring, kappa)).indices == want


def test_universal_grading_group_ring():
    report = universal_grading(group_ring([2, 3]))
    assert report.group_order == 6
    assert report.adjoint.indices == (0,)


def test_universal_grading_ising():
    report = universal_grading(ising_ring())
    assert report.group_order == 2
    assert report.component_of == (0, 0, 1)
    assert report.group_table.tolist() == [[0, 1], [1, 0]]


def test_universal_grading_rep_s3_trivial():
    report = universal_grading(fr.entry_ring("S3"))
    assert report.group_order == 1


def test_universal_grading_tambara_yamagami():
    ring = fr.construct(group_ring([2, 2]), 0)
    report = universal_grading(ring)
    assert report.group_order == 2
    assert report.component_of == (0, 0, 0, 0, 1)


def test_grading_report_json():
    data = universal_grading(ising_ring()).to_json()
    assert set(data) == {"groupTable", "componentOf", "adjointIndices"}


def test_grading_components_respect_duality():
    for name in ["A4", "F5", "Aut(D9)"]:
        ring = fr.entry_ring(name)
        report = universal_grading(ring)
        g = report.group_table
        for i in range(ring.rank):
            inv = int(np.nonzero(g[report.component_of[i]] == 0)[0][0])
            assert report.component_of[ring.dual[i]] == inv


# ---------------------------------------------------------------------------
# Reference versions: closure, verify and grading as loops over basis pairs
# and a union-find. The array code in structure must agree with them.


def oracle_closure(ring, seed):
    current = {0} | {int(i) for i in seed}
    current |= {ring.dual[i] for i in current}
    changed = True
    while changed:
        changed = False
        for i, j in itertools.product(sorted(current), repeat=2):
            for k in np.nonzero(ring.tensor[i, j])[0]:
                k = int(k)
                if k not in current:
                    current.add(k)
                    current.add(ring.dual[k])
                    changed = True
    return tuple(sorted(current))


def oracle_verify_message(ring, indices):
    """The ClosureViolation message for a sorted index tuple, or None."""
    if 0 not in indices:
        return "handle must contain the unit"
    for i in indices:
        if ring.dual[i] not in indices:
            return f"dual of {i} escapes the handle"
    for i in indices:
        for j in indices:
            for k in np.nonzero(ring.tensor[i, j])[0]:
                if int(k) not in indices:
                    return f"product {i}*{j} meets {int(k)} outside the handle"
    return None


def oracle_subrings(ring):
    found = {oracle_closure(ring, ())}
    frontier = list(found)
    while frontier:
        handle = frontier.pop()
        for g in range(1, ring.rank):
            if g not in handle:
                bigger = oracle_closure(ring, handle + (g,))
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted(found, key=lambda h: (len(h), h))


def oracle_grading(ring):
    n = ring.rank
    seed = {int(k) for i in range(n) for k in np.nonzero(ring.tensor[i, ring.dual[i]])[0]}
    ad = oracle_closure(ring, seed)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in ad:
        for i in range(n):
            for j in np.nonzero(ring.tensor[a, i])[0]:
                ri, rj = find(i), find(int(j))
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    reps = sorted({find(i) for i in range(n)})
    component_of = tuple(reps.index(find(i)) for i in range(n))
    table = -np.ones((len(reps), len(reps)), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in np.nonzero(ring.tensor[i, j])[0]:
                table[component_of[i], component_of[j]] = component_of[int(k)]
    return ad, component_of, table.tolist()


def oracle_rings():
    rings = {}
    for name in fr.list_catalog():
        if fr.load_entry(name).kind in ("characterTable", "modularDatum"):
            rings[name] = fr.entry_ring(name)
    for orders in ([6], [16], [32], [2, 2, 2]):
        rings["x".join(f"C{n}" for n in orders)] = group_ring(orders)
    ty = fr.construct(group_ring([2, 2]), 0)
    rings["TY(C2xC2)"] = ty
    rings["R(TY(C2xC2),7)"] = fr.construct(ty, 7)
    # noncommutative: the group ring of S3 and its product with Rep(A4)
    rings["ZS3"] = s3_group_ring()
    rings["ZS3xRep(A4)"] = product_ring(s3_group_ring(), fr.entry_ring("A4"))
    return rings


ORACLE_RINGS = oracle_rings()


@functools.cache
def oracle_lattice(name):
    return oracle_subrings(ORACLE_RINGS[name])


def closure_budget(ring, subrings):
    """What enumerate_subrings spends of max_count: one closure per subring
    H and basis element outside it."""
    return sum(ring.rank - len(h) for h in subrings)


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_structure_matches_loop_reference(name):
    ring = ORACLE_RINGS[name]
    n = ring.rank
    for i in range(n):
        assert closure(ring, (i,)).indices == oracle_closure(ring, (i,))
    rng = np.random.default_rng(n)
    for _ in range(25):
        seed = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False)
        assert closure(ring, seed).indices == oracle_closure(ring, seed)
        for handle in (SubringHandle(seed), SubringHandle((0, *seed))):
            message = oracle_verify_message(ring, handle.indices)
            if message is None:
                handle.verify(ring)
            else:
                with pytest.raises(ClosureViolation) as exc:
                    handle.verify(ring)
                assert str(exc.value) == message

    subrings = oracle_lattice(name)
    assert [h.indices for h in enumerate_subrings(ring)] == subrings
    integral = [i for i in range(n) if abs(fr.fpdim(ring, i) - round(fr.fpdim(ring, i))) <= 1e-6]
    assert integral_subring(ring).indices == tuple(integral)
    invertible = tuple(i for i in range(n) if ring.fuse(ring.basis_vector(i),
                       ring.basis_vector(ring.dual[i])).tolist() == ring.basis_vector(0).tolist())
    assert pointed_subring(ring).indices == invertible

    ad, component_of, table = oracle_grading(ring)
    assert adjoint_subring(ring).indices == ad
    report = universal_grading(ring)
    assert report.adjoint.indices == ad
    assert report.component_of == component_of
    assert report.group_table.tolist() == table


def test_subrings_and_pointed_subring_unverified(monkeypatch):
    # closures and the invertibles are subrings by construction: neither is
    # verified while it is built, and each passes the check afterwards
    rings = list(ORACLE_RINGS.values())
    monkeypatch.setattr(SubringHandle, "verify", refuse)
    found = [(ring, h) for ring in rings
             for h in enumerate_subrings(ring) + [pointed_subring(ring)]]
    monkeypatch.undo()
    for ring, handle in found:
        handle.verify(ring)
    assert len(found) == sum(len(oracle_lattice(name)) + 1 for name in ORACLE_RINGS)


def test_oracle_rings_include_noncommutative():
    assert not ORACLE_RINGS["ZS3"].is_commutative()
    assert not ORACLE_RINGS["ZS3xRep(A4)"].is_commutative()
    assert len(oracle_lattice("ZS3")) == 6
    assert ORACLE_RINGS["ZS3xRep(A4)"].rank == 24 and len(oracle_lattice("ZS3xRep(A4)")) == 20


def test_closure_budget_c2_5():
    ring = group_ring([2] * 5)
    assert len(enumerate_subrings(ring, max_count=9517)) == 374
    with pytest.raises(SearchBudgetExceeded):
        enumerate_subrings(ring, max_count=9516)


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_closure_budget_is_sum_of_coranks(name):
    ring = ORACLE_RINGS[name]
    budget = closure_budget(ring, oracle_lattice(name))
    assert len(enumerate_subrings(ring, max_count=budget)) == len(oracle_lattice(name))
    with pytest.raises(SearchBudgetExceeded):
        enumerate_subrings(ring, max_count=budget - 1)


def cyclic_extension_calls(ring, subrings):
    """The closures the cyclic extension method makes, counted with oracle
    closures, as (candidate pass, search). The candidate pass makes one per
    non-unit basis element and one join check per distinct cyclic closure
    with proper cyclic sub-closures; the search makes one per subring H
    other than the unit subring and join-irreducible cyclic closure not
    inside H (the unit subring's extensions are the candidates' closures)."""
    cyclic = {oracle_closure(ring, (g,)) for g in range(1, ring.rank)}
    checks = 0
    kept = []
    for c in cyclic:
        inner = [d for d in cyclic if d != c and set(d) <= set(c)]
        checks += bool(inner)
        if not inner or oracle_closure(ring, sorted(set().union(*inner))) != c:
            kept.append(set(c))
    extensions = sum(1 for h in subrings if h != (0,) for c in kept if not c <= set(h))
    return ring.rank - 1 + checks, extensions


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_enumerate_subrings_closure_calls(name, monkeypatch):
    ring = ORACLE_RINGS[name]
    calls = []
    closure_mask = structure._closure_mask

    def counted(ring, seed):
        calls.append(seed)
        return closure_mask(ring, seed)

    monkeypatch.setattr(structure, "_closure_mask", counted)
    enumerate_subrings(ring)
    subrings = oracle_lattice(name)
    candidates, extensions = cyclic_extension_calls(ring, subrings)
    assert len(calls) == candidates + extensions
    # each candidate outside H has its own generator outside H, so H makes
    # at most the rank - |H| extensions of extending by every basis element
    assert extensions <= closure_budget(ring, subrings)


def test_unit_extensions_reuse_cyclic_closures(monkeypatch):
    # C2^5: 31 cyclic closures, no join check (no C_g lies inside another)
    # and 9,486 extensions of the 373 subrings other than the unit; the
    # unit's 31 extensions by the candidates, the subgroups of order 2,
    # reuse C_g, where closing each again made 9,548 closures
    calls = []
    closure_mask = structure._closure_mask

    def counted(ring, seed):
        calls.append(seed)
        return closure_mask(ring, seed)

    monkeypatch.setattr(structure, "_closure_mask", counted)
    assert len(enumerate_subrings(group_ring([2] * 5))) == 374
    assert len(calls) == 9548 - 31
    assert all(len(seed) == 1 for seed in calls[:31])
    assert all(len(seed) > 1 for seed in calls[31:])


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p, n, count", [(2, 4, 67), (3, 3, 28), (2, 5, 374)])
def test_elementary_abelian_subgroup_counts(p, n, count):
    assert sum(gaussian_binomial(n, k, p) for k in range(n + 1)) == count
    assert len(enumerate_subrings(group_ring([p] * n))) == count


# Subring counts from closed forms: subrings of a group ring are subgroups
# of the group, and subrings of Rep(G) are normal subgroups of G.


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("n", range(1, 65))
def test_cyclic_subring_count_is_divisor_count(n):
    assert len(enumerate_subrings(group_ring([n]))) == len(divisors(n))


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 13) for n in range(1, 13)])
def test_two_cyclic_factors_subring_count(m, n):
    # Hampejs, Holighaus, Toth and Wiesmeyr (2014): C_m x C_n has
    # sum over a | m, b | n of gcd(a, b) subgroups
    count = sum(np.gcd(a, b) for a in divisors(m) for b in divisors(n))
    assert len(enumerate_subrings(group_ring([m, n]))) == count


def test_rep_a4xa4xs3_subrings_are_normal_subgroups():
    # normal subgroups are the intersections of character kernels; kernels
    # are read off the Kronecker product of the catalog tables as sets of
    # classes where a character takes its degree
    a4, s3 = fr.load_entry("A4").payload, fr.load_entry("S3").payload
    rows = np.kron(np.kron(a4.rows, a4.rows), s3.rows)
    normal = {frozenset(np.flatnonzero(np.isclose(row, row[0]))) for row in rows}
    while True:
        meets = normal | {a & b for a in normal for b in normal}
        if meets == normal:
            break
        normal = meets
    ring = product_ring(product_ring(fr.entry_ring("A4"), fr.entry_ring("A4")),
                        fr.entry_ring("S3"))
    assert len(normal) == 33
    assert len(enumerate_subrings(ring)) == 33


def test_support_cached_on_ring():
    ring, twin = group_ring([6]), group_ring([6])
    support = ring.support
    assert support is ring.support
    assert not support.flags.writeable
    assert (support == (ring.tensor != 0)).all()
    masks = ring.support_masks
    assert masks == tuple(tuple(sum(1 << int(k) for k in np.flatnonzero(ring.tensor[i, j]))
                                for j in range(6)) for i in range(6))
    closure(ring, (2,))
    first = ring.support_masks
    closure(ring, (3,))
    assert ring.support_masks is first is masks
    # the cache is not a field: equality and hashing ignore it
    assert ring == twin and hash(ring) == hash(twin)
    assert not any(key.endswith("support") for key in vars(twin))


def test_support_masks_past_one_word():
    # rank 100 needs two 64-bit words per mask
    ring = group_ring([100])
    masks = ring.support_masks
    assert masks[1][99] == 1 and masks[99][99] == 1 << 98 and masks[63][1] == 1 << 64


# ---------------------------------------------------------------------------
# universal_grading reads the grading off component representatives and
# checks nothing; each theorem it relies on is checked here, as a loop over
# basis indices, on the oracle rings and on R(S, kappa) over every catalog
# character ring S for kappa <= 2.


CATALOG_TABLES = [name for name in fr.list_catalog()
                  if fr.load_entry(name).kind == "characterTable"]
GRADING_RINGS = {**ORACLE_RINGS, **{f"R({name},{kappa})": fr.construct(fr.entry_ring(name), kappa)
                                    for name in CATALOG_TABLES for kappa in range(3)}}


def test_grading_rings_cover_catalog_tables():
    assert len(CATALOG_TABLES) == 11 and set(CATALOG_TABLES) <= set(ORACLE_RINGS)
    assert len(GRADING_RINGS) == len(ORACLE_RINGS) + 3 * 11


@pytest.mark.parametrize("name", sorted(GRADING_RINGS))
def test_grading_theorems(name):
    ring = GRADING_RINGS[name]
    report = universal_grading(ring)
    n, comp, table = ring.rank, report.component_of, report.group_table
    g, ad = report.group_order, report.adjoint.indices
    assert table.dtype == np.int64 and table.shape == (g, g)
    # the linking relation (j in supp(b_a b_i) for some a in the adjoint
    # subring) is an equivalence, and its classes are the components
    linked = [{int(j) for a in ad for j in np.flatnonzero(ring.tensor[a, i])} for i in range(n)]
    for i in range(n):
        assert i in linked[i]
        for j in linked[i]:
            assert i in linked[j] and linked[j] <= linked[i]
        assert linked[i] == {j for j in range(n) if comp[j] == comp[i]}
    assert sorted(set(comp)) == list(range(g))
    # the unit's component is 0 and holds the adjoint subring
    assert comp[0] == 0
    assert all(comp[a] == 0 for a in ad)
    # products of components are homogeneous, with the component the table gives
    for i in range(n):
        for j in range(n):
            for k in np.flatnonzero(ring.tensor[i, j]):
                assert comp[k] == table[comp[i], comp[j]]
    # the table is a group: identity 0, inverses, associativity
    for a in range(g):
        assert table[0, a] == a and table[a, 0] == a
        assert 0 in table[a] and 0 in table[:, a]
        for b in range(g):
            for c in range(g):
                assert table[table[a, b], c] == table[a, table[b, c]]
    # duality inverts the grading
    for i in range(n):
        assert table[comp[ring.dual[i]], comp[i]] == 0
