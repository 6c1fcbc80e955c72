"""Subring enumeration, pointed/adjoint/integral subrings, universal grading."""

import itertools

import numpy as np
import pytest

import fusionring as fr
from fusionring.core import FusionRing, group_ring
from fusionring.structure import (ClosureViolation, GradingReport, SubringHandle,
                                  adjoint_subring, closure, enumerate_subrings,
                                  integral_subring, pointed_subring,
                                  universal_grading)


def ising_ring():
    t = np.zeros((3, 3, 3), dtype=int)
    t[0] = np.eye(3)
    t[:, 0] = np.eye(3)
    t[1, 1, 0] = 1
    t[1, 2, 2] = t[2, 1, 2] = 1
    t[2, 2, 0] = t[2, 2, 1] = 1
    return FusionRing.validated(["1", "psi", "sigma"], t, [0, 1, 2])


def fib_ring():
    return FusionRing.validated(["1", "tau"],
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
    return rings


ORACLE_RINGS = oracle_rings()


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

    subrings = oracle_subrings(ring)
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
