"""Subring lattice and grading structure of a fusion ring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FusionRing, FusionRingError
from .exact import snap_int
from . import spectral

__all__ = [
    "SearchBudgetExceeded",
    "ClosureViolation",
    "InternalInconsistency",
    "SubringHandle",
    "GradingReport",
    "closure",
    "enumerate_subrings",
    "pointed_subring",
    "adjoint_subring",
    "integral_subring",
    "universal_grading",
]


class SearchBudgetExceeded(FusionRingError):
    pass


class ClosureViolation(FusionRingError):
    pass


class InternalInconsistency(FusionRingError):
    pass


@dataclass(frozen=True)
class SubringHandle:
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(int(i) for i in self.indices)))

    @property
    def rank(self) -> int:
        return len(self.indices)

    def verify(self, ring: FusionRing) -> None:
        if 0 not in self.indices:
            raise ClosureViolation("handle must contain the unit")
        for i in self.indices:
            if ring.dual[i] not in self.indices:
                raise ClosureViolation(f"dual of {i} escapes the handle")
        escape = _first_escape(ring.tensor != 0, self.indices)
        if escape is not None:
            i, j, k = escape
            raise ClosureViolation(f"product {i}*{j} meets {k} outside the handle")


def _first_escape(support: np.ndarray, indices):
    """The first product (i, j, k) in lexicographic order with i and j in
    indices, k outside them and support[i, j, k] set; None when the index
    set is fusion-closed. support is the boolean tensor ring.tensor != 0."""
    inside = np.zeros(support.shape[0], dtype=bool)
    inside[list(indices)] = True
    idx = np.flatnonzero(inside)
    escapes = support[np.ix_(idx, idx)] & ~inside
    if not escapes.any():
        return None
    a, b, k = np.unravel_index(int(escapes.argmax()), escapes.shape)
    return int(idx[a]), int(idx[b]), int(k)


def closure(ring: FusionRing, seed) -> SubringHandle:
    """Smallest fusion-closed, dual-closed subset containing the unit and
    the seed indices."""
    support = ring.tensor != 0
    dual = np.asarray(ring.dual)
    current = np.zeros(ring.rank, dtype=bool)
    current[[0, *seed]] = True
    current |= current[dual]
    while True:
        grown = current | support[np.ix_(current, current)].any(axis=(0, 1))
        grown |= grown[dual]
        if (grown == current).all():
            return SubringHandle(tuple(np.flatnonzero(current)))
        current = grown


def enumerate_subrings(ring: FusionRing, max_count: int = 2 ** 16) -> list:
    """All fusion subrings, by closing generating subsets; sorted by rank
    then indices. Raises SearchBudgetExceeded past max_count closures."""
    found = {closure(ring, ())}
    budget = max_count
    frontier = list(found)
    while frontier:
        handle = frontier.pop()
        for g in range(1, ring.rank):
            if g in handle.indices:
                continue
            budget -= 1
            if budget < 0:
                raise SearchBudgetExceeded(f"more than {max_count} closure computations")
            bigger = closure(ring, handle.indices + (g,))
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    out = sorted(found, key=lambda h: (h.rank, h.indices))
    for h in out:
        h.verify(ring)
    return out


def pointed_subring(ring: FusionRing) -> SubringHandle:
    """Subring of invertible basis elements (b_i b_{i*} = 1)."""
    inv = [i for i in range(ring.rank)
           if ring.tensor[i, ring.dual[i], 0] == 1
           and int(ring.tensor[i, ring.dual[i]].sum()) == 1]
    handle = SubringHandle(tuple(inv))
    handle.verify(ring)
    return handle


def adjoint_subring(ring: FusionRing) -> SubringHandle:
    """Fusion closure of the supports of all b_i b_{i*}."""
    seed = (ring.tensor[np.arange(ring.rank), list(ring.dual)] != 0).any(axis=0)
    return closure(ring, np.flatnonzero(seed))


def integral_subring(ring: FusionRing, tol: float = 1e-6) -> SubringHandle:
    """Maximal subring of basis elements with integer FPdim."""
    idx = [i for i, d in enumerate(spectral.fpdims(ring)) if snap_int(d, tol) is not None]
    handle = SubringHandle(tuple(idx))
    handle.verify(ring)  # closure is a theorem; treat failure as tolerance pathology
    return handle


@dataclass(frozen=True)
class GradingReport:
    group_table: np.ndarray
    component_of: tuple
    adjoint: SubringHandle

    @property
    def group_order(self) -> int:
        return self.group_table.shape[0]

    def to_json(self) -> dict:
        return {
            "groupTable": self.group_table.tolist(),
            "componentOf": list(self.component_of),
            "adjointIndices": list(self.adjoint.indices),
        }


def universal_grading(ring: FusionRing) -> GradingReport:
    """Universal grading: basis elements i, j are in the same component when
    b_j appears in a b_i for some a in the adjoint subring; the group law is
    induced by fusion.

    The adjoint subring is dual-closed, so by Frobenius reciprocity and
    associativity that relation is an equivalence: row i of `linked` is the
    whole component of i, labelled by its smallest member."""
    support = ring.tensor != 0
    ad = adjoint_subring(ring)
    linked = support[list(ad.indices)].any(axis=0)
    rep = linked.argmax(axis=1)
    if not (linked == (rep[:, None] == rep)).all():
        raise InternalInconsistency("adjoint action is not an equivalence relation")
    reps, comp = np.unique(rep, return_inverse=True)
    component_of = tuple(int(c) for c in comp)
    if component_of[0] != 0:
        raise InternalInconsistency("unit component is not component 0")
    if set(component_of[i] for i in ad.indices) != {0}:
        raise InternalInconsistency("adjoint subring is not the trivial component")
    g = len(reps)
    # per product b_i b_j: smallest and largest component met (g and -1 when empty)
    low = np.where(support, comp, g).min(axis=2)
    high = np.where(support, comp, -1).max(axis=2)
    nonempty = high >= 0
    mixed = np.argwhere(nonempty & (low != high))
    if len(mixed):
        i, j = mixed[0]
        raise InternalInconsistency(
            f"product of components {component_of[i]}, {component_of[j]} "
            f"is not homogeneous: {np.unique(comp[support[i, j]]).tolist()}")
    i, j = np.nonzero(nonempty)
    ci, cj, ck = comp[i], comp[j], low[i, j]
    table = -np.ones((g, g), dtype=np.int64)
    table[ci, cj] = ck
    if (table[ci, cj] != ck).any():
        raise InternalInconsistency("component product is not well defined")
    if (table < 0).any():
        raise InternalInconsistency("component product is not everywhere defined")
    # group axioms on the induced table
    for a in range(g):
        if table[0, a] != a or table[a, 0] != a:
            raise InternalInconsistency("grading identity fails")
        if 0 not in table[a]:
            raise InternalInconsistency(f"component {a} has no inverse")
    if (table[table] != table[np.arange(g)[:, None, None], table]).any():
        raise InternalInconsistency("grading group is not associative")
    inverse = (table == 0).argmax(axis=1)
    if (comp[list(ring.dual)] != inverse[comp]).any():
        raise InternalInconsistency("dual does not invert the grading")
    return GradingReport(table, component_of, ad)
