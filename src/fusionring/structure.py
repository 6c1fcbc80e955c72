"""Subring lattice and grading structure of a fusion ring."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import FusionRing, FusionRingError
from .exact import _is_int
from . import spectral

__all__ = [
    "SearchBudgetExceeded",
    "ClosureViolation",
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


@dataclass(frozen=True)
class SubringHandle:
    """Basis indices, sorted without repeats; ClosureViolation unless each
    is an integer by exact._is_int. verify checks them against a ring."""
    indices: tuple

    def __post_init__(self):
        indices = tuple(self.indices)
        if not all(map(_is_int, indices)):
            raise ClosureViolation(f"subring indices must be integers, got {indices}")
        object.__setattr__(self, "indices", tuple(sorted(set(map(operator.index, indices)))))

    @property
    def rank(self) -> int:
        return len(self.indices)

    def _check_range(self, ring: FusionRing) -> None:
        """ClosureViolation naming the first index outside range(ring.rank)."""
        for i in self.indices:
            if not 0 <= i < ring.rank:
                raise ClosureViolation(f"index {i} is not in range({ring.rank})")

    def verify(self, ring: FusionRing) -> None:
        self._check_range(ring)
        if 0 not in self.indices:
            raise ClosureViolation("handle must contain the unit")
        for i in self.indices:
            if ring.dual[i] not in self.indices:
                raise ClosureViolation(f"dual of {i} escapes the handle")
        escape = _first_escape(ring.support, self.indices)
        if escape is not None:
            i, j, k = escape
            raise ClosureViolation(f"product {i}*{j} meets {k} outside the handle")


def _first_escape(support: np.ndarray, indices):
    """The first product (i, j, k) in lexicographic order with i and j in
    indices, k outside them and support[i, j, k] set; None when the index
    set is fusion-closed. support is the boolean tensor ring.support."""
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
    the seed indices (see _closure_mask). ClosureViolation unless each seed
    index is an integer (exact._is_int) in range(ring.rank)."""
    handle = SubringHandle(seed)
    handle._check_range(ring)
    return _handle(_closure_mask(ring, handle.indices))


def _handle(mask: int) -> SubringHandle:
    """The handle of the indices whose bits are set in mask."""
    return SubringHandle(tuple(i for i in range(mask.bit_length()) if mask >> i & 1))


def _closure_mask(ring: FusionRing, seed) -> int:
    """closure(ring, seed) as a bitmask: bit k is set iff k is a member.

    Breadth-first over words in the generators seed + dual(seed), from the
    unit (the empty word): supp(g w) is the union of supp(g x) over x in
    supp(w), since structure constants are nonnegative. The basis elements
    met in some word are fusion-closed (x y is bounded by the product of
    words containing x and y) and dual-closed (the dual of a word is a word
    in the duals)."""
    masks = ring.support_masks
    gens = set(seed)
    rows = [masks[g] for g in gens | {ring.dual[g] for g in gens}]
    reached = 1
    queue = [0]
    for x in queue:
        new = 0
        for row in rows:
            new |= row[x]
        new &= ~reached
        reached |= new
        while new:
            low = new & -new
            queue.append(low.bit_length() - 1)
            new ^= low
    return reached


def enumerate_subrings(ring: FusionRing, max_count: int = 2 ** 16) -> list:
    """All fusion subrings, sorted by rank then indices, by the cyclic
    extension method (Neubueser's, for subgroup lattices).

    The candidates are the one-generated subrings C_g = closure(g), one g
    per distinct C_g, less each C_g that is the closure of the C_h strictly
    inside it. Every subring H is the join of the C_g of its members, and a
    C_g that is a join of smaller C_h is by induction a join of candidates;
    so H is the join of the candidates inside it, added one at a time. The
    search extends each subring found by every candidate not inside it, so
    it meets each partial join, hence every subring. A closure takes the
    generators that produced H plus g, not H itself, and is C_g itself when
    H is the unit subring; it is a subring by construction (_closure_mask)
    and is not verified.

    max_count bounds the sum of rank - |H| over all subrings H found,
    charged as each H is extended; past it SearchBudgetExceeded is raised."""
    cyclic = {}
    for g in range(1, ring.rank):
        cyclic.setdefault(_closure_mask(ring, (g,)), g)
    candidates = []
    for mask, g in cyclic.items():
        inner = tuple(h for sub, h in cyclic.items() if sub != mask and sub & mask == sub)
        if not inner or _closure_mask(ring, inner) != mask:
            candidates.append((mask, g))
    found = {1: ()}
    budget = max_count
    frontier = [1]
    while frontier:
        mask = frontier.pop()
        budget -= ring.rank - mask.bit_count()
        if budget < 0:
            raise SearchBudgetExceeded(f"subring coranks sum to more than {max_count}")
        gens = found[mask]
        for sub, g in candidates:
            if sub & mask == sub:
                continue
            bigger = _closure_mask(ring, gens + (g,)) if gens else sub
            if bigger not in found:
                found[bigger] = gens + (g,)
                frontier.append(bigger)
    return sorted(map(_handle, found), key=lambda h: (h.rank, h.indices))


def pointed_subring(ring: FusionRing) -> SubringHandle:
    """Subring of invertible basis elements (b_i b_{i*} = 1, as c_{i i*}^0 = 1),
    closed as products and duals of invertibles are invertible."""
    products = ring.tensor[np.arange(ring.rank), list(ring.dual)]
    return SubringHandle(tuple(np.flatnonzero(products.sum(axis=1) == 1)))


def adjoint_subring(ring: FusionRing) -> SubringHandle:
    """Fusion closure of the supports of all b_i b_{i*} (the induction-unit profile)."""
    return closure(ring, np.flatnonzero(spectral.induction_unit_profile(ring)))


def integral_subring(ring: FusionRing) -> SubringHandle:
    """Maximal subring of basis elements with integer FPdim, certified in
    integers. Those elements form a subring: in d_i d_j = sum_k c_ij^k d_k,
    each Galois conjugate of d_k has modulus at most d_k. So x joins the
    elements found when the FPdims d of spectral._perron_dims, rounded once
    (each is >= 1), satisfy N_x d = d_x d on C = closure(found + x)
    (spectral._is_eigenvector): C is fusion-closed, and a positive integer
    eigenvector of N_x on it forces d_x = FPdim(x), so a rounded irrational
    FPdim never passes. Integer FPdims pass, FPdim being a character."""
    dims = [int(d) for d in np.rint(spectral._perron_dims(ring))]
    found, gens = 1, ()
    for x in range(1, ring.rank):
        if found >> x & 1:
            continue
        mask = _closure_mask(ring, gens + (x,))
        idx = _handle(mask).indices
        d = [dims[i] for i in idx]
        if spectral._is_eigenvector(ring.tensor[x][np.ix_(idx, idx)], d, dims[x]):
            found, gens = mask, gens + (x,)
    return _handle(found)


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

    On a fusion ring the rest is a theorem (Gelaki-Nikshych), not
    checked here: the relation is an equivalence, so row i of it is the
    component of i, labelled by its smallest member (the unit's is 0);
    products of components are homogeneous, so one product of two
    representatives gives each table entry; and the components form a
    group that duality inverts."""
    support = ring.support
    ad = adjoint_subring(ring)
    rep = support[list(ad.indices)].any(axis=0).argmax(axis=1)
    reps, comp = np.unique(rep, return_inverse=True)
    table = comp[support[np.ix_(reps, reps)].argmax(axis=2)]
    return GradingReport(table, tuple(int(c) for c in comp), ad)
