"""Fusion rings over Z_{>=0}: construction, axiom checking, products, I/O.

A fusion ring of rank n is stored as a basis label list, an n x n x n
nonnegative integer structure tensor c[i][j][k] (the multiplicity of basis
element k in the product of basis elements i and j), and a duality
permutation, read from the pairing column when omitted. Index 0 is the unit.

A CharacterTable checks itself once, when built, and reads its degrees
from column 0 once, as Python ints. Multiplicities computed by a float
formula, of a character ring here and of premodular's Verlinde ring, are
snapped one way (_snap_multiplicities).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .exact import _agrees, _is_int, _scalar_to_json, _snaps, parse_scalar

__all__ = [
    "FusionRingError",
    "AxiomViolation",
    "NonIntegralMultiplicity",
    "MalformedInput",
    "FusionRing",
    "validate_tensor",
    "product_ring",
    "group_ring",
    "CharacterTable",
    "character_table_to_fusion_ring",
    "ring_to_json",
    "ring_from_json",
    "table_from_json",
    "table_to_json",
]

class FusionRingError(Exception):
    pass


class AxiomViolation(FusionRingError):
    """Raised when a structure tensor fails one of the fusion ring axioms.

    violations lists every failure found as (axiom_name, witness_indices,
    detail) tuples; rank is the tensor's, or None if no dual could be read.
    """

    def __init__(self, violations, rank=None):
        self.violations, self.rank = list(violations), rank
        lines = [f"{name} at {idx}: {detail}" for name, idx, detail in self.violations[:8]]
        extra = len(self.violations) - len(lines)
        if extra > 0:
            lines.append(f"... and {extra} more")
        super().__init__("; ".join(lines))


class NonIntegralMultiplicity(FusionRingError):
    """Raised when data that should define integer multiplicities does not."""


class MalformedInput(FusionRingError):
    """Raised when ring, table or datum JSON has the wrong shape or types to
    read at all."""


def _derived(fn):
    """Decorator for data derived from a frozen object: fn(obj) runs once per
    object, its result kept in obj.__dict__ under fn's dotted qualified name,
    which no attribute can have. An ndarray result is made read-only; a call
    that raises keeps nothing. Under @property it reads as an attribute."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(obj):
        if key not in obj.__dict__:
            value = fn(obj)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            obj.__dict__[key] = value
        return obj.__dict__[key]
    return cached


_CHUNK_BYTES = 2 ** 20  # the one block size of loops over an n^3 tensor, to stay in cache


def _blocks(count: int, n: int) -> list:
    """range(count) in slices of at most _CHUNK_BYTES of n x n int64 slabs, at
    least one, so a block of any stored tensor stays under it once widened."""
    step = max(1, _CHUNK_BYTES // (8 * n * n))
    return [slice(start, start + step) for start in range(0, count, step)]


# Never uint64: numpy promotes uint64 with int64 to float64
_STORAGE = tuple((np.iinfo(t).max, np.dtype(t)) for t in (np.uint8, np.uint16, np.uint32, np.int64))


def _storage_dtype(top: int) -> np.dtype:
    """The narrowest of the _STORAGE dtypes that holds 0..top, else object
    (Python ints)."""
    return next((dtype for limit, dtype in _STORAGE if top <= limit), np.dtype(object))


def _wide(tensor: np.ndarray) -> np.dtype:
    """The dtype integer arithmetic on a stored tensor runs in: int64, or
    object for a tensor of Python ints."""
    return np.result_type(tensor.dtype, np.int64)


def _as_tensor(tensor) -> np.ndarray:
    """A structure tensor as a ring stores it: n x n x n nonnegative
    integers in _storage_dtype of its largest entry, the input itself when it
    already has that dtype. Only signed input is scanned for negatives; min()
    and max() find them and the largest entry without a copy."""
    arr = np.asarray(tensor)
    if arr.ndim != 3 or len(set(arr.shape)) != 1 or not arr.size:  # index 0 is the unit
        raise FusionRingError(f"structure tensor must be n x n x n, n >= 1, got shape {arr.shape}")
    if arr.dtype == object:  # Python ints of any size
        exact = all(map(_is_int, arr.ravel()))
    else:  # a float entry must be an exact integer inside the int64 range
        exact = arr.dtype.kind in "iu" or (arr.dtype.kind == "f" and (arr == np.rint(arr)).all()
                                           and (np.abs(arr) < 2.0 ** 63).all())
    if not exact:
        raise NonIntegralMultiplicity("structure constants must be integers")
    if arr.dtype.kind != "u" and arr.min() < 0:
        raise NonIntegralMultiplicity("structure constants must be nonnegative")
    return arr.astype(_storage_dtype(int(arr.max())), copy=False)


def _pairing_dual(tensor: np.ndarray) -> list:
    """dual(i), read from a checked tensor's pairing column as c_ij^0 =
    delta_{j, i*}: the one j with c_ij^0 = 1, else AxiomViolation."""
    pairs = tensor[:, :, 0] == 1
    rows, dual = np.nonzero(pairs)  # rows in order, so one hit each iff 0..n-1
    if rows.tolist() == list(range(len(pairs))):
        return dual.tolist()
    i = int(np.flatnonzero(pairs.sum(axis=1) != 1)[0])
    hits = np.flatnonzero(pairs[i]).tolist()
    raise AxiomViolation([("dual-pairing", (i,), f"row {i} pairs with {hits}")])


def validate_tensor(tensor: np.ndarray, dual) -> list:
    """Check all fusion ring axioms; return the full list of violations.

    Axioms: unit (c_{0j}^k = c_{j0}^k = delta_{jk}), dual pairing
    (c_{ij}^0 = delta_{j, dual(i)}), duality is an involution fixing the
    unit, associativity, and Frobenius reciprocity.
    """
    n = tensor.shape[0]
    dual = list(dual)
    violations = []

    if sorted(dual) != list(range(n)):
        violations.append(("duality", tuple(dual), "dual is not a permutation"))
        return violations
    if dual[0] != 0:
        violations.append(("duality", (0,), "dual of the unit is not the unit"))
    for i in range(n):
        if dual[dual[i]] != i:
            violations.append(("duality", (i,), "dual is not an involution"))

    eye = np.eye(n, dtype=bool)  # n^2 bytes: 90 KB at rank 300
    for j, k in zip(*np.nonzero(tensor[0] != eye)):
        violations.append(("unit", (0, int(j), int(k)),
                           f"c[0][{j}][{k}] = {int(tensor[0, j, k])}"))
    for j, k in zip(*np.nonzero(tensor[:, 0, :] != eye)):
        violations.append(("unit", (int(j), 0, int(k)),
                           f"c[{j}][0][{k}] = {int(tensor[j, 0, k])}"))

    pairing = np.zeros((n, n), dtype=bool)
    pairing[np.arange(n), dual] = True
    for i, j in zip(*np.nonzero(tensor[:, :, 0] != pairing)):
        violations.append(("dual-pairing", (int(i), int(j), 0),
                           f"c[{i}][{j}][0] = {int(tensor[i, j, 0])}"))

    def frobenius(other, cell):  # each c_ij^k != other(block)[i, j, k], c at cell(i, j, k)
        for blk in _blocks(n, n):
            bad = tensor[blk] != other(blk)  # any() first: no index arrays when a block holds
            for i, j, k in zip(*np.nonzero(bad)) if bad.any() else ():
                i, j, k = int(i) + blk.start, int(j), int(k)
                a, b, c = cell(i, j, k)
                violations.append(("frobenius", (i, j, k),
                                   f"c[{i}][{j}][{k}] = {int(tensor[i, j, k])} but "
                                   f"c[{a}][{b}][{c}] = {int(tensor[a, b, c])}"))

    # Frobenius reciprocity: c_{ij}^k = c_{i* k}^j = c_{k j*}^i
    frobenius(lambda b: tensor[dual[b]].transpose(0, 2, 1), lambda i, j, k: (dual[i], k, j))
    associativity = _associativity_violations(tensor)
    # The second identity holds when every other check does: associativity
    # at m = 0, with the pairing and the involutive dual, gives
    # c_ij^{k*} = c_jk^{i*}; with the first identity,
    # c_{k j*}^i = c_{k* i}^{j*} = c_ij^k.
    if not violations and not associativity:
        return []
    frobenius(lambda b: tensor[:, dual, b].transpose(2, 1, 0), lambda i, j, k: (k, dual[j], i))
    return violations + associativity


# Rank from which _associativity_violations checks a generating set's slabs
# one at a time instead of all n slabs in one stacked product per side, and
# certifies a one-hot tensor (every c_ij a unit vector e_k) on its n x n
# table instead, n^2 lookups per generator against 2n^4 float products. On
# the catalog character rings (rank 2-11) the stacked check takes 5-20 us
# against 45-280 us for the peeling rounds and their slabs; at rank 15-16
# both take 140-240 us, and at rank 32-64 the certificate is 21-29x faster
# (group rings; float32, one BLAS thread, best of 7). Any failure falls
# through to the full loop.
_CERTIFY_MIN_RANK = 16


def _generators(tensor: np.ndarray, table: np.ndarray = None) -> list:
    """Basis indices whose slabs, if they all hold, certify every slab (see
    _associativity_violations), in the order they were chosen.

    The known set starts as {0} when c[0] is the identity matrix (a left
    unit's slab always holds), else empty. Each round adds, for every known
    pair (s, t), the single unknown element of supp(b_s b_t) if there is
    exactly one; a round that adds nothing makes the lowest unknown index a
    generator instead. On a one-hot tensor, given as its n x n table
    (_one_hot_table), that element is table[s, t], so the rounds peel on
    the table.
    """
    n = tensor.shape[0]
    known = np.zeros(n, dtype=bool)
    known[0] = np.array_equal(tensor[0], np.eye(n, dtype=np.int64))
    gens = []
    while not known.all():
        idx = np.flatnonzero(known)
        peeled = np.zeros(n, dtype=bool)
        if table is not None:  # b_s b_t = b_table[s, t]
            peeled[table[np.ix_(idx, idx)]] = True
            peeled &= ~known
        else:
            for blk in _blocks(len(idx), n):  # one block of known s at a time
                unknown = (tensor[np.ix_(idx[blk], idx)] != 0) & ~known  # [s, t, k]
                peeled |= unknown[unknown.sum(axis=2) == 1].any(axis=0)
        if peeled.any():
            known |= peeled
        else:
            gens.append(int(np.argmin(known)))
            known[gens[-1]] = True
    return gens


def _one_hot_table(tensor: np.ndarray):
    """The n x n table with c_ij = e_table[i, j] if every c_ij is a unit
    vector, else None; one _blocks block of slabs at a time. A block's row
    sums k c_ij^k, in float32, give k on a one-hot row. The guesses are
    kept only if they lie in range(n), each c_ij is 1 at its guess and the
    block has no other nonzero, so the table is exact on any tensor of
    entries within int64; a tensor of 0s and 1s spread unevenly is refused."""
    n = tensor.shape[0]
    table = np.empty((n, n), dtype=np.intp)
    weights = np.arange(n, dtype=np.float32)
    for blk in _blocks(n, n):
        slabs, rows = tensor[blk], table[blk]
        guess = slabs.astype(np.float32) @ weights
        if not (np.count_nonzero(slabs) == guess.size and 0 <= guess.min() and guess.max() < n):
            return None
        rows[...] = guess
        if not (np.take_along_axis(slabs, rows[..., None], axis=2) == 1).all():
            return None
    return table


def _slab_products_hold(tensor: np.ndarray, gens: list, dtype) -> bool:
    """Whether slabs gens (index lists or slices) of both sides agree, by
    float or Python-int products against one block B = c[:, kb, :] of
    _blocks of k at a time, as N_i B = B N_i."""
    n = tensor.shape[0]
    stacks = [tensor[g].astype(dtype) for g in gens]
    for kb in _blocks(n, n):
        block = tensor[:, kb, :].astype(dtype, order="C")
        left, right = block.reshape(n, -1), block.reshape(-1, n)  # [t, (k, m)], [(j, k), t]
        if not all(np.array_equal((g @ left).ravel(), (right @ g).ravel()) for g in stacks):
            return False
    return True


def _associativity_violations(tensor: np.ndarray) -> list:
    """Every (i, j, k, m) with sum_t c_ij^t c_tk^m != sum_t c_jk^t c_it^m,
    in C order, each with both sides in its message.

    Slab i, the [j, k, m] of both sides, i.e. of (b_i b_j) b_k and
    b_i (b_j b_k), is two n x n^2 matrix products. Every partial sum is an
    integer of modulus at most max|c|^2 * n, so the products are exact in
    float32 below 2^24 and in float64 below 2^53; above that bound they run
    on Python ints. The slabs checked are compared with each block
    B = c[:, kb, :] of _blocks of k (_slab_products_hold), so no copy of the
    whole tensor is made; below rank _CERTIFY_MIN_RANK, all n slabs as one
    stacked product per side, n^4 entries (200 KB in float32 at rank 15).

    Slab i holds iff b_i lies in the left nucleus {x : (xy)z = x(yz) for all
    y, z}, and the left nucleus of any bilinear product is a subalgebra:
    with b_s, b_t in it, so is b_s b_t = sum_k c_st^k b_k, and so is b_k if
    every other basis element of that support is (over Q, as c_st^k != 0).
    So from rank _CERTIFY_MIN_RANK on, only the slabs of a generating set
    found that way (_generators) are checked, and if all hold the ring is
    associative. There a one-hot tensor, every c_ij a unit vector
    e_table[i, j] (a group ring, say), has slab g holding iff
    table[table[g]] == table[g][table], (g j) k = g (j k) for all j, k:
    n^2 lookups per generator, peeled on the table too. If a check fails,
    the slabs of a converted copy are checked one at a time; only that loop
    reports violations, so the list is the same either way.
    """
    n = tensor.shape[0]
    bound = max(int(tensor.max(initial=0)), -int(tensor.min(initial=0))) ** 2 * n
    dtype = np.float32 if bound < 2 ** 24 else np.float64 if bound < 2 ** 53 else object
    # a one-hot tensor has max|c| = 1
    table = _one_hot_table(tensor) if n >= _CERTIFY_MIN_RANK and bound == n else None
    if table is not None:
        gens = _generators(tensor, table)
        holds = all(np.array_equal(table[table[g]], table[g][table]) for g in gens)
    else:
        gens = [slice(None)] if n < _CERTIFY_MIN_RANK else [[i] for i in _generators(tensor)]
        holds = _slab_products_hold(tensor, gens, dtype)
    if holds:
        return []
    t = tensor.astype(dtype)
    out = []
    for i in range(n):
        left = (t[i] @ t.reshape(n, n * n)).reshape(n, n, n)  # [j, k, m]
        right = (t.reshape(n * n, n) @ t[i]).reshape(n, n, n)
        for j, k, m in zip(*np.nonzero(left != right)):
            out.append(("associativity", (i, int(j), int(k), int(m)),
                        f"sum_t c[{i}][{j}][t] c[t][{k}][{m}] = {int(left[j, k, m])} "
                        f"!= {int(right[j, k, m])}"))
    return out


@dataclass(frozen=True)
class FusionRing:
    """A fusion ring: basis labels, structure tensor and duality (module
    docstring). The constructor raises AxiomViolation with validate_tensor's
    list, so every ring is one; _by_theorem skips only that check, for rings
    a theorem gives. The tensor is read-only and stored in the narrowest dtype
    that holds its largest entry (_as_tensor), mostly uint8, so arithmetic on
    it widens first (_wide), one _blocks block at a time."""

    labels: tuple
    tensor: np.ndarray = field(repr=False)
    dual: tuple = None  # read from the pairing column when not given

    def __post_init__(self):
        self._store(self.labels, self.tensor, self.dual)
        if bad := validate_tensor(self.tensor, self.dual):
            raise AxiomViolation(bad, self.rank)

    @classmethod
    def _by_theorem(cls, labels, tensor, dual=None) -> "FusionRing":
        return object.__new__(cls)._store(labels, tensor, dual)

    def _store(self, labels, tensor, dual) -> "FusionRing":
        """Set the fields, checking shape, entries, labels and dual; self."""
        arr = _as_tensor(tensor)
        arr.setflags(write=False)
        dual = _pairing_dual(arr) if dual is None else dual
        labels = tuple(map(str, labels))
        if not all(map(_is_int, dual)):
            raise MalformedInput("dual must list integers")
        dual, n = tuple(map(operator.index, dual)), len(arr)
        if len(labels) != n or len(dual) != n:
            raise MalformedInput("labels, tensor and dual must agree on rank")
        if len(set(labels)) != n:
            raise MalformedInput("labels must be distinct")
        for name, value in (("labels", labels), ("tensor", arr), ("dual", dual)):
            object.__setattr__(self, name, value)
        return self

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    @_derived
    def support(self) -> np.ndarray:
        """Read-only boolean tensor: support[i, j, k] iff c_ij^k != 0."""
        return self.tensor != 0

    @property
    @_derived
    def support_masks(self) -> tuple:
        """support_masks[i][j] is the support of b_i b_j as a bitmask: bit k
        is set iff c_ij^k != 0."""
        n = self.rank
        words = max(1, -(-n // 64))
        padded = np.zeros((n, n, 64 * words), dtype=bool)
        padded[:, :, :n] = self.support
        packed = np.packbits(padded, axis=2, bitorder="little").view("<u8").astype(object)
        masks = packed[:, :, 0]
        for w in range(1, words):
            masks = masks | (packed[:, :, w] << (64 * w))
        return tuple(map(tuple, masks.tolist()))

    @_derived
    def is_commutative(self) -> bool:
        t, n = self.tensor, self.rank
        return all((t[b] == t[:, b].transpose(1, 0, 2)).all() for b in _blocks(n, n))

    def is_self_dual(self, i: int) -> bool:
        return self.dual[i] == i

    def fuse(self, x, y) -> np.ndarray:
        """Multiply two elements given as coefficient vectors on the basis."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != (self.rank,) or y.shape != (self.rank,):
            raise FusionRingError("fuse expects coefficient vectors of full rank")
        dtype = np.result_type(x, y, _wide(self.tensor))
        return np.einsum("i,j,ijk->k", x, y, self.tensor, dtype=dtype)

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.rank, dtype=np.int64)
        v[i] = 1
        return v

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (self.labels == other.labels and self.dual == other.dual
                and bool((self.tensor == other.tensor).all()))

    def __hash__(self):  # the tensor's bytes are pointers when its dtype is object
        return hash((self.labels, self.dual))


def product_ring(a: FusionRing, b: FusionRing) -> FusionRing:
    """Deligne-style product: basis pairs, tensor the structure constants.
    The product is not checked, as each axiom holds factor by factor (an
    associativity sum is a product of two). Each entry is one product,
    computed in the storage dtype of max(a) max(b). A factor is cast to it
    unchecked: in a nonzero product each factor is at most the product."""
    n, m = a.rank, b.rank
    dtype = _storage_dtype(int(a.tensor.max()) * int(b.tensor.max()))
    t = np.einsum("ijk,abc->iajbkc", a.tensor, b.tensor, dtype=dtype, casting="unsafe")
    t = t.reshape(n * m, n * m, n * m)
    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    return FusionRing._by_theorem(labels, t)


def _factors(factors) -> tuple:
    """Cyclic factor orders as a tuple of ints >= 1; FusionRingError unless
    each is an integer by _is_int and at least 1."""
    factors = list(factors)
    if not all(_is_int(f) and f >= 1 for f in factors):
        raise FusionRingError(f"cyclic factor orders must be positive integers: {factors}")
    return tuple(map(operator.index, factors))


def _place_values(orders) -> np.ndarray:
    """prod(orders[t + 1:]) at each t, as int64, by one reverse cumulative product."""
    return np.cumprod([1, *orders[::-1]], dtype=np.int64)[-2::-1]


@functools.lru_cache(maxsize=16)
class _Group:
    """Index tables of G, elements numbered in itertools.product order:
    add[i, j] and neg[i] are element numbers, gens[f] that of generator f,
    and aut_gens, built on first use, permutations generating Aut(G).
    Built once per factor tuple and shared, so every array is read-only."""

    def __init__(self, factors: tuple):
        self.elements = tuple(itertools.product(*[range(f) for f in factors]))
        n, k = len(self.elements), len(factors)
        self.coords = np.array(self.elements, dtype=np.int64).reshape(n, k)
        self.mods = np.array(factors, dtype=np.int64)
        self.strides = _place_values(factors)
        self.add = self.number(self.coords[:, None, :] + self.coords[None, :, :])
        self.neg = self.number(-self.coords)
        self.gens = self.number(np.eye(k, dtype=np.int64))
        for arr in (self.coords, self.mods, self.strides, self.add, self.neg, self.gens):
            arr.setflags(write=False)

    def number(self, coords: np.ndarray) -> np.ndarray:
        """Element numbers of coordinate vectors (last axis), reduced mod G."""
        return (coords % self.mods) @ self.strides

    @property
    @_derived
    def aut_gens(self) -> np.ndarray:
        """Generators of Aut(G), one row each: the element number of phi(g)
        at g's number. They are the unit scalings g_i -> u g_i, u over
        _unit_generators(n_i), and the shears g_i -> g_i + c g_j (i != j)
        with c = n_j / gcd(n_i, n_j), the least c for which c g_j has order
        dividing n_i, kept when c g_j != 0."""
        n, k = self.mods.tolist(), len(self.mods)
        entries = [(i, i, u) for i in range(k) for u in _unit_generators(n[i])]
        entries += [(i, j, c) for i, j in itertools.permutations(range(k), 2)
                    if (c := n[j] // math.gcd(n[i], n[j])) % n[j]]
        images = np.tile(np.eye(k, dtype=np.int64), (len(entries), 1, 1))
        for image, (i, j, c) in zip(images, entries):
            image[i, j] = c  # g_i -> g_i + c g_j, or c g_i when i = j
        return self.number(self.coords @ images)


def _unit_generators(n: int) -> list:
    """A generating set of (Z/n)^x: each unit, in increasing order, that
    the units before it do not generate."""
    gens, reached = [], {1 % n}
    for u in range(2, n):
        if math.gcd(u, n) == 1 and u not in reached:
            gens.append(u)
            grown, power = set(reached), u
            while power not in reached:  # <reached, u> is the union of reached u^t
                grown.update(h * power % n for h in reached)
                power = power * u % n
            reached = grown
    return gens


def group_ring(spec) -> FusionRing:
    """Fusion ring of a finite abelian group given by its cyclic factor orders,
    or of an arbitrary finite group given by a multiplication table.

    spec: cyclic orders or an n x n table of element indices in range(n)
    with identity at index 0, as lists or a numpy array; a table's rows may be
    1-D arrays. Only a table, outside input, is checked; cyclic orders give
    a group ring by construction. The tensor is one-hot (b_i b_j is the
    basis element table[i][j]), so from rank _CERTIFY_MIN_RANK on its
    associativity is certified on the table read back from it, n^2 lookups
    per generator; a table that fails gets the full loop's violations.
    """
    spec = spec.tolist() if isinstance(spec, np.ndarray) else list(spec)
    is_table = bool(spec) and (isinstance(spec[0], (list, tuple))
                               or isinstance(spec[0], np.ndarray) and spec[0].ndim == 1)
    if is_table:
        spec = [row.tolist() if isinstance(row, np.ndarray) else row for row in spec]
        n = len(spec)
        if not all(isinstance(row, (list, tuple)) and len(row) == n for row in spec):
            raise FusionRingError("multiplication table must be square")
        entries = list(itertools.chain.from_iterable(spec))
        table = None  # _is_int on each entry type, or on each entry if one is a 0-d array
        if (all(issubclass(k, (int, np.integer)) and k is not bool for k in {*map(type, entries)})
                or all(map(_is_int, entries))):
            with contextlib.suppress(OverflowError):  # an int past int64
                table = np.array(spec, dtype=np.int64)
        if table is None or not (0 <= table.min() and table.max() < n):
            raise FusionRingError(f"multiplication table entries must lie in range({n})")
        labels = [f"g{i}" for i in range(n)]
    else:
        grp = _Group(_factors(spec))
        table = grp.add
        labels = ["e" if not any(e) else "+".join(f"{x}g{i}" for i, x in enumerate(e) if x)
                  for e in grp.elements]
    n = len(labels)
    tensor = np.zeros((n, n, n), dtype=np.uint8)
    tensor[np.arange(n)[:, None], np.arange(n), table] = 1
    # the dual of g is the h with g h = e, once per row
    return (FusionRing if is_table else FusionRing._by_theorem)(labels, tensor)


def _positive_ints(vals: np.ndarray, error) -> list:
    """A float or complex array as Python ints if each value snaps to a positive
    integer (exact._snaps), else raise error(x) for the first x that does not."""
    out = np.rint(vals.real)
    ok = _snaps(vals, out)[0] & (out >= 1)
    if not ok.all():
        raise error(int(np.argmin(ok)))
    return [int(v) for v in out]


@dataclass(frozen=True)
class CharacterTable:
    """Ordinary character table of a finite group, checked once, when built.

    rows: r x r complex matrix, one row per irreducible character, one column
    per conjugacy class; column 0 is the identity class, so it holds the
    degrees, read once into degrees as Python ints. class_sizes=None derives
    the sizes |G| / sum_i |chi_i(x)|^2 by column orthogonality. The checks,
    in order: r >= 1; an order in [1, 2^63) and one positive size per class,
    all integers (MalformedInput); positive integer degrees; sum d^2 = sum
    sizes = |G| in ints; column orthogonality, Gram entry (x, y) snapping to
    c_x or 0 at scale sqrt(c_x c_y), c_x = |G| / size x the centralizer
    order. Floats snap to integers and values by exact._snaps.
    """

    order: int
    rows: np.ndarray = field(repr=False)
    class_sizes: tuple = None
    degrees: tuple = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=complex)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1] or not rows.size:
            raise FusionRingError("character table must be square")
        if not (_is_int(self.order) and 1 <= self.order < 2 ** 63):
            raise MalformedInput("'order' must be a positive integer below 2^63")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        sizes = self.class_sizes
        if sizes is None:
            with np.errstate(divide="ignore"):  # a zero column gives inf, refused below
                ratios = self.order / np.sum(np.abs(rows) ** 2, axis=0)
            sizes = _positive_ints(ratios, lambda x: NonIntegralMultiplicity(
                f"column {x}: |G|/sum|chi(x)|^2 = {ratios[x]} is not a positive integer"))
        if not (np.iterable(sizes) and all(map(_is_int, sizes))):
            raise MalformedInput("class sizes must be integers")
        order, sizes = operator.index(self.order), tuple(map(operator.index, sizes))
        if len(sizes) != len(rows) or min(sizes) < 1:
            raise MalformedInput("class sizes must list one positive integer per class")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "class_sizes", sizes)
        degrees = _positive_ints(rows[:, 0], lambda x: FusionRingError(
            "column 0 must hold positive integer degrees"))
        object.__setattr__(self, "degrees", tuple(degrees))
        if sum(d * d for d in degrees) != order:
            raise FusionRingError("sum of squared degrees must equal the group order")
        if sum(sizes) != order:
            raise FusionRingError("class sizes must sum to the group order")
        centralizers = np.array([order / s for s in sizes])
        root = np.sqrt(centralizers)
        if not _snaps(rows.conj().T @ rows, np.diag(centralizers), np.outer(root, root))[0].all():
            raise FusionRingError("column orthogonality fails")

    @property
    def num_classes(self) -> int:
        return self.rows.shape[0]


def _snap_multiplicities(vals: np.ndarray, within):
    """(int64 tensor, max defect) of a complex tensor computed by a float
    formula. A cell's defect is its distance from rint of its real part, as
    within (exact._agrees or exact._snaps) measures and judges it.
    NonIntegralMultiplicity at the first cell in C order that within
    refuses, or whose integer is negative or past int64 (inf and nan fail)."""
    out = np.rint(vals.real)
    close, err = within(vals, out)
    ok = close & (out >= 0) & (out < 2 ** 63)
    if not ok.all():
        i, j, k = np.argwhere(~ok)[0]
        cell = f"N[{i}][{j}][{k}]"
        if not close[i, j, k]:
            raise NonIntegralMultiplicity(f"{cell} = {vals[i, j, k]} is not an integer "
                                          f"(defect {err[i, j, k]})")
        if out[i, j, k] < 0:
            raise NonIntegralMultiplicity(f"{cell} = {int(out[i, j, k])} is negative")
        raise NonIntegralMultiplicity(f"{cell} = {out[i, j, k]:.6g} does not fit in int64")
    return out.astype(np.int64), float(err.max())


@_derived
def character_table_to_fusion_ring(table: CharacterTable) -> FusionRing:
    """Character ring of the group: basis = irreducible characters,
    c_{ij}^k = multiplicity of chi_k in chi_i * chi_j (pointwise product),
    computed by column-weighted inner products and snapped by exact._agrees
    (_snap_multiplicities). The dual of chi_i, the complex conjugate row, is
    read from the snapped pairing column by the ring itself (_pairing_dual).
    Built once per table."""
    rows = table.rows
    w = np.array(table.class_sizes, dtype=float) / table.order
    tensor, _ = _snap_multiplicities(np.einsum("x,ix,jx,kx->ijk", w, rows, rows, rows.conj()),
                                     _agrees)
    labels = [f"chi{i}[{d}]" for i, d in enumerate(table.degrees)]
    return FusionRing(labels, tensor)


# ---------------------------------------------------------------------------
# JSON I/O


def ring_to_json(ring: FusionRing) -> dict:
    return {
        "labels": list(ring.labels),
        "tensor": ring.tensor.tolist(),
        "dual": list(ring.dual),
    }


def ring_from_json(data) -> FusionRing:
    """Read a ring from its JSON object (or a string holding it).

    Raises MalformedInput unless data is an object whose 'tensor' is a
    nonempty n x n x n array of finite numbers inside the int64 range,
    with 'labels' a list and 'dual' a list of integers when given.
    Negative or non-integer numbers pass here; the ring checks report them.
    """
    data = _json_object(data, "ring")
    labels, dual = data.get("labels"), data.get("dual")
    for key, value in (("labels", labels), ("dual", dual)):
        if value is not None and not isinstance(value, list):
            raise MalformedInput(f"'{key}' must be a list")
    if not all(map(_is_int, dual or [])):
        raise MalformedInput("'dual' must be a list of integers")
    tensor = _read_tensor(data.get("tensor"))
    if (tensor.ndim != 3 or len(set(tensor.shape)) != 1 or tensor.size == 0
            or tensor.dtype.kind not in "iufO"):
        raise MalformedInput("'tensor' must be a nonempty n x n x n array of numbers")
    if tensor.dtype == object or not (-2 ** 63 <= tensor.min() and tensor.max() < 2 ** 63):
        raise MalformedInput("'tensor' entries must be finite numbers inside the int64 range")
    return FusionRing([f"X{i}" for i in range(len(tensor))] if labels is None else labels,
                      tensor, dual)


def _read_tensor(value) -> np.ndarray:
    """A ring JSON 'tensor' value as an array. A list of n lists of n lists
    of n ints in range(256) is read in one typed pass as uint8 bytes; anything
    else by np.asarray, as a 0-d array when its nesting is ragged. Both give
    the same ring: FusionRing stores such a cube as uint8 either way
    (_as_tensor)."""
    n = len(value) if type(value) is list else 0
    if n and set(map(type, value)) == {list} and set(map(len, value)) == {n}:
        cols = list(itertools.chain.from_iterable(value))
        # np.asarray reads an all-bool cube as dtype bool, which is malformed
        if (set(map(type, cols)) == {list} and set(map(len, cols)) == {n}
                and type(cols[0][0]) is not bool):
            try:  # bytes() of a list takes its fast path
                flat = b"".join(map(bytes, cols))
                return np.frombuffer(flat, np.uint8).reshape(n, n, n)
            except (TypeError, ValueError):  # a float, an int outside range(256), ...
                pass
    try:
        return np.asarray(value)
    except ValueError:  # ragged nesting
        return np.asarray(None)


def table_from_json(data) -> CharacterTable:
    """Read a character table from its JSON object (or a string holding it).

    Raises MalformedInput unless data is an object with 'rows' a square
    matrix of scalars (see _scalar_matrix), and so does the constructor for
    a bad 'order' or 'classSizes'. A table that reads but is not a
    character table fails the table checks instead.
    """
    data = _json_object(data, "character-table")
    rows = _scalar_matrix(data, "rows")
    return CharacterTable(data.get("order"), rows, data.get("classSizes"))


def _json_object(data, kind: str) -> dict:
    """data, or the JSON text data parsed, as a dict; else MalformedInput."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
            raise MalformedInput(f"{kind} JSON does not parse: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedInput(f"{kind} JSON must be an object")
    return data


def _scalar_matrix(data: dict, key: str) -> np.ndarray:
    """data[key], a nonempty square list of lists of scalars read by
    parse_scalar, as a complex array; MalformedInput unless every entry
    parses to a value of modulus below 2^63 (so no product overflows)."""
    rows = data.get(key)
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and len(row) == len(rows) for row in rows)):
        raise MalformedInput(f"'{key}' must be a nonempty square matrix")
    try:
        matrix = np.array([[parse_scalar(e) for e in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"'{key}' has an unreadable entry: {exc}") from None
    if not (np.abs(matrix) < 2 ** 63).all():
        raise MalformedInput(f"'{key}' entries must have modulus below 2^63")
    return matrix


def table_to_json(table: CharacterTable) -> dict:
    return {
        "order": table.order,
        "classSizes": list(table.class_sizes),
        "rows": [[_scalar_to_json(z) for z in row] for row in table.rows],
    }
