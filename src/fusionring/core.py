"""Fusion rings over Z_{>=0}: construction, axiom checking, products, I/O.

A fusion ring of rank n is stored as a basis label list, an n x n x n
nonnegative integer structure tensor c[i][j][k] (the multiplicity of basis
element k in the product of basis elements i and j), and a duality
permutation. Index 0 is always the unit.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .exact import _scalar_to_json, parse_scalar, snap_int

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

    violations is a list of (axiom_name, witness_indices, detail) tuples
    covering every failure found, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = [f"{name} at {idx}: {detail}" for name, idx, detail in self.violations[:8]]
        extra = len(self.violations) - len(lines)
        if extra > 0:
            lines.append(f"... and {extra} more")
        super().__init__("; ".join(lines))


class NonIntegralMultiplicity(FusionRingError):
    """Raised when data that should define integer multiplicities does not."""


class MalformedInput(FusionRingError):
    """Raised when ring JSON has the wrong shape or types to read at all."""


def _as_tensor(tensor) -> np.ndarray:
    arr = np.asarray(tensor)
    if arr.ndim != 3 or len(set(arr.shape)) != 1:
        raise FusionRingError(f"structure tensor must be n x n x n, got shape {arr.shape}")
    if arr.dtype == object:
        flat = arr.ravel()
        if not all(isinstance(v, (int, np.integer)) for v in flat):
            raise NonIntegralMultiplicity("structure constants must be integers")
        if any(v < 0 for v in flat):
            raise NonIntegralMultiplicity("structure constants must be nonnegative")
        return arr
    # a float entry must be an exact integer inside the int64 range
    exact = arr.dtype.kind in "iu" or (arr.dtype.kind == "f" and (arr == np.rint(arr)).all()
                                       and (np.abs(arr) < 2.0 ** 63).all())
    if not exact:
        raise NonIntegralMultiplicity("structure constants must be integers")
    arr = arr.astype(np.int64)
    if (arr < 0).any():
        raise NonIntegralMultiplicity("structure constants must be nonnegative")
    return arr


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

    eye = np.eye(n, dtype=np.int64)
    for j, k in zip(*np.nonzero(tensor[0] != eye)):
        violations.append(("unit", (0, int(j), int(k)),
                           f"c[0][{j}][{k}] = {int(tensor[0, j, k])}"))
    for j, k in zip(*np.nonzero(tensor[:, 0, :] != eye)):
        violations.append(("unit", (int(j), 0, int(k)),
                           f"c[{j}][0][{k}] = {int(tensor[j, 0, k])}"))

    pairing = np.zeros((n, n), dtype=np.int64)
    pairing[np.arange(n), dual] = 1
    for i, j in zip(*np.nonzero(tensor[:, :, 0] != pairing)):
        violations.append(("dual-pairing", (int(i), int(j), 0),
                           f"c[{i}][{j}][0] = {int(tensor[i, j, 0])}"))

    # Frobenius reciprocity: c_{ij}^k = c_{i* k}^j = c_{k j*}^i
    t_star_left = tensor[dual][:, :, :].transpose(0, 2, 1)  # c_{i* k}^j at [i,j,k]
    for i, j, k in zip(*np.nonzero(tensor != t_star_left)):
        violations.append(("frobenius", (int(i), int(j), int(k)),
                           f"c[{i}][{j}][{k}] = {int(tensor[i, j, k])} but "
                           f"c[{dual[i]}][{k}][{j}] = {int(tensor[dual[i], k, j])}"))
    t_star_right = tensor[:, dual, :].transpose(2, 1, 0)  # c_{k j*}^i at [i,j,k]
    for i, j, k in zip(*np.nonzero(tensor != t_star_right)):
        violations.append(("frobenius", (int(i), int(j), int(k)),
                           f"c[{i}][{j}][{k}] = {int(tensor[i, j, k])} but "
                           f"c[{k}][{dual[j]}][{i}] = {int(tensor[k, dual[j], i])}"))

    violations.extend(_associativity_violations(tensor))
    return violations


def _associativity_violations(tensor: np.ndarray) -> list:
    n = tensor.shape[0]
    if tensor.dtype != object and int(tensor.max(initial=0)) ** 2 * n < 2 ** 62 // n:
        left = np.einsum("ijt,tkm->ijkm", tensor, tensor)
        right = np.einsum("jkt,itm->ijkm", tensor, tensor)
        bad = np.nonzero(left != right)
    else:
        # big multiplicities: redo with exact Python integers
        t = tensor if tensor.dtype == object else tensor.astype(object)
        left = np.einsum("ijt,tkm->ijkm", t, t)
        right = np.einsum("jkt,itm->ijkm", t, t)
        bad = np.nonzero(left != right)
    out = []
    for i, j, k, m in zip(*bad):
        out.append(("associativity", (int(i), int(j), int(k), int(m)),
                    f"sum_t c[{i}][{j}][t] c[t][{k}][{m}] = {int(left[i, j, k, m])} "
                    f"!= {int(right[i, j, k, m])}"))
    return out


@dataclass(frozen=True)
class FusionRing:
    labels: tuple
    tensor: np.ndarray = field(repr=False)
    dual: tuple

    def __post_init__(self):
        arr = _as_tensor(self.tensor)
        arr.setflags(write=False)
        object.__setattr__(self, "tensor", arr)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "dual", tuple(int(d) for d in self.dual))
        n = arr.shape[0]
        if len(self.labels) != n or len(self.dual) != n:
            raise FusionRingError("labels, tensor and dual must agree on rank")
        if len(set(self.labels)) != n:
            raise FusionRingError("labels must be distinct")

    @classmethod
    def validated(cls, labels, tensor, dual) -> "FusionRing":
        ring = cls(labels, tensor, dual)
        bad = validate_tensor(ring.tensor, ring.dual)
        if bad:
            raise AxiomViolation(bad)
        return ring

    @property
    def rank(self) -> int:
        return len(self.labels)

    def is_commutative(self) -> bool:
        return bool((self.tensor == self.tensor.transpose(1, 0, 2)).all())

    def is_self_dual(self, i: int) -> bool:
        return self.dual[i] == i

    def fuse(self, x, y) -> np.ndarray:
        """Multiply two elements given as coefficient vectors on the basis."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != (self.rank,) or y.shape != (self.rank,):
            raise FusionRingError("fuse expects coefficient vectors of full rank")
        return np.einsum("i,j,ijk->k", x, y, self.tensor)

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.rank, dtype=np.int64)
        v[i] = 1
        return v

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (self.labels == other.labels and self.dual == other.dual
                and bool((self.tensor == other.tensor).all()))

    def __hash__(self):
        return hash((self.labels, self.dual, self.tensor.tobytes()))


def product_ring(a: FusionRing, b: FusionRing) -> FusionRing:
    """Deligne-style product: basis pairs, tensor the structure constants."""
    n, m = a.rank, b.rank
    t = np.einsum("ijk,abc->iajbkc", a.tensor, b.tensor).reshape(n * m, n * m, n * m)
    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    dual = [a.dual[i] * m + b.dual[j] for i in range(n) for j in range(m)]
    return FusionRing.validated(labels, t, dual)


def group_ring(spec) -> FusionRing:
    """Fusion ring of a finite abelian group given by its cyclic factor orders,
    or of an arbitrary finite group given by a multiplication table.

    spec: list of ints (cyclic orders) or an n x n table of element indices
    with identity at index 0.
    """
    spec = list(spec)
    if spec and isinstance(spec[0], (list, tuple)):
        table = np.asarray(spec, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise FusionRingError("multiplication table must be square")
        labels = [f"g{i}" for i in range(n)]
        dual = [-1] * n
        tensor = np.zeros((n, n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                tensor[i, j, table[i, j]] = 1
                if table[i, j] == 0:
                    dual[i] = j
    else:
        orders = [int(x) for x in spec]
        if any(o < 1 for o in orders):
            raise FusionRingError("cyclic factor orders must be positive")
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
    return FusionRing.validated(labels, tensor, dual)


@dataclass(frozen=True)
class CharacterTable:
    """Ordinary character table of a finite group.

    rows: r x r complex matrix, one row per irreducible character, one column
    per conjugacy class; column 0 is the identity class, so column 0 holds
    the degrees. class_sizes are derived from column orthogonality when not
    supplied.
    """

    order: int
    rows: np.ndarray = field(repr=False)
    class_sizes: tuple

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=complex)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise FusionRingError("character table must be square")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "class_sizes", tuple(int(s) for s in self.class_sizes))

    @classmethod
    def from_rows(cls, order: int, rows, class_sizes=None, tol: float = 1e-6) -> "CharacterTable":
        rows = np.asarray(rows, dtype=complex)
        r = rows.shape[0]
        if class_sizes is None:
            sizes = []
            for x in range(r):
                norm = float(np.sum(np.abs(rows[:, x]) ** 2))
                size = snap_int(order / norm, tol)
                if size is None or size < 1:
                    raise NonIntegralMultiplicity(
                        f"column {x}: |G|/sum|chi(x)|^2 = {order / norm} is not a positive integer")
                sizes.append(size)
            class_sizes = sizes
        table = cls(order, rows, class_sizes)
        table.validate(tol)
        return table

    @property
    def num_classes(self) -> int:
        return self.rows.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.rows[:, 0].real

    def validate(self, tol: float = 1e-6) -> None:
        r = self.num_classes
        degs = self.rows[:, 0]
        if np.abs(degs.imag).max() > tol or any(
                snap_int(d, tol) is None or snap_int(d, tol) < 1 for d in degs.real):
            raise FusionRingError("column 0 must hold positive integer degrees")
        if sum(int(round(d)) for d in degs.real ** 2) != self.order:
            raise FusionRingError("sum of squared degrees must equal the group order")
        if sum(self.class_sizes) != self.order:
            raise FusionRingError("class sizes must sum to the group order")
        # column orthogonality
        gram = self.rows.conj().T @ self.rows
        expected = np.diag([self.order / s for s in self.class_sizes])
        if not np.allclose(gram, expected, atol=tol * self.order):
            raise FusionRingError("column orthogonality fails")


def character_table_to_fusion_ring(table: CharacterTable, tol: float = 1e-9) -> FusionRing:
    """Character ring of the group: basis = irreducible characters,
    c_{ij}^k = multiplicity of chi_k in chi_i * chi_j (pointwise product),
    computed by column-weighted inner products. Duality is complex conjugation
    of rows."""
    rows = table.rows
    w = np.array(table.class_sizes, dtype=float) / table.order
    vals = np.einsum("x,ix,jx,kx->ijk", w, rows, rows, rows.conj())
    tensor = np.rint(vals.real)
    ok = (np.abs(vals.imag) <= tol) & (np.abs(vals.real - tensor) <= tol) & (tensor >= 0)
    if not ok.all():
        i, j, k = np.argwhere(~ok)[0]
        val = vals[i, j, k]
        if abs(val.imag) > tol:
            raise NonIntegralMultiplicity(
                f"<chi_{i} chi_{j}, chi_{k}> = {val} is not real")
        raise NonIntegralMultiplicity(
            f"<chi_{i} chi_{j}, chi_{k}> = {val.real} is not a nonnegative integer")
    # match[i, k]: row k is the complex conjugate of row i
    match = np.isclose(rows[None], rows.conj()[:, None], atol=1e-8).all(axis=2)
    bad = np.flatnonzero(match.sum(axis=1) != 1)
    if bad.size:
        i = bad[0]
        raise FusionRingError(
            f"conjugate of row {i} matches rows {np.flatnonzero(match[i]).tolist()}")
    dual = match.argmax(axis=1)
    labels = [f"chi{i}[{int(round(d))}]" for i, d in enumerate(table.degrees)]
    return FusionRing.validated(labels, tensor.astype(np.int64), dual)


# ---------------------------------------------------------------------------
# JSON I/O


def ring_to_json(ring: FusionRing) -> dict:
    return {
        "labels": list(ring.labels),
        "tensor": ring.tensor.tolist(),
        "dual": list(ring.dual),
    }


def ring_from_json(data, validate: bool = True) -> FusionRing:
    """Read a ring from its JSON object (or a string holding it).

    Raises MalformedInput unless data is an object whose 'tensor' is a
    nonempty n x n x n array of finite numbers inside the int64 range,
    with 'labels' a list and 'dual' a list of integers when given.
    Negative or non-integer numbers pass here; the ring checks report them.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"ring JSON does not parse: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedInput("ring JSON must be an object")
    labels = data.get("labels")
    dual = data.get("dual")
    for key, value in (("labels", labels), ("dual", dual)):
        if value is not None and not isinstance(value, list):
            raise MalformedInput(f"'{key}' must be a list")
    if not all(type(d) is int for d in dual or []):
        raise MalformedInput("'dual' must be a list of integers")
    try:
        tensor = np.asarray(data.get("tensor"))
    except ValueError:  # ragged nesting
        tensor = np.asarray(None)
    if (tensor.ndim != 3 or len(set(tensor.shape)) != 1 or tensor.size == 0
            or tensor.dtype.kind not in "iufO"):
        raise MalformedInput("'tensor' must be a nonempty n x n x n array of numbers")
    if tensor.dtype == object or not (-2 ** 63 <= tensor.min() and tensor.max() < 2 ** 63):
        raise MalformedInput("'tensor' entries must be finite numbers inside the int64 range")
    n = tensor.shape[0]
    if labels is None:
        labels = [f"X{i}" for i in range(n)]
    if dual is None:
        # recover duality from the pairing column
        arr = _as_tensor(tensor)
        dual = []
        for i in range(n):
            hits = [j for j in range(n) if arr[i, j, 0] == 1]
            if len(hits) != 1:
                raise AxiomViolation([("dual-pairing", (i,),
                                       f"row {i} pairs with {hits}")])
            dual.append(hits[0])
    if validate:
        return FusionRing.validated(labels, tensor, dual)
    return FusionRing(labels, tensor, dual)


def table_from_json(data, tol: float = 1e-6) -> CharacterTable:
    if isinstance(data, str):
        data = json.loads(data)
    rows = [[parse_scalar(e) for e in row] for row in data["rows"]]
    return CharacterTable.from_rows(int(data["order"]), rows,
                                    data.get("classSizes"), tol)


def table_to_json(table: CharacterTable) -> dict:
    return {
        "order": table.order,
        "classSizes": list(table.class_sizes),
        "rows": [[_scalar_to_json(z) for z in row] for row in table.rows],
    }
