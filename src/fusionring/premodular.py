"""Braided-side arithmetic: Verlinde fusion, Gauss sums, balancing,
centralizer profiles, quadratic forms on finite abelian groups, and the
constraint table for braided near-integral categories. A ModularDatum is
checked once, when it is built; the Verlinde ring is snapped as the
character ring is, by core._snap_multiplicities."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .core import (FusionRing, FusionRingError, MalformedInput, _derived, _factors,
                   _Group, _json_object, _pairing_dual, _place_values, _scalar_matrix,
                   _snap_multiplicities)
from .exact import RootOfUnity, _agrees, _is_int, _is_number, _scalar_to_json, _snaps

__all__ = [
    "GroupTooLarge",
    "ModularDatum",
    "QuadraticForm",
    "verlinde_fusion",
    "gauss_sums",
    "balancing_check",
    "centralizer_profile",
    "quadratic_forms",
    "form_classes",
    "form_nondegenerate",
    "braided_cases",
    "modular_datum_from_json",
    "modular_datum_to_json",
    "form_from_json",
    "form_to_json",
]


class GroupTooLarge(MalformedInput):
    """Raised when a group has more quadratic form values than the bound."""


@dataclass(frozen=True)
class ModularDatum:
    """Unnormalized S-matrix (S[0][0] = 1, row 0 = dims) and exact twists, checked
    once, when built: entries finite, |S| < 2^63, S[0][0], row 0 real, symmetry
    (exact._agrees). S is the conjugate of Bakalov-Kirillov's (3.1): s = S/sqrt(D)
    has s^2 = C and (s T^-1)^3 = (tau-/sqrt(D)) s^2; balancing_check sums N_ij^k."""

    s: np.ndarray = field(repr=False)
    t: tuple

    def __post_init__(self):
        s = np.asarray(self.s, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or not s.size:
            raise FusionRingError("S must be square")
        if not np.isfinite(s).all():
            raise FusionRingError("S holds a value that is not finite")
        if not (np.abs(s) < 2 ** 63).all():  # the bound modular_datum_from_json reads
            raise FusionRingError("S entries must have modulus below 2^63")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", tuple(self.t))
        if len(self.t) != s.shape[0]:
            raise FusionRingError("T length must match S")
        if not all(isinstance(r, RootOfUnity) for r in self.t):
            raise FusionRingError("twists must be RootOfUnity values")
        if not _agrees(s[0, 0], 1)[0]:
            raise FusionRingError("S[0][0] must be 1 (unnormalized convention)")
        if not _agrees(s[0].imag)[0].all() or (self.dims <= 0).any():
            raise FusionRingError("row 0 of S must be positive dims")
        symmetric, asym = _agrees(s, s.T, max(1.0, float(np.abs(s).max())))
        if not symmetric.all():
            raise FusionRingError(f"S is not symmetric (max defect {asym.max()})")

    @property
    def rank(self) -> int:
        return self.s.shape[0]

    @property
    def dims(self) -> np.ndarray:
        return self.s[0].real

    @property
    def global_dim(self) -> float:
        return float(np.sum(self.dims ** 2))

    def twist_values(self) -> np.ndarray:
        return np.array([r.value() for r in self.t])


@_derived
def verlinde_fusion(m: ModularDatum):
    """Fusion ring from an S-matrix by the Verlinde formula, snapped by
    exact._snaps (core._snap_multiplicities), built once per datum: (ring,
    diagnostics), the diagnostics read-only. Duality, charge conjugation, is
    read from the snapped pairing column N_ij^0 (core._pairing_dual); S row
    i must then be the conjugate of S row i*.
    """
    n = m.rank
    d = m.global_dim
    s = m.s / math.sqrt(d)
    with np.errstate(all="ignore"):  # a tiny s[0] gives inf: the snap reports it
        tensor = np.einsum("it,jt,kt,t->ijk", s, s, s.conj(), 1.0 / s[0])
    out, max_err = _snap_multiplicities(tensor, _snaps)
    dual = _pairing_dual(out)
    bad = ~_snaps(m.s, m.s[dual].conj())[0].all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise FusionRingError(f"S row {i} is not the conjugate of S row {dual[i]}")
    ring = FusionRing([f"X{i}" for i in range(n)], out, dual)
    diagnostics = MappingProxyType({
        "globalDim": d,
        "dims": tuple(float(x) for x in m.dims),
        "maxSnapError": max_err,
    })
    return ring, diagnostics


def gauss_sums(dims, twists):
    """tau+- = sum_i dims[i]^2 theta_i^{+-1}, for complex twists theta
    (ModularDatum.twist_values())."""
    dims = np.asarray(dims, dtype=float)
    theta = np.asarray(twists, dtype=complex)
    if dims.shape[0] != theta.shape[0]:
        raise FusionRingError("dims and twists must have equal length")
    tau_plus = complex(np.sum(dims ** 2 * theta))
    tau_minus = complex(np.sum(dims ** 2 / theta))
    return tau_plus, tau_minus


def balancing_check(ring: FusionRing, m: ModularDatum) -> list:
    """All (i, j, error) where S[i][j] != theta_i^-1 theta_j^-1 sum_k c_{ij}^k
    d_k theta_k by exact._snaps at scale max(1, max|S|); a nan cell is one."""
    if m.rank != ring.rank:
        raise FusionRingError("ring rank must match the datum")
    theta = m.twist_values()
    rhs = np.einsum("ijk,k->ij", ring.tensor.astype(float), m.dims * theta)
    rhs = rhs / theta[:, None] / theta[None, :]
    ok, err = _snaps(m.s, rhs, max(1.0, float(np.abs(m.s).max())))
    return [(int(i), int(j), float(err[i, j])) for i, j in np.argwhere(~ok)]


def centralizer_profile(m: ModularDatum):
    """Boolean matrix of S[i][j] = d_i d_j (exact._snaps, scale max(1, d_i d_j)),
    plus the rows that centralize everything (symmetric-center candidates)."""
    target = np.outer(m.dims, m.dims)
    mask, _ = _snaps(m.s, target, np.maximum(1.0, target))
    candidates = tuple(int(i) for i in range(m.rank) if mask[i].all())
    return mask, candidates


# ---------------------------------------------------------------------------
# Quadratic forms on finite abelian groups
#
# G = C_{n_1} x ... x C_{n_k}; its elements are numbered in itertools.product
# order. A form is its int table q over that numbering, read mod M: the entry
# x stands for the root of unity exp(2 pi i x / M). Every form operation,
# key(), == and JSON included, reads only the factors, the table and M.

# Largest number of forms times |G| enumerated, i.e. of int64 entries in the
# form table: 8 MB at the bound (C2^4, at 2^18 entries, takes 2 MB, plus about
# 0.2 kB per form for its QuadraticForm, whose q is a view of its table row).
# C2^5, at 2^25 entries, is refused: its table alone would take 256 MB, and
# its 2^20 forms about 0.2 GB more.
_MAX_FORM_VALUES = 1 << 20


def _bicharacter(grp: _Group, q: np.ndarray, m: int) -> np.ndarray:
    """b[g, h] = q[g + h] - q[g] - q[h] mod m."""
    return (q[grp.add] - q[:, None] - q[None, :]) % m


def _check_form(grp: _Group, q: np.ndarray, m: int) -> None:
    """Raise FusionRingError unless q(0) = 0, q(-g) = q(g) for all g, and
    b(g + g', h) = b(g, h) + b(g', h) for every generator g and all g', h.
    By induction on word length that gives every g, since b(0, h) = -q(0)
    = 0. The first failure in element order is reported."""
    if q[0] != 0:
        raise FusionRingError("q(0) must be 1")
    bad = np.flatnonzero(q != q[grp.neg])
    if bad.size:
        g = grp.elements[bad[0]]
        raise FusionRingError(f"q({g}) != q(-{g})")
    b = _bicharacter(grp, q, m)
    for f in grp.gens:
        lhs, rhs = b[grp.add[f]], (b[f] + b) % m
        if not np.array_equal(lhs, rhs):  # no index arrays when the slab holds
            g, gp, h = (grp.elements[i] for i in (f, *np.argwhere(lhs != rhs)[0]))
            raise FusionRingError(f"b is not additive at {g}, {gp}, {h}")


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """q : G -> roots of unity, G a product of cyclic groups given by factor
    orders, held as its table: q(g) = exp(2 pi i q[g] / m), with q an int64
    array over the elements of G in itertools.product order, reduced mod m
    and read-only. It is a quadratic form if q(g) = q(-g) and its associated
    bicharacter is bilinear; `verify` checks that, the constructor only the
    table's integer dtype, its length and 0 < m < 2^62. quadratic_forms and
    form_classes skip the constructor (_table_forms): their rows hold these
    by construction. `==` compares factors and key().
    """

    factors: tuple
    q: np.ndarray = field(repr=False)
    m: int

    def __post_init__(self):
        factors = _factors(self.factors)
        if not (_is_int(self.m) and 0 < self.m < 1 << 62):  # b and its check add up to 2m
            raise FusionRingError(f"form modulus must be an integer in (0, 2^62), got {self.m!r}")
        m = operator.index(self.m)
        q = np.asarray(self.q)
        if q.dtype.kind not in "iu":  # a float table would be truncated
            raise FusionRingError(f"form values must be integers, got dtype {q.dtype}")
        q = np.remainder(q, m, dtype=np.int64)
        if q.shape != (math.prod(factors),):
            raise FusionRingError(f"a form on |G| = {math.prod(factors)} elements needs as "
                                  f"many values, got shape {q.shape}")
        q.setflags(write=False)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)

    def key(self) -> bytes:
        """The table and modulus divided by g = gcd(m, q...), as int64 bytes:
        the values over their least common denominator, so k q over k m
        has the same key."""
        g = math.gcd(self.m, *self.q.tolist())
        return np.append(self.q // g, self.m // g).tobytes()

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return self.factors == other.factors and self.key() == other.key()

    def verify(self) -> None:
        """Check q(0) = 1, q(g) = q(-g) and b(g+g', h) = b(g,h) b(g',h) for
        the factor generators g and all g', h, which gives it for all g;
        raise FusionRingError at the first failure."""
        _check_form(_Group(self.factors), self.q, self.m)


def form_nondegenerate(form: QuadraticForm) -> bool:
    """True iff g -> b(g, .) is injective, i.e. the rows of b are distinct."""
    b = _bicharacter(_Group(form.factors), form.q, form.m)
    return len({row.tobytes() for row in b}) == len(b)


def _form_orders(factors: tuple) -> list:
    """The orders of the coefficients a_i, then c_ij (i < j), of the forms of
    _form_table; GroupTooLarge if the forms times |G| exceed _MAX_FORM_VALUES."""
    orders = ([n if n % 2 else 2 * n for n in factors]
              + [math.gcd(a, b) for a, b in itertools.combinations(factors, 2)])
    count, order = math.prod(orders), math.prod(factors)
    if count * order > _MAX_FORM_VALUES:
        raise GroupTooLarge(f"{count} quadratic forms on |G| = {order} exceed the bound "
                            f"of {_MAX_FORM_VALUES} form values")
    return orders


def _form_table(factors: tuple):
    """(M, orders, Q): every quadratic form on G as one row of the int
    matrix Q mod M = 2 exp(G), in quadratic_forms order, and the order of
    each coefficient (_form_orders, which bounds their number).

    q(g) = sum_i a_i g_i^2 + sum_{i<j} c_ij g_i g_j, where a_i counts steps
    of 1/n_i (n_i odd) or 1/(2 n_i) (n_i even) and c_ij steps of
    1/gcd(n_i, n_j). Rows are not checked: these steps make q invariant
    under g_i -> g_i + n_i, q is even, and b is bilinear."""
    k = len(factors)
    pairs = list(itertools.combinations(range(k), 2))
    orders = _form_orders(factors)
    m = 2 * math.lcm(*factors)
    x = _Group(factors).coords
    monomials = [x[:, i] * x[:, i] for i in range(k)] + [x[:, i] * x[:, j] for i, j in pairs]
    basis = np.array([(m // d) * mono for d, mono in zip(orders, monomials)],
                     dtype=np.int64).reshape(len(orders), len(x))
    coeffs = np.array(list(itertools.product(*[range(d) for d in orders])), dtype=np.int64)
    return m, orders, (coeffs @ basis) % m


def _table_forms(factors: tuple, table: np.ndarray, m: int) -> list:
    """One QuadraticForm per row of a _form_table table, not checked: each
    row is already int64, reduced mod m and of length |G|, factors came from
    _factors, and m = 2 exp(G) < 2^62 since _form_orders bounds |G|. The
    table is made read-only, and each form's q is a view of its row."""
    table.setflags(write=False)
    new, put = object.__new__, object.__setattr__
    forms = []
    for q in table:
        form = new(QuadraticForm)
        put(form, "factors", factors)
        put(form, "q", q)
        put(form, "m", m)
        forms.append(form)
    return forms


def quadratic_forms(factors) -> list:
    """All quadratic forms on the abelian group with the given cyclic factor
    orders.

    On a generator of a factor of order n, q can take any n-th root value if
    n is odd and any 2n-th root value if n is even; cross terms are
    bicharacter values of order dividing the gcd of the two factor orders.
    The forms come in that order: diagonal choices outermost, the last
    cross term fastest; each is a form by construction (see _form_table,
    which also bounds their number).
    """
    factors = _factors(factors)
    m, _, table = _form_table(factors)
    return _table_forms(factors, table, m)


def form_classes(factors) -> list:
    """Orbit representatives of quadratic_forms(factors) under group
    automorphisms, each the first of its orbit in enumeration order.
    Raises GroupTooLarge above the bound of quadratic_forms, before any
    form is enumerated. Each generator phi of Aut(G) (_Group.aut_gens)
    moves each table row q to the row of q o phi, read back from its values
    at e_i and e_i + e_j. Each row's label, at first its own number, falls
    to the least label of its images and then to its label's label until
    none moves: the rows left with their own number head their orbits."""
    factors = _factors(factors)
    m, orders, table = _form_table(factors)
    grp, k = _Group(factors), len(factors)
    first, second = np.array(list(itertools.combinations(range(k), 2)),
                             dtype=np.int64).reshape(-1, 2).T
    points = np.concatenate([grp.gens, grp.add[grp.gens[first], grp.gens[second]]])
    steps = m // np.array(orders, dtype=np.int64)
    radix = _place_values(orders)
    moves = []
    for perm in grp.aut_gens:
        v = table[:, perm[points]]  # q o phi at e_i, then at e_i + e_j
        v[:, k:] -= v[:, first] + v[:, second]
        moves.append((v % m // steps) @ radix)
    label = np.arange(len(table))
    while True:  # each move permutes the rows, so forward steps reach a whole orbit
        low = label
        for move in moves:
            low = np.minimum(low, low[move])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    return _table_forms(factors, table[label == np.arange(len(label))], m)


def braided_cases(big_n: int) -> list:
    """Constraint table for a braided categorification containing a
    near-integral ring with FPdim(S) = N: list of
    (kappa, dim, twist constraint, tag). Besides kappa = 0, case-2 holds
    iff N = 2 kappa^2 and case-3 iff 4N = 3 kappa^2; no N has both, since
    8/3 is not the square of a rational."""
    if not _is_int(big_n):
        raise ValueError(f"N must be an integer, got {big_n!r}")
    big_n = operator.index(big_n)
    if big_n < 1:
        raise ValueError("N must be positive")
    out = [(0, 2 * big_n, "theta_rho in {zeta(4,1), zeta(4,3)} or theta_rho**16 = 1",
            "kappa-zero")]
    kappa = math.isqrt(big_n // 2)
    if 2 * kappa * kappa == big_n:
        out.append((kappa, 6 * kappa * kappa, "theta_rho in {zeta(3,1), zeta(3,2)}",
                    "case-2"))
    kappa = math.isqrt(4 * big_n // 3)
    if 3 * kappa * kappa == 4 * big_n:
        out.append((kappa, 3 * kappa * kappa, "theta_rho = -1", "case-3"))
    return out


# ---------------------------------------------------------------------------
# JSON I/O


def modular_datum_from_json(data) -> ModularDatum:
    """Read a modular datum from its JSON object (or a string holding it).

    Raises MalformedInput unless data is an object with 'S' a square matrix
    of scalars (see core._scalar_matrix), 'T' one [num, den] integer pair
    with den > 0 per row of S and, when given, 'dims' one number (not a bool)
    of size below 2^63 per row of S. A datum that reads is checked as it
    is built, before its dims are compared (exact._snaps).
    """
    data = _json_object(data, "modular-datum")
    s = _scalar_matrix(data, "S")
    t, dims = data.get("T"), data.get("dims")
    if not (isinstance(t, list) and len(t) == len(s) and all(
            isinstance(x, list) and len(x) == 2 and all(map(_is_int, x)) and x[1] > 0
            for x in t)):
        raise MalformedInput("'T' must list one [num, den] integer pair, den > 0, per row of S")
    if dims is not None and not (isinstance(dims, list) and len(dims) == len(s) and all(
            _is_number(x) and abs(x) < 2 ** 63 for x in dims)):
        raise MalformedInput("'dims' must list one number below 2^63 per row of S")
    m = ModularDatum(s, tuple(RootOfUnity(num, den) for num, den in t))
    if dims is not None and not _snaps(dims, m.dims)[0].all():
        raise FusionRingError("explicit dims disagree with row 0 of S")
    return m


def modular_datum_to_json(m: ModularDatum) -> dict:
    return {
        "S": [[_scalar_to_json(z) for z in row] for row in m.s],
        "T": [[r.num, r.den] for r in m.t],
        "dims": [float(x) for x in m.dims],
    }


@functools.lru_cache(maxsize=16)
def _element_index(factors: tuple) -> MappingProxyType:
    """Read-only map, in element order, from each element's JSON key (its
    comma-joined coordinates) to its number; O(|G|), no _Group tables."""
    return MappingProxyType({",".join(map(str, g)): i for i, g in
                             enumerate(itertools.product(*map(range, factors)))})


def form_from_json(data) -> QuadraticForm:
    """Inverse of form_to_json. Raises MalformedInput unless data is an
    object (or a string holding one) with 'factors' a list of positive
    integers and 'values' an object that keys each element of G, by its
    comma-joined coordinates as form_to_json writes them, to an integer
    pair [num, den] with den > 0, and M = lcm(2 exp(G), every den) lies
    below 2^62. Then raises FusionRingError unless the values are a
    quadratic form. M = 2 exp(G) for every quadratic form, since q(g) has
    order dividing 2 ord(g); a value of larger order widens M, so that
    verify sees the value exactly and rejects it."""
    data = _json_object(data, "quadratic-form")
    factors, values = data.get("factors"), data.get("values")
    if not (isinstance(factors, list) and all(_is_int(f) and f > 0 for f in factors)
            and isinstance(values, dict)):
        raise MalformedInput('a quadratic form is {"factors": [positive integers], '
                             '"values": {...}}')
    group, order = " x ".join(f"C{f}" for f in factors) or "C1", math.prod(factors)
    if len(values) != order:  # before any table of |G| entries is built
        raise MalformedInput(f"a form on {group} has {order} values, one per element, "
                             f"not {len(values)}")
    index = _element_index(tuple(factors))
    for key, val in values.items():
        if key not in index:
            raise MalformedInput(f"value key {key!r} is not an element of {group}")
        if not (isinstance(val, list) and len(val) == 2 and all(map(_is_int, val))
                and val[1] > 0):
            raise MalformedInput(f"value of {key!r} must be [num, den] with den > 0: {val!r}")
    m = math.lcm(2 * math.lcm(*factors), *(den for _, den in values.values()))
    if m >= 1 << 62:
        raise MalformedInput("form value orders exceed the int64 range")
    q = [0] * order
    for key, (num, den) in values.items():
        q[index[key]] = num % den * (m // den)
    form = QuadraticForm(tuple(factors), q, m)
    form.verify()
    return form


def form_to_json(form: QuadraticForm) -> dict:
    """Each value x / m in lowest terms, [x // g, m // g] with g = gcd(x, m)."""
    g = np.gcd(form.q, form.m)
    nums, dens = (form.q // g).tolist(), (form.m // g).tolist()
    return {
        "factors": list(form.factors),
        "values": {key: [x, d] for key, x, d in zip(_element_index(form.factors), nums, dens)},
    }
