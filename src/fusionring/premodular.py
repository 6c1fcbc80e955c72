"""Braided-side arithmetic: Verlinde fusion, Gauss sums, balancing,
centralizer profiles, quadratic forms on finite abelian groups, and the
constraint table for braided near-integral categories."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import FusionRing, FusionRingError
from .exact import RootOfUnity, _scalar_to_json, parse_scalar

__all__ = [
    "NonIntegralFusion",
    "NegativeFusion",
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

DEFAULT_TOL = 1e-9


class NonIntegralFusion(FusionRingError):
    pass


class NegativeFusion(FusionRingError):
    pass


class GroupTooLarge(FusionRingError):
    pass


@dataclass(frozen=True)
class ModularDatum:
    """Unnormalized S-matrix (S[0][0] = 1, row 0 = dims) and exact twists."""

    s: np.ndarray = field(repr=False)
    t: tuple

    def __post_init__(self):
        s = np.asarray(self.s, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise FusionRingError("S must be square")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", tuple(self.t))
        if len(self.t) != s.shape[0]:
            raise FusionRingError("T length must match S")
        if not all(isinstance(r, RootOfUnity) for r in self.t):
            raise FusionRingError("twists must be RootOfUnity values")

    @property
    def rank(self) -> int:
        return self.s.shape[0]

    @property
    def dims(self) -> np.ndarray:
        return self.s[0].real

    @property
    def global_dim(self) -> float:
        return float(np.sum(self.dims ** 2))

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        if abs(self.s[0, 0] - 1) > tol:
            raise FusionRingError("S[0][0] must be 1 (unnormalized convention)")
        if np.abs(self.s[0].imag).max() > tol or (self.dims <= 0).any():
            raise FusionRingError("row 0 of S must be positive dims")
        asym = np.abs(self.s - self.s.T).max()
        if asym > tol * max(1.0, float(np.abs(self.s).max())):
            raise FusionRingError(f"S is not symmetric (max defect {asym})")

    def twist_values(self) -> np.ndarray:
        return np.array([r.value() for r in self.t])


def verlinde_fusion(m: ModularDatum, tol: float = DEFAULT_TOL, snap: float = 1e-6):
    """Fusion ring from an S-matrix by the Verlinde formula.

    Returns (ring, diagnostics). Duality comes from charge conjugation
    (normalized S squared), snapped to a permutation.
    """
    m.validate(tol)
    n = m.rank
    d = m.global_dim
    s = m.s / math.sqrt(d)
    tensor = np.einsum("it,jt,kt,t->ijk", s, s, s.conj(), 1.0 / s[0])
    out = np.rint(tensor.real)
    # np.hypot rounds exactly as abs() of one complex scalar; np.abs on a
    # complex array may differ in the last bit, which maxSnapError would show
    err = np.hypot(tensor.real - out, tensor.imag)
    ok = (err <= snap) & (out >= 0)
    if not ok.all():
        i, j, k = np.argwhere(~ok)[0]
        if not err[i, j, k] <= snap:
            raise NonIntegralFusion(f"N[{i}][{j}][{k}] = {tensor[i, j, k]} is not an "
                                    f"integer (defect {err[i, j, k]})")
        raise NegativeFusion(f"N[{i}][{j}][{k}] = {int(out[i, j, k])} is negative")
    c = (s @ s).real
    hits = np.abs(c - 1) < 1e-6
    dual = hits.argmax(axis=1)
    bad = (hits.sum(axis=1) != 1) | ~(np.abs(m.s - m.s[dual].conj()) <= 1e-6).all(axis=1)
    if bad.any():
        raise FusionRingError(
            f"charge conjugation row {np.argmax(bad)} does not snap to a permutation")
    labels = [f"X{i}" for i in range(n)]
    ring = FusionRing.validated(labels, out.astype(np.int64), dual)
    diagnostics = {
        "globalDim": d,
        "dims": [float(x) for x in m.dims],
        "maxSnapError": float(err.max()),
    }
    return ring, diagnostics


def gauss_sums(dims, twists):
    """tau+- = sum_i dims[i]^2 theta_i^{+-1}."""
    dims = np.asarray(dims, dtype=float)
    theta = np.array([r.value() if isinstance(r, RootOfUnity) else complex(r)
                      for r in twists])
    if dims.shape[0] != theta.shape[0]:
        raise FusionRingError("dims and twists must have equal length")
    tau_plus = complex(np.sum(dims ** 2 * theta))
    tau_minus = complex(np.sum(dims ** 2 / theta))
    return tau_plus, tau_minus


def balancing_check(ring: FusionRing, m: ModularDatum, tol: float = 1e-6) -> list:
    """All (i, j) where S[i][j] != theta_i^-1 theta_j^-1 sum_k c_{ij}^k d_k theta_k."""
    n = ring.rank
    if m.rank != n:
        raise FusionRingError("ring rank must match the datum")
    d = m.dims
    theta = m.twist_values()
    rhs = np.einsum("ijk,k->ij", ring.tensor.astype(float), d * theta)
    rhs = rhs / theta[:, None] / theta[None, :]
    scale = max(1.0, float(np.abs(m.s).max()))
    diff = m.s - rhs
    err = np.hypot(diff.real, diff.imag)  # as abs() of each complex scalar
    return [(int(i), int(j), float(err[i, j])) for i, j in np.argwhere(err > tol * scale)]


def centralizer_profile(m: ModularDatum, tol: float = 1e-6):
    """Boolean matrix of |S[i][j] - d_i d_j| < tol (scaled), plus the rows
    that centralize everything (symmetric-center candidates)."""
    d = m.dims
    target = np.outer(d, d)
    mask = np.abs(m.s - target) < tol * np.maximum(1.0, target)
    candidates = tuple(int(i) for i in range(m.rank) if mask[i].all())
    return mask, candidates


# ---------------------------------------------------------------------------
# Quadratic forms on finite abelian groups
#
# G = C_{n_1} x ... x C_{n_k}; its elements are numbered in itertools.product
# order. A form is an int array q over that numbering, read mod M: the entry
# x stands for the root of unity exp(2 pi i x / M). RootOfUnity appears only
# at the boundary (QuadraticForm.values, q, b and JSON I/O).

# Largest number of (g, g', h) triples the additivity check compares at once.
_SLAB = 1 << 16


def _factors(factors) -> tuple:
    out = tuple(int(f) for f in factors)
    if any(f < 1 for f in out):
        raise FusionRingError(f"cyclic factor orders must be positive: {list(out)}")
    return out


class _Group:
    """Index tables of G: add[i, j] and neg[i] are element numbers, gens
    holds the number of each factor's generator."""

    def __init__(self, factors: tuple):
        self.elements = list(itertools.product(*[range(f) for f in factors]))
        n, k = len(self.elements), len(factors)
        self.coords = np.array(self.elements, dtype=np.int64).reshape(n, k)
        self.mods = np.array(factors, dtype=np.int64)
        self.strides = np.array([math.prod(factors[i + 1:]) for i in range(k)],
                                dtype=np.int64)
        self.add = self.number(self.coords[:, None, :] + self.coords[None, :, :])
        self.neg = self.number(-self.coords)
        self.gens = self.number(np.eye(k, dtype=np.int64))

    def number(self, coords: np.ndarray) -> np.ndarray:
        """Element numbers of coordinate vectors (last axis), reduced mod G."""
        return (coords % self.mods) @ self.strides


def _bicharacter(grp: _Group, q: np.ndarray, m: int) -> np.ndarray:
    """b[g, h] = q[g + h] - q[g] - q[h] mod m."""
    return (q[grp.add] - q[:, None] - q[None, :]) % m


def _check_form(grp: _Group, q: np.ndarray, m: int, exhaustive: bool) -> None:
    """Raise FusionRingError unless q(0) = 0, q(-g) = q(g) for all g, and
    b(g + g', h) = b(g, h) + b(g', h) for all g', h and every g in G
    (exhaustive) or every generator g. The first failure in element order
    is reported."""
    if q[0] != 0:
        raise FusionRingError("q(0) must be 1")
    bad = np.flatnonzero(q != q[grp.neg])
    if bad.size:
        g = grp.elements[bad[0]]
        raise FusionRingError(f"q({g}) != q(-{g})")
    b = _bicharacter(grp, q, m)
    firsts = np.arange(len(q)) if exhaustive else grp.gens
    rows = max(1, _SLAB // b.size)
    for start in range(0, len(firsts), rows):
        f = firsts[start:start + rows]
        bad = np.argwhere(b[grp.add[f]] != (b[f][:, None, :] + b[None]) % m)
        if bad.size:
            g, gp, h = (grp.elements[i] for i in (f[bad[0, 0]], bad[0, 1], bad[0, 2]))
            raise FusionRingError(f"b is not additive at {g}, {gp}, {h}")


@dataclass(frozen=True)
class QuadraticForm:
    """q : G -> roots of unity with q(g) = q(-g) and bilinear associated
    bicharacter. G is a product of cyclic groups given by factor orders;
    elements are tuples, and `values` maps every element to a RootOfUnity.

    The form is held as an int array mod M in itertools.product element
    order. M = 2 exp(G) for every quadratic form, since q(g) has order
    dividing 2 ord(g); a value of larger order widens M, so that verify
    sees the value exactly and rejects it.
    """

    factors: tuple
    values: dict = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", _factors(self.factors))
        values = dict(self.values)
        elements = list(self.elements())
        known = set(elements)
        extra = [g for g in values if g not in known]
        if extra:
            raise FusionRingError(f"form value at {extra[0]!r}, which is not an element of G")
        if len(values) != len(elements):
            missing = next(g for g in elements if g not in values)
            raise FusionRingError(f"form has no value at {missing}")
        if not all(isinstance(r, RootOfUnity) for r in values.values()):
            raise FusionRingError("form values must be RootOfUnity values")
        m = math.lcm(2 * math.lcm(*self.factors), *(r.den for r in values.values()))
        if m >= 1 << 62:  # b and the additivity check add up to 2m in int64
            raise FusionRingError("form value orders exceed the int64 range")
        q = np.array([values[g].num * (m // values[g].den) for g in elements],
                     dtype=np.int64)
        q.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_m", m)

    def elements(self):
        return itertools.product(*[range(f) for f in self.factors])

    def neg(self, g):
        return tuple((-x) % f for x, f in zip(g, self.factors))

    def add(self, g, h):
        return tuple((x + y) % f for x, y, f in zip(g, h, self.factors))

    def _at(self, g) -> int:
        i = 0
        for x, f in zip(g, self.factors):
            i = i * f + x % f
        return int(self._q[i])

    def q(self, g) -> RootOfUnity:
        return self.values[tuple(x % f for x, f in zip(g, self.factors))]

    def b(self, g, h) -> RootOfUnity:
        """Associated bicharacter b(g,h) = q(g+h) q(g)^-1 q(h)^-1."""
        return RootOfUnity(self._at(self.add(g, h)) - self._at(g) - self._at(h), self._m)

    def verify(self, exhaustive: bool = True) -> None:
        """Check q(0) = 1, q(g) = q(-g) and b(g+g', h) = b(g,h) b(g',h) for all
        g', h and all g (exhaustive) or the factor generators g; raise
        FusionRingError at the first failure."""
        _check_form(_Group(self.factors), self._q, self._m, exhaustive)

    def key(self):
        return tuple(self.values[g] for g in self.elements())


def form_nondegenerate(form: QuadraticForm) -> bool:
    """True iff g -> b(g, .) is injective, i.e. the rows of b are distinct."""
    b = _bicharacter(_Group(form.factors), form._q, form._m)
    return len({row.tobytes() for row in b}) == len(b)


def _form_table(factors: tuple):
    """(group, M, Q): every quadratic form on G as one row of the int
    matrix Q mod M = 2 exp(G), in quadratic_forms order, each verified."""
    grp = _Group(factors)
    m = 2 * math.lcm(*factors)
    k, x = len(factors), grp.coords
    pairs = list(itertools.combinations(range(k), 2))
    # q(g) = sum_i a_i g_i^2 + sum_{i<j} c_ij g_i g_j, where a_i counts
    # steps of 1/n_i (n_i odd) or 1/(2 n_i) (n_i even) and c_ij steps of
    # 1/gcd(n_i, n_j).
    orders = ([n if n % 2 else 2 * n for n in factors]
              + [math.gcd(factors[i], factors[j]) for i, j in pairs])
    monomials = [x[:, i] * x[:, i] for i in range(k)] + [x[:, i] * x[:, j] for i, j in pairs]
    basis = np.array([(m // d) * mono for d, mono in zip(orders, monomials)],
                     dtype=np.int64).reshape(len(orders), len(x))
    coeffs = np.array(list(itertools.product(*[range(d) for d in orders])), dtype=np.int64)
    table = (coeffs @ basis) % m
    for q in table:
        _check_form(grp, q, m, exhaustive=len(q) <= 12)
    return grp, m, table


def _form(factors: tuple, grp: _Group, m: int, q: np.ndarray) -> QuadraticForm:
    return QuadraticForm(factors, {g: RootOfUnity(x, m)
                                   for g, x in zip(grp.elements, q.tolist())})


def quadratic_forms(factors) -> list:
    """All quadratic forms on the abelian group with the given cyclic factor
    orders.

    On a generator of a factor of order n, q can take any n-th root value if
    n is odd and any 2n-th root value if n is even; cross terms are
    bicharacter values of order dividing the gcd of the two factor orders.
    The forms come in that order: diagonal choices outermost, the last
    cross term fastest. Every candidate is verified globally as an int
    array mod 2 exp(G) (see QuadraticForm.verify): over all triples
    (g, g', h) when |G| <= 12, and over generators g x G x G otherwise.
    """
    factors = _factors(factors)
    grp, m, table = _form_table(factors)
    return [_form(factors, grp, m, q) for q in table]


def _automorphisms(factors) -> np.ndarray:
    """Brute-force automorphisms of the abelian group, one row each: the
    element number of phi(g) at g's number."""
    factors = _factors(factors)
    order = math.prod(factors)
    if order > 64:
        raise GroupTooLarge(f"|G| = {order} exceeds the brute-force bound 64")
    grp = _Group(factors)
    orders = [math.lcm(*[f // math.gcd(x, f) for x, f in zip(g, factors)])
              for g in grp.elements]
    # images of generators must have the right order; then check bijectivity
    candidates = [[i for i, o in enumerate(orders) if o == f] for f in factors]
    autos = []
    for images in itertools.product(*candidates):
        perm = grp.number(grp.coords @ grp.coords[list(images)])
        if np.bincount(perm, minlength=order).all():
            autos.append(perm)
    return np.array(autos, dtype=np.int64).reshape(len(autos), order)


def form_classes(factors) -> list:
    """Orbit representatives of quadratic_forms(factors) under group
    automorphisms, each the first of its orbit in enumeration order.
    Raises GroupTooLarge for |G| > 64 before any form is enumerated."""
    factors = _factors(factors)
    autos = _automorphisms(factors)
    grp, m, table = _form_table(factors)
    seen = set()
    reps = []
    for q in table:
        if q.tobytes() in seen:
            continue
        reps.append(_form(factors, grp, m, q))
        seen.update(moved.tobytes() for moved in q[autos])
    return reps


def braided_cases(big_n: int) -> list:
    """Constraint table for a braided categorification containing a
    near-integral ring with FPdim(S) = N: list of
    (kappa, dim, twist constraint, tag). Complete by scanning all kappa up
    to sqrt(4N/3) + 1."""
    if big_n < 1:
        raise ValueError("N must be positive")
    out = [(0, 2 * big_n, "theta_rho in {zeta(4,1), zeta(4,3)} or theta_rho**16 = 1",
            "kappa-zero")]
    for kappa in range(1, int(math.isqrt(4 * big_n // 3)) + 2):
        if 2 * kappa * kappa == big_n:
            out.append((kappa, 6 * kappa * kappa, "theta_rho in {zeta(3,1), zeta(3,2)}",
                        "case-2"))
        if 3 * kappa * kappa == 4 * big_n:
            out.append((kappa, 3 * kappa * kappa, "theta_rho = -1", "case-3"))
    return out


# ---------------------------------------------------------------------------
# JSON I/O


def modular_datum_from_json(data) -> ModularDatum:
    s = [[parse_scalar(e) for e in row] for row in data["S"]]
    t = [RootOfUnity(int(num), int(den)) for num, den in data["T"]]
    m = ModularDatum(np.array(s, dtype=complex), tuple(t))
    if "dims" in data and data["dims"] is not None:
        given = np.asarray([float(x) for x in data["dims"]])
        if not np.allclose(given, m.dims, atol=1e-6):
            raise FusionRingError("explicit dims disagree with row 0 of S")
    return m


def modular_datum_to_json(m: ModularDatum) -> dict:
    return {
        "S": [[_scalar_to_json(z) for z in row] for row in m.s],
        "T": [[r.num, r.den] for r in m.t],
        "dims": [float(x) for x in m.dims],
    }


def form_from_json(data) -> QuadraticForm:
    """Inverse of form_to_json. Every element of G must appear exactly once,
    keyed by its comma-joined coordinates, with an integer pair [num, den],
    den > 0; the form is then verified. Raises FusionRingError otherwise."""
    if not (isinstance(data, dict) and isinstance(data.get("factors"), list)
            and isinstance(data.get("values"), dict)):
        raise FusionRingError('a quadratic form is {"factors": [...], "values": {...}}')
    if not all(map(_is_int, data["factors"])):
        raise FusionRingError(f"factors must be integers: {data['factors']!r}")
    factors = _factors(data["factors"])
    values = {}
    for key, val in data["values"].items():
        try:
            g = tuple(int(x) for x in key.split(",")) if key else ()
        except ValueError:
            raise FusionRingError(f"value key {key!r} is not a list of integers") from None
        if len(g) != len(factors) or not all(0 <= x < f for x, f in zip(g, factors)):
            raise FusionRingError(f"value key {key!r} is not an element of "
                                  + " x ".join(f"C{f}" for f in factors))
        if g in values:
            raise FusionRingError(f"element {g} appears twice")
        if not (isinstance(val, list) and len(val) == 2 and all(map(_is_int, val))
                and val[1] > 0):
            raise FusionRingError(f"value of {key!r} must be [num, den] with den > 0: {val!r}")
        values[g] = RootOfUnity(*val)
    form = QuadraticForm(factors, values)
    form.verify(exhaustive=math.prod(factors) <= 12)
    return form


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def form_to_json(form: QuadraticForm) -> dict:
    return {
        "factors": list(form.factors),
        "values": {",".join(str(x) for x in g): [r.num, r.den]
                   for g, r in sorted(form.values.items())},
    }
