"""Near-integral fusion rings R(S, kappa) and Gagola-type character analysis.

A near-integral ring has a distinguished self-dual basis element rho such
that every other basis element spans, with the unit, a subring S of corank
one, x * rho = FPdim(x) rho for x in S, and
rho^2 = kappa rho + sum_{x in S} FPdim(x) x. Writing N = FPdim(S), the two
eigenvalues of rho outside S are the roots d+- of t^2 - kappa t - N = 0.

In a fusion ring only the closure of S is not a consequence of the axioms.
Let d_x = c_{rho rho}^x. Frobenius reciprocity gives c_{x rho}^rho = d_x and
c_{x rho}^y = c_{x* y}^rho = 0 for x, y in S, so x * rho = d_x rho; FPdim is
a character, so d = FPdim on S, and FPdim(rho) is the positive root d+.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (CharacterTable, FusionRing, FusionRingError, _storage_dtype, _wide,
                   character_table_to_fusion_ring)
from .exact import _agrees, _is_int, _snaps
from .structure import ClosureViolation, SubringHandle
from . import spectral

__all__ = [
    "NotNearIntegral",
    "ExtensionObstructed",
    "NearIntegralReport",
    "GagolaReport",
    "roots_dpm",
    "detect",
    "construct",
    "subring_on",
    "distinguished_characters",
    "extend_character",
    "near_integral_codegrees",
    "character_kernel",
    "dim_a_chi_minus",
    "gagola_analyze",
    "extraspecial_kappa",
]


class NotNearIntegral(FusionRingError):
    pass


class ExtensionObstructed(FusionRingError):
    """Raised when a subring character does not extend by zero at rho."""


@dataclass(frozen=True)
class NearIntegralReport:
    subring_indices: tuple
    rho_index: int
    kappa: int
    big_n: int
    d_plus: float
    d_minus: float
    d_plus_exact_integer: bool
    flags: tuple = ()

    def to_json(self) -> dict:
        return {
            "subringIndices": list(self.subring_indices),
            "rhoIndex": self.rho_index,
            "kappa": self.kappa,
            "N": self.big_n,
            "dPlus": self.d_plus,
            "dMinus": self.d_minus,
            "dPlusExactInteger": self.d_plus_exact_integer,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class GagolaReport:
    rho_row: int
    kappa: int
    vanishing_classes: int

    def to_json(self) -> dict:
        return {
            "rhoRow": self.rho_row,
            "kappa": self.kappa,
            "vanishingClasses": self.vanishing_classes,
        }


def roots_dpm(kappa: float, big_n: float):
    """The two roots of t^2 - kappa t - N = 0 for N > 0, larger first.

    d- = -N / d+ (Vieta), since kappa - sqrt(kappa^2 + 4N) cancels at
    large kappa."""
    d_plus = (kappa + math.sqrt(kappa * kappa + 4.0 * big_n)) / 2.0
    return d_plus, -big_n / d_plus


def subring_on(ring: FusionRing, indices) -> FusionRing:
    """Restrict a fusion ring to a fusion-closed subset of basis
    indices. The result is not checked: such a subset keeps every axiom, as
    each associativity sum over t meets only t inside it."""
    handle = SubringHandle(indices)
    handle.verify(ring)
    idx = handle.indices
    return FusionRing._by_theorem([ring.labels[i] for i in idx],
                                  ring.tensor[np.ix_(idx, idx, idx)])


def detect(ring: FusionRing):
    """Find the near-integral structure of a ring, or return None.

    Scans self-dual non-unit rho in index order for the first whose
    complement S is closed, c_ij^rho = 0 for i, j in S, which on a fusion
    ring gives x * rho = d_x rho, d_x = c_{rho rho}^x = FPdim(x) >= 1 (module
    docstring), so no FPdim is computed. Then kappa = c_{rho rho}^rho and
    N = sum d_x^2. The one flag is the categorification screen; kappa >= N
    with d+ integral cannot occur, as kappa^2 + 4N = m^2 forces m >= kappa + 2."""
    n = ring.rank
    for rho in range(1, n):
        if ring.dual[rho] != rho:
            continue
        comp = [i for i in range(n) if i != rho]
        if ring.tensor[:, :, rho][np.ix_(comp, comp)].any():
            continue
        sq = ring.tensor[rho, rho]
        kappa = int(sq[rho])
        big_n = sum(int(d) ** 2 for d in sq[comp])
        d_plus, d_minus = roots_dpm(kappa, big_n)
        disc = kappa * kappa + 4 * big_n
        exact = math.isqrt(disc) ** 2 == disc
        flags = () if exact or kappa % big_n == 0 else (
            "categorification-screen: d+ irrational and N does not divide kappa",)
        return NearIntegralReport(tuple(comp), rho, kappa, big_n,
                                  d_plus, d_minus, exact, flags)
    return None


def construct(sub: FusionRing, kappa: int) -> FusionRing:
    """Build R(S, kappa) from an integral fusion ring S and an
    integer (exact._is_int) kappa >= 0. The result is not checked: its
    axioms are those of S and sum_k c_ij^k d_k = d_i d_j for the FPdims d
    of S, certified in integers on the FPdims of spectral._perron_dims
    rounded to integers (else NotNearIntegral): that one check decides, so
    an irrational FPdim within an ulp of an integer is refused the same way
    as any other. The tensor is built in the storage dtype of the largest of
    S's entries, kappa and the FPdims (core._storage_dtype)."""
    if not _is_int(kappa):
        raise FusionRingError(f"kappa must be an integer, got {kappa!r}")
    if not 0 <= kappa < 2 ** 63:
        raise FusionRingError("kappa must be nonnegative" if kappa < 0
                              else f"kappa = {kappa} does not fit in int64")
    n = sub.rank
    dims = [int(d) for d in np.rint(spectral._perron_dims(sub))]
    if not spectral._is_eigenvector(sub.tensor, dims, dims):
        raise NotNearIntegral(f"the rounded FPdims {dims} of the subring are not a character")
    rho = n
    top = max(int(sub.tensor.max()), int(kappa), *dims)
    t = np.zeros((n + 1, n + 1, n + 1), dtype=_storage_dtype(top))
    t[:n, :n, :n] = sub.tensor
    t[:n, rho, rho] = t[rho, :n, rho] = t[rho, rho, :n] = dims
    t[rho, rho, rho] = kappa
    rho_label = "rho"
    k = 2
    while rho_label in sub.labels:
        rho_label = f"rho{k}"
        k += 1
    return FusionRing._by_theorem(list(sub.labels) + [rho_label], t)


def distinguished_characters(ring: FusionRing, report: NearIntegralReport):
    """The two characters chi+- that restrict to FPdim = c_{rho rho}^x on S
    and send rho to d+-. Returned as (chi_plus, chi_minus) value vectors on
    the full basis. Multiplicativity is the paper's theorem on R(S, kappa)
    (d+- are the roots of t^2 = kappa t + N) and is not checked here."""
    rho = report.rho_index
    chi_plus = ring.tensor[rho, rho].astype(complex)
    chi_minus = chi_plus.copy()
    chi_plus[rho], chi_minus[rho] = report.d_plus, report.d_minus
    return chi_plus, chi_minus


def extend_character(ring: FusionRing, report: NearIntegralReport,
                     sub_values) -> np.ndarray:
    """Extend a non-FPdim character of S to R(S, kappa) by zero at rho.

    sub_values: character values on the subring basis in the order of
    report.subring_indices. Raises ExtensionObstructed if the extension is
    not a character, by exact._agrees at scale max(1, max|v|^2).
    """
    sub_values = np.asarray(sub_values, dtype=complex)
    if sub_values.shape != (len(report.subring_indices),):
        raise FusionRingError("extend_character expects one value per subring basis element")
    v = np.zeros(ring.rank, dtype=complex)
    v[list(report.subring_indices)] = sub_values
    prod = np.einsum("ijk,k->ij", ring.tensor.astype(float), v)
    ok, err = _agrees(prod, np.outer(v, v), max(1.0, float(np.abs(v).max()) ** 2))
    if not ok.all():
        raise ExtensionObstructed(
            f"zero extension fails multiplicativity by {err.max()}; "
            "this is the FPdim character of S or the input is not a character")
    return v


def near_integral_codegrees(ring: FusionRing, report: NearIntegralReport) -> list:
    """Codegrees of R(S, kappa): those of S with one copy of FPdim(S)
    replaced by N + d+-^2 = 2N + kappa d+-, in integers when kappa = 0 or
    d+- are integers and a float otherwise. FPdim(S) = N is a codegree of
    S, the one nearest N is replaced; by the paper's theorem these are the
    codegrees of the whole ring, so those are not computed. S is not
    re-verified: detect reports it only once it is found closed. S's Casimir
    matrix is read in place from the ring, which commutes exactly when S
    does (x rho = d_x rho for x in S)."""
    spectral._require_commutative(ring, "formal codegrees")
    idx = np.array(report.subring_indices)
    pairs = ring.tensor[idx, np.array(ring.dual)[idx]][:, idx]
    profile = pairs.sum(axis=0, dtype=_wide(ring.tensor))
    sub_codegs = list(spectral._casimir_codegrees(spectral._casimir_on(ring.tensor, profile, idx)))
    target = report.big_n
    best = min(range(len(sub_codegs)), key=lambda i: abs(float(sub_codegs[i]) - target))
    out = sub_codegs[:best] + sub_codegs[best + 1:]
    k = report.kappa
    if k == 0 or report.d_plus_exact_integer:
        root = math.isqrt(k * k + 4 * target)
        out += [2 * target + k * (k + root) // 2, 2 * target + k * (k - root) // 2]
    else:
        out += [target + d * d for d in (report.d_plus, report.d_minus)]
    return sorted(out, key=float, reverse=True)


def character_kernel(ring: FusionRing, values):
    """Indices where a character snaps to FPdim (scale max(1, FPdim)), plus
    whether that set is a fusion subring. Returns (indices, is_subring)."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (ring.rank,):
        raise FusionRingError("character_kernel expects one value per basis element")
    dims = spectral.fpdims(ring)
    near, _ = _snaps(values, dims, np.maximum(1.0, dims))
    kernel = tuple(np.flatnonzero(near).tolist())
    try:
        SubringHandle(kernel).verify(ring)
    except ClosureViolation:
        return kernel, False
    return kernel, True


def dim_a_chi_minus(report: NearIntegralReport) -> float:
    """1 + (kappa/N) d+, which equals -d+/d- and (2N + kappa d+) / (2N + kappa d-)
    since d+ d- = -N and d+ + d- = kappa."""
    return 1.0 + (report.kappa / report.big_n) * report.d_plus


def gagola_analyze(table: CharacterTable):
    """Look for a Gagola character: the first class x != identity with a
    unique row rho where rho(x) != rho(1), all other rows agreeing with
    their degree on x (exact._agrees). Returns a GagolaReport or None, with
    kappa = 2 deg(rho) - |G| / deg(rho), deg(rho) from table.degrees, which
    by column orthogonality is c_{rho rho}^rho >= 0 (a property test checks
    it). Building the ring checks what the table's own checks leave out."""
    differs = ~_agrees(table.rows, table.rows[:, :1])[0]
    single = differs.sum(axis=0) == 1
    if not single.any():
        return None
    rho = int(differs[:, single.argmax()].argmax())
    deg = table.degrees[rho]
    if table.order % deg != 0:
        raise NotNearIntegral(f"degree {deg} does not divide |G| = {table.order}")
    character_table_to_fusion_ring(table)
    return GagolaReport(rho, 2 * deg - table.order // deg,
                        int(_agrees(table.rows[rho])[0].sum()))


def extraspecial_kappa(p: int, n: int):
    """(kappa, N, d+) for the extraspecial family: kappa = p^n (p-2),
    N = p^{2n} (p-1), d+ = p^n (p-1). The quadratic identity
    d+^2 - kappa d+ - N = 0 holds exactly in integers."""
    if not (_is_int(p) and _is_int(n)):
        raise ValueError(f"p and n must be integers, got {p!r} and {n!r}")
    p, n = operator.index(p), operator.index(n)
    if p < 3 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError("p must be an odd prime")
    if n < 1:
        raise ValueError("n must be positive")
    kappa = p ** n * (p - 2)
    big_n = p ** (2 * n) * (p - 1)
    d_plus = p ** n * (p - 1)
    return kappa, big_n, d_plus
