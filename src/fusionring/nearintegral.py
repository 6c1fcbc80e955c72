"""Near-integral fusion rings R(S, kappa) and Gagola-type character analysis.

A near-integral ring has a distinguished self-dual basis element rho such
that every other basis element spans, with the unit, a subring S of corank
one, x * rho = FPdim(x) rho for x in S, and
rho^2 = kappa rho + sum_{x in S} FPdim(x) x. Writing N = FPdim(S), the two
eigenvalues of rho outside S are the roots d+- of t^2 - kappa t - N = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (CharacterTable, FusionRing, FusionRingError,
                   character_table_to_fusion_ring)
from .exact import snap_int
from .structure import ClosureViolation, SubringHandle, _first_escape
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

SNAP_TOL = 1e-6


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
    """The two roots of t^2 - kappa t - N = 0, larger first."""
    disc = math.sqrt(kappa * kappa + 4.0 * big_n)
    return (kappa + disc) / 2.0, (kappa - disc) / 2.0


def subring_on(ring: FusionRing, indices) -> FusionRing:
    """Restrict the ring to a fusion-closed subset of basis indices
    (validated)."""
    handle = SubringHandle(indices)
    handle.verify(ring)
    idx = list(handle.indices)
    pos = {b: a for a, b in enumerate(idx)}
    return FusionRing.validated([ring.labels[i] for i in idx],
                                ring.tensor[np.ix_(idx, idx, idx)],
                                [pos[ring.dual[i]] for i in idx])


def detect(ring: FusionRing, tol: float = SNAP_TOL):
    """Find the near-integral structure of a ring, or return None.

    Scans self-dual non-unit candidates rho in index order; for each, checks
    that the complement is fusion-closed with integer dimensions, that
    x * rho = FPdim(x) rho on the complement, and that
    rho^2 = kappa rho + sum FPdim(x) x.
    """
    n = ring.rank
    dims = spectral.fpdims(ring)
    support = ring.tensor != 0
    for rho in range(1, n):
        if ring.dual[rho] != rho:
            continue
        comp = [i for i in range(n) if i != rho]
        if _first_escape(support, comp) is not None:
            continue
        sub_dims = []
        ok = True
        for i in comp:
            d = snap_int(dims[i], tol)
            if d is None:
                ok = False
                break
            sub_dims.append(d)
        if not ok:
            continue
        # x * rho = FPdim(x) * rho for x in the subring
        for pos, i in enumerate(comp):
            row = ring.tensor[i, rho]
            if row[rho] != sub_dims[pos] or any(row[j] != 0 for j in comp):
                ok = False
                break
        if not ok:
            continue
        # rho^2 = kappa rho + sum FPdim(x) x
        sq = ring.tensor[rho, rho]
        if any(int(sq[i]) != d for i, d in zip(comp, sub_dims)):
            continue
        kappa = int(sq[rho])
        big_n = int(sum(d * d for d in sub_dims))
        d_plus, d_minus = roots_dpm(kappa, big_n)
        exact = snap_int(d_plus, tol) is not None
        flags = []
        if not exact and kappa % big_n != 0:
            flags.append("categorification-screen: d+ irrational and N does not divide kappa")
        if exact and kappa >= big_n:
            flags.append(f"kappa = {kappa} >= N = {big_n} with d+ integral")
        if abs(dims[rho] - d_plus) > 1e-6 * max(1.0, d_plus):
            flags.append(f"FPdim(rho) = {dims[rho]} differs from d+ = {d_plus}")
        return NearIntegralReport(tuple(comp), rho, kappa, big_n,
                                  d_plus, d_minus, exact, tuple(flags))
    return None


def construct(sub: FusionRing, kappa: int) -> FusionRing:
    """Build R(S, kappa) from an integral fusion ring S and kappa >= 0."""
    if kappa < 0:
        raise FusionRingError("kappa must be nonnegative")
    n = sub.rank
    dims = [snap_int(d, SNAP_TOL) for d in spectral.fpdims(sub)]
    if None in dims:
        raise NotNearIntegral("the subring must have integer dimensions")
    rho = n
    t = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    t[:n, :n, :n] = sub.tensor
    for i in range(n):
        t[i, rho, rho] = dims[i]
        t[rho, i, rho] = dims[i]
    for i in range(n):
        t[rho, rho, i] = dims[i]
    t[rho, rho, rho] = kappa
    rho_label = "rho"
    k = 2
    while rho_label in sub.labels:
        rho_label = f"rho{k}"
        k += 1
    labels = list(sub.labels) + [rho_label]
    dual = list(sub.dual) + [rho]
    return FusionRing.validated(labels, t, dual)


def distinguished_characters(ring: FusionRing, report: NearIntegralReport, tol: float = 1e-9):
    """The two characters chi+- that restrict to FPdim on S and send rho to
    d+-. Returned as (chi_plus, chi_minus) value vectors on the full basis.
    Verifies multiplicativity on all basis pairs."""
    n = ring.rank
    dims = spectral.fpdims(ring)
    out = []
    for d_rho in (report.d_plus, report.d_minus):
        v = np.array([dims[i] if i != report.rho_index else d_rho for i in range(n)],
                     dtype=complex)
        err = _hom_defect(ring, v)
        if err > tol * max(1.0, float(np.abs(v).max()) ** 2):
            raise NotNearIntegral(f"chi({d_rho}) fails multiplicativity by {err}")
        out.append(v)
    return out[0], out[1]


def _hom_defect(ring: FusionRing, values: np.ndarray) -> float:
    prod = np.einsum("ijk,k->ij", ring.tensor.astype(float), values)
    return float(np.abs(prod - np.outer(values, values)).max())


def extend_character(ring: FusionRing, report: NearIntegralReport,
                     sub_values, tol: float = 1e-9) -> np.ndarray:
    """Extend a non-FPdim character of S to R(S, kappa) by zero at rho.

    sub_values: character values on the subring basis in the order of
    report.subring_indices. Raises ExtensionObstructed if the extension is
    not a character.
    """
    n = ring.rank
    v = np.zeros(n, dtype=complex)
    for pos, i in enumerate(report.subring_indices):
        v[i] = sub_values[pos]
    v[report.rho_index] = 0.0
    err = _hom_defect(ring, v)
    if err > tol * max(1.0, float(np.abs(v).max()) ** 2):
        raise ExtensionObstructed(
            f"zero extension fails multiplicativity by {err}; "
            "this is the FPdim character of S or the input is not a character")
    return v


def near_integral_codegrees(ring: FusionRing, report: NearIntegralReport,
                            tol: float = 1e-9) -> list:
    """Codegrees of R(S, kappa): those of S with one copy of FPdim(S)
    replaced by the pair N + d+^2 and N + d-^2. Cross-checked against the
    direct spectral computation when the ring is commutative."""
    sub = subring_on(ring, report.subring_indices)
    sub_codegs = spectral.formal_codegrees(sub, tol)
    target = report.big_n
    best = min(range(len(sub_codegs)), key=lambda i: abs(float(sub_codegs[i]) - target))
    if abs(float(sub_codegs[best]) - target) > SNAP_TOL * max(1, target):
        raise NotNearIntegral(
            f"no subring codegree matches FPdim(S) = {target}: {sub_codegs}")
    out = sub_codegs[:best] + sub_codegs[best + 1:]
    d_p, d_m = report.d_plus, report.d_minus
    for extra in (target + d_p * d_p, target + d_m * d_m):
        i = snap_int(extra, SNAP_TOL)
        out.append(i if i is not None else extra)
    out = sorted(out, key=float, reverse=True)
    if ring.is_commutative():
        direct = spectral.formal_codegrees(ring, tol)
        if len(direct) != len(out) or any(
                abs(float(a) - float(b)) > 1e-6 * max(1.0, abs(float(a)))
                for a, b in zip(direct, out)):
            raise NotNearIntegral(
                f"codegree bookkeeping {out} disagrees with spectral values {direct}")
    return out


def character_kernel(ring: FusionRing, values, tol: float = SNAP_TOL):
    """Indices where a character equals FPdim, plus whether that set is a
    fusion subring. Returns (indices, is_subring)."""
    dims = spectral.fpdims(ring)
    values = np.asarray(values, dtype=complex)
    kernel = tuple(i for i in range(ring.rank)
                   if abs(values[i] - dims[i]) <= tol * max(1.0, dims[i]))
    try:
        SubringHandle(kernel).verify(ring)
    except ClosureViolation:
        return kernel, False
    return kernel, True


def dim_a_chi_minus(report: NearIntegralReport, tol: float = 1e-9) -> float:
    """1 + (kappa/N) d+, cross-checked against -d+/d- and
    (2N + kappa d+) / (2N + kappa d-)."""
    k, n = report.kappa, report.big_n
    dp, dm = report.d_plus, report.d_minus
    val = 1.0 + (k / n) * dp
    alt1 = -dp / dm
    alt2 = (2 * n + k * dp) / (2 * n + k * dm)
    if abs(val - alt1) > tol * max(1.0, val) or abs(val - alt2) > tol * max(1.0, val):
        raise NotNearIntegral(f"dim(A_chi-) forms disagree: {val}, {alt1}, {alt2}")
    return val


def gagola_analyze(table: CharacterTable, tol: float = 1e-9):
    """Look for a Gagola character: a class x != identity and a unique row
    rho with rho(x) != rho(1), all other rows agreeing with their degree on
    x. Returns a GagolaReport or None.

    kappa = 2 deg(rho) - |G| / deg(rho); checked to be a nonnegative integer
    and to equal the self-coupling c_{rho rho}^rho of the character ring.
    """
    rows = table.rows
    r = table.num_classes
    for x in range(1, r):
        differs = [i for i in range(r) if abs(rows[i, x] - rows[i, 0]) > tol]
        if len(differs) != 1:
            continue
        rho = differs[0]
        deg = int(round(rows[rho, 0].real))
        if table.order % deg != 0:
            raise NotNearIntegral(f"degree {deg} does not divide |G| = {table.order}")
        kappa = 2 * deg - table.order // deg
        if kappa < 0:
            raise NotNearIntegral(f"kappa = {kappa} is negative for row {rho}")
        vanishing = int(sum(1 for v in rows[rho] if abs(v) <= tol))
        ring = character_table_to_fusion_ring(table)
        if int(ring.tensor[rho, rho, rho]) != kappa:
            raise NotNearIntegral(
                f"kappa = {kappa} but c_rho,rho^rho = {int(ring.tensor[rho, rho, rho])}")
        return GagolaReport(rho, kappa, vanishing)
    return None


def extraspecial_kappa(p: int, n: int):
    """(kappa, N, d+) for the extraspecial family: kappa = p^n (p-2),
    N = p^{2n} (p-1), d+ = p^n (p-1). The quadratic identity
    d+^2 - kappa d+ - N = 0 holds exactly in integers."""
    if p < 3 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError("p must be an odd prime")
    if n < 1:
        raise ValueError("n must be positive")
    kappa = p ** n * (p - 2)
    big_n = p ** (2 * n) * (p - 1)
    d_plus = p ** n * (p - 1)
    assert d_plus * d_plus - kappa * d_plus - big_n == 0
    return kappa, big_n, d_plus
