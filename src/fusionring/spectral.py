"""Frobenius-Perron dimensions, characters and formal codegrees.

Characters of a commutative fusion ring are found by simultaneously
diagonalizing the (commuting) fusion matrices via a random linear
combination; codegrees and the induction-unit profile follow directly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .core import FusionRing, FusionRingError
from .exact import snap_int

__all__ = [
    "NotCommutative",
    "DegenerateSpectrum",
    "Character",
    "SpectralReport",
    "fusion_matrix",
    "fpdim",
    "fpdims",
    "ring_fpdim",
    "characters",
    "formal_codegrees",
    "codegree_object_dims",
    "induction_unit_profile",
    "spectral_report",
]

DEFAULT_TOL = 1e-9
SNAP_TOL = 1e-6


class NotCommutative(FusionRingError):
    pass


class DegenerateSpectrum(FusionRingError):
    """Raised when no random combination separated the joint eigenvalues."""


@dataclass(frozen=True)
class Character:
    """A ring homomorphism to C, as its values on the basis.

    codegree is sum_i |chi(b_i)|^2; is_fpdim marks the Frobenius-Perron
    character (all values real positive).
    """

    values: np.ndarray = field(repr=False)
    codegree: float
    is_fpdim: bool

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def fusion_matrix(ring: FusionRing, i: int) -> np.ndarray:
    """Left multiplication matrix N_i with (N_i)_{jk} = c_{ij}^k."""
    return ring.tensor[i].astype(float)


def fpdim(ring: FusionRing, i: int, tol: float = 1e-12) -> float:
    """Perron eigenvalue of N_i.

    Power iteration on N_i + I (the shift keeps bipartite fusion graphs from
    oscillating); falls back to a dense eigendecomposition if it stalls.
    """
    m = fusion_matrix(ring, i) + np.eye(ring.rank)
    x = np.full(ring.rank, 1.0 / np.sqrt(ring.rank))
    lam = np.inf
    for _ in range(10000):
        y = m @ x
        new = float(x @ y)  # Rayleigh quotient, x normalized
        y_norm = np.linalg.norm(y)
        if y_norm == 0:
            break
        x = y / y_norm
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return new - 1.0
        lam = new
    ev = np.linalg.eigvals(fusion_matrix(ring, i))
    return float(np.max(ev.real))


def fpdims(ring: FusionRing) -> np.ndarray:
    return np.array([fpdim(ring, i) for i in range(ring.rank)])


def ring_fpdim(ring: FusionRing) -> float:
    """FPdim of the ring: sum of squared basis dimensions."""
    return float(np.sum(fpdims(ring) ** 2))


def _ring_seed(ring: FusionRing) -> int:
    return zlib.crc32(ring.tensor.tobytes()) & 0x7FFFFFFF


def characters(ring: FusionRing, tol: float = DEFAULT_TOL, seed=None) -> list:
    """All characters of a commutative fusion ring, Frobenius-Perron first,
    then by decreasing codegree (ties broken lexicographically).

    Raises NotCommutative for noncommutative input and DegenerateSpectrum if
    eight random combinations all fail to separate the joint spectrum.
    """
    if not ring.is_commutative():
        raise NotCommutative("characters require a commutative fusion ring")
    n = ring.rank
    dims = fpdims(ring)
    rng = np.random.default_rng(_ring_seed(ring) if seed is None else seed)
    mats = [fusion_matrix(ring, i) for i in range(n)]
    last_gap = None
    for _ in range(8):
        r = rng.standard_normal(n)
        m = sum(r[i] * mats[i] for i in range(n))
        w, v = np.linalg.eig(m)
        diff = np.abs(w[:, None] - w[None, :])
        diff[np.eye(n, dtype=bool)] = np.inf
        gap = float(diff.min()) if n > 1 else np.inf
        last_gap = gap
        if gap < 1e-8:
            continue
        try:
            vinv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            continue
        chars = np.empty((n, n), dtype=complex)  # chars[j] = character j
        ok = True
        for i in range(n):
            d = vinv @ mats[i] @ v
            off = d - np.diag(np.diag(d))
            if np.abs(off).max() > 1e-6:
                ok = False
                break
            chars[:, i] = np.diag(d)
        if not ok:
            continue
        # each character sends the unit to 1 already (N_0 = I); verify
        if np.abs(chars[:, 0] - 1).max() > 1e-6:
            continue
        return _package_characters(ring, chars, dims, tol)
    raise DegenerateSpectrum(
        f"could not separate the joint spectrum after 8 tries (last gap {last_gap})")


def _package_characters(ring, chars, dims, tol):
    n = ring.rank
    out = []
    fp_idx = None
    for j in range(n):
        vals = chars[j]
        # clean tiny imaginary noise on characters that are actually real
        if np.abs(vals.imag).max() < 1e-9:
            vals = vals.real.astype(complex)
        codeg = float(np.sum(np.abs(vals) ** 2))
        is_fp = bool(np.allclose(vals, dims, atol=max(tol, 1e-7) * max(1, dims.max())))
        if is_fp:
            fp_idx = j
        out.append(Character(vals, codeg, is_fp))
    if fp_idx is None:
        raise DegenerateSpectrum("no character matched the Frobenius-Perron dimensions")
    fp = out.pop(fp_idx)
    out.sort(key=lambda c: (-c.codegree,
                            tuple(np.round(c.values.real, 6)),
                            tuple(np.round(c.values.imag, 6))))
    return [fp] + out


def formal_codegrees(ring: FusionRing, tol: float = DEFAULT_TOL, snap: float = SNAP_TOL) -> list:
    """Multiset of formal codegrees, sorted decreasing, integer-snapped when
    within snap tolerance."""
    out = []
    for c in characters(ring, tol):
        i = snap_int(c.codegree, snap)
        out.append(i if i is not None else c.codegree)
    return sorted(out, key=float, reverse=True)


def codegree_object_dims(ring: FusionRing, tol: float = DEFAULT_TOL) -> list:
    """FPdim(ring) / f for each formal codegree f, in codegree order."""
    total = ring_fpdim(ring)
    return [total / float(f) for f in formal_codegrees(ring, tol)]


def induction_unit_profile(ring: FusionRing) -> np.ndarray:
    """Coefficient vector of sum_i b_i b_{i*}, i.e. entry j is
    sum_i c_{i,i*}^j. Satisfies sum_j profile_j FPdim_j = FPdim(ring)."""
    n = ring.rank
    profile = np.zeros(n, dtype=np.int64)
    for i in range(n):
        profile += ring.tensor[i, ring.dual[i]]
    return profile


@dataclass(frozen=True)
class SpectralReport:
    fpdims: np.ndarray
    ring_fpdim: float
    codegrees: tuple
    codegree_dims: tuple
    induction_unit: tuple

    def to_json(self) -> dict:
        return {
            "fpdims": [float(d) for d in self.fpdims],
            "ringFPdim": self.ring_fpdim,
            "codegrees": [float(f) for f in self.codegrees],
            "codegreeDims": [float(d) for d in self.codegree_dims],
            "inductionUnitProfile": [int(x) for x in self.induction_unit],
        }


def spectral_report(ring: FusionRing, tol: float = DEFAULT_TOL) -> SpectralReport:
    codegs = formal_codegrees(ring, tol)
    dims = fpdims(ring)
    total = float(np.sum(dims ** 2))
    return SpectralReport(
        fpdims=dims,
        ring_fpdim=total,
        codegrees=tuple(codegs),
        codegree_dims=tuple(total / float(f) for f in codegs),
        induction_unit=tuple(int(x) for x in induction_unit_profile(ring)),
    )
