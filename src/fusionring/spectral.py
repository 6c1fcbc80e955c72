"""Frobenius-Perron dimensions, characters and formal codegrees.

Formal codegrees are the eigenvalues of the Casimir matrix L = sum_j p_j N_j
(Ostrik 2009). Characters are the joint eigenvectors of the fusion
matrices: one eigh of a fixed generic Hermitian combination H of them
separates them all unless two of its eigenvalues nearly meet, and the
Hermitian parts of the single fusion matrices refine what it leaves whole.
L is such a combination too, so H loses nothing by coming first. Both are
deterministic: the weights of H are fixed irrationals, not a seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import FusionRing, FusionRingError, _blocks, _derived, _wide
from .exact import _agrees, _snaps

__all__ = [
    "NotCommutative",
    "DegenerateSpectrum",
    "Character",
    "SpectralReport",
    "fpdim",
    "fpdims",
    "ring_fpdim",
    "characters",
    "formal_codegrees",
    "induction_unit_profile",
    "spectral_report",
]


class NotCommutative(FusionRingError):
    pass


def _require_commutative(ring: FusionRing, what: str) -> None:
    if not ring.is_commutative():
        raise NotCommutative(f"{what} require a commutative fusion ring")


class DegenerateSpectrum(FusionRingError):
    """Raised when the fusion matrices leave a joint eigenspace of dimension
    > 1, which exact arithmetic rules out on a commutative fusion ring."""


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


@_derived
def fpdims(ring: FusionRing) -> np.ndarray:
    """Perron eigenvalue of each N_i, with (N_i)_{jk} = c_{ij}^k."""
    return _perron_values(ring.tensor)


def fpdim(ring: FusionRing, i: int) -> float:
    """FPdim of basis element i, read from fpdims(ring)."""
    return float(fpdims(ring)[i])


def _perron_values(tensor: np.ndarray) -> np.ndarray:
    """Perron eigenvalue of each N_i in an integer stack: power iteration on
    N_i + I (no bipartite oscillation) to a 1e-12 relative step, eigvals if it
    stalls, in float stacks of core._blocks that each N_i leaves once converged;
    bit for bit one N_i at a time (verified on numpy 2.4.6 with OpenBLAS)."""
    n, out = len(tensor), np.empty(len(tensor))
    for blk in _blocks(n, n):
        m = tensor[blk].astype(float, order="C")  # C: reshape below is a view
        m.reshape(len(m), -1)[:, ::n + 1] += 1.0  # N_i + I, on the diagonal in place
        idx, x, lam = np.arange(n)[blk], np.full((len(m), n), 1.0 / np.sqrt(n)), np.inf
        for _ in range(10000):
            y = (m @ x[..., None])[..., 0]  # per N_i the gemv of N_i @ x_i, then dots
            new = (x[:, None] @ y[..., None])[:, 0, 0]  # Rayleigh quotients, rows of x normalized
            x = y / np.sqrt(y[:, None] @ y[..., None])[:, 0]  # > 0: y >= x > 0, as N_i >= 0
            done = np.abs(new - lam) <= 1e-12 * np.maximum(1.0, np.abs(new))
            if done.any():
                out[idx[done]] = new[done] - 1.0
                idx, m, x, new = idx[~done], m[~done], x[~done], new[~done]
            if not idx.size:
                break
            lam = new
        out[idx] = [np.max(np.linalg.eigvals(tensor[i].astype(float)).real) for i in idx]
    return out


@_derived
def _perron_dims(ring: FusionRing) -> np.ndarray:
    """FPdims to about 1e-12 relative, from one eigh: d_i = x^T N_i x for the
    unit Perron vector x of S = sum_i N_i, whose signs cancel in the
    Rayleigh quotient. S is symmetric (S_jk = sum_i c_ij^k = S_kj by
    Frobenius reciprocity) and each entry is >= 1, so its top eigenvector is
    simple and proportional to the FPdims; it is summed in float, where an
    int64 sum could wrap. Callers snap these to integers and certify them
    exactly (_is_eigenvector), so the floats need only be close; fpdims
    keeps _perron_values, whose bits the CLI prints."""
    t = ring.tensor
    x = np.linalg.eigh(t.sum(axis=0, dtype=float))[1][:, -1]
    return np.concatenate([t[b].astype(float) @ x for b in _blocks(len(t), len(t))]) @ x


def _is_eigenvector(m, d, lam) -> bool:
    """Whether m d = lam d holds exactly: m a nonnegative integer matrix or a
    stack of them, d a positive integer vector, lam an integer for a matrix
    and one per matrix for a stack. Both sides stay under
    max(max(m) len(d), max(lam)) max(d), so past 2^63, where int64 wraps,
    they are computed in Python ints. The stack is widened one core._blocks
    block of matrices at a time."""
    big = max(int(m.max()) * len(d), int(np.max(lam))) * max(d) >= 2 ** 63
    dtype = object if big else np.int64
    d = np.array(d, dtype=dtype)
    stack = m.reshape(-1, len(d), len(d))  # a single matrix as a stack of one
    rhs = np.multiply.outer(np.array(lam, dtype=dtype), d).reshape(-1, len(d))
    return all(np.array_equal(stack[b].astype(dtype, copy=False) @ d, rhs[b])
               for b in _blocks(len(stack), len(d)))


def ring_fpdim(ring: FusionRing) -> float:
    """FPdim of the ring: sum of squared basis dimensions."""
    return float(np.sum(fpdims(ring) ** 2))


@_derived
def _casimir(ring: FusionRing) -> np.ndarray:
    """The Casimir matrix L = sum_j p_j N_j in float64, p the induction-unit
    profile: multiplication by sum_i b_i b_{i*}. It is symmetric (N_{j*} =
    N_j^T, p_{j*} = p_j) and positive definite, and acts on the vector of a
    character by its codegree."""
    return _casimir_on(ring.tensor, induction_unit_profile(ring), np.arange(ring.rank))


def _casimir_on(tensor: np.ndarray, profile: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_j p_j N_j in float64 on the basis elements idx, p indexed like
    idx: whole slabs N_j summed in integers over the nonzero p_j, core._blocks
    of them at a time, each widened to int64 (core._wide) before it is
    multiplied, cut to idx at the end, while max(p) max(N) len(p) < 2^53,
    max(N) over those slabs; past that, by one float contraction, the same
    bits inside the bound: nonnegative terms summing below 2^53 are exact in
    float in any order, and a larger max(N) only lowers the bound."""
    nonzero, n = np.flatnonzero(profile), len(tensor)
    total, top = np.zeros(n * n, dtype=_wide(tensor)), 0
    for ks in (nonzero[blk] for blk in _blocks(len(nonzero), n)):
        slabs = tensor[idx[ks]]
        top = max(top, int(slabs.max()))
        total += profile[ks] @ slabs.reshape(len(ks), -1).astype(total.dtype)
    if int(profile.max()) * top * len(profile) < 2 ** 53:
        return total.reshape(n, n)[np.ix_(idx, idx)].astype(float)
    return np.tensordot(profile.astype(float), tensor[np.ix_(idx, idx, idx)].astype(float), axes=1)


def characters(ring: FusionRing) -> list:
    """All characters of a commutative fusion ring, Frobenius-Perron first,
    then by decreasing codegree to 9 significant digits, ties broken
    lexicographically by the values.

    The normalized character vectors are the joint eigenbasis of
    _hermitian_sequence. Starting from the identity, each block of dimension
    > 1 is split by eigh of the next matrix restricted to it, cut where
    eigenvalues differ by more than 1e-8 times the matrix's norm (a later
    matrix refines a cut too coarse); on every catalog ring the first
    matrix leaves no block to refine. chi(b_i) is the Rayleigh quotient
    v^H N_i v (unlike v_i / v_0, accurate when the codegree 1/|v_0|^2 is
    large), real when every imaginary part agrees with 0 (exact._agrees). The
    FPdim character maximizes sum_i Re chi(b_i), as |chi(b_i)| <= FPdim(b_i).
    Raises NotCommutative for noncommutative input, DegenerateSpectrum if a
    block is never split.
    """
    _require_commutative(ring, "characters")
    tensor = ring.tensor.astype(float)
    todo, done = [np.eye(ring.rank)], []
    for h in _hermitian_sequence(ring, tensor):
        if not todo:
            break
        cut = 1e-8 * np.linalg.norm(h, np.inf)
        pieces = []
        for block in todo:
            w, u = np.linalg.eigh(block.conj().T @ h @ block)
            pieces += np.split(block @ u, np.flatnonzero(np.diff(w) > cut) + 1, axis=1)
        done += [b for b in pieces if b.shape[1] == 1]
        todo = [b for b in pieces if b.shape[1] > 1]
    if todo:
        raise DegenerateSpectrum(f"joint eigenspace of dimension {todo[0].shape[1]} never split")
    vecs = np.hstack(done)
    values = np.einsum("jk,ijk->ki", vecs.conj(), np.tensordot(tensor, vecs, axes=1))
    values = np.where(_agrees(values.imag)[0].all(axis=1, keepdims=True), values.real, values)
    codegrees = np.sum(np.abs(values) ** 2, axis=1)
    fp = int(np.argmax(values.real.sum(axis=1)))
    rest = sorted((k for k in range(ring.rank) if k != fp),
                  key=lambda k: (-float(f"{codegrees[k]:.9g}"),
                                 tuple(np.round(values[k].real, 6)),
                                 tuple(np.round(values[k].imag, 6))))
    return [Character(values[k], float(codegrees[k]), k == fp) for k in [fp, *rest]]


def _hermitian_sequence(ring: FusionRing, tensor: np.ndarray):
    """H, then N_i + N_i^T and, when i != i*, i(N_i - N_i^T): commuting
    Hermitian matrices (N_i is normal, N_{i*} = N_i^T) that together separate
    the characters. H is the generic combination
    sum_i w_i (N_i + N_i^T) + sum_{i != i*} w'_i i(N_i - N_i^T) of the rest,
    its weights sqrt(p) mod 1 over the first 2n primes p."""
    n = ring.rank
    weights = _sqrt_prime_fractions(2 * n).reshape(2, n).copy()
    weights[1, np.array(ring.dual) == np.arange(n)] = 0.0
    sym, anti = (weights @ tensor.reshape(n, n * n)).reshape(2, n, n)
    h = sym + sym.T
    yield h + 1j * (anti - anti.T) if anti.any() else h
    for i in range(1, n):
        yield tensor[i] + tensor[i].T
        if ring.dual[i] != i:
            yield 1j * (tensor[i] - tensor[i].T)


@functools.lru_cache(maxsize=64)
def _sqrt_prime_fractions(count: int) -> np.ndarray:
    """sqrt(p) mod 1 over the first count primes p, sieved below
    count (ln count + ln ln count), which exceeds the count-th prime.
    Built once per count and shared, so the array is read-only."""
    limit = max(16, int(count * (np.log(count + 1) + np.log(np.log(count + 3)))))
    composite = np.zeros(limit, dtype=bool)
    for p in range(2, int(limit ** 0.5) + 1):
        composite[p * p::p] = True
    out = np.sqrt(np.flatnonzero(~composite)[2:count + 2]) % 1.0
    out.setflags(write=False)
    return out


def formal_codegrees(ring: FusionRing) -> list:
    """Formal codegrees, sorted decreasing, each an int where exact._snaps
    puts it on the nearest integer: the eigenvalues of the Casimir matrix L
    (Ostrik 2009). They are the squared singular values of its Cholesky
    factor on the basis in decreasing-diagonal order: unlike eigvalsh(L),
    this keeps a small codegree accurate next to a large one, as in
    R(S, kappa) for a large kappa. Computed once per ring, a new list per call."""
    return list(_codegrees(ring))


@_derived
def _codegrees(ring: FusionRing) -> tuple:
    _require_commutative(ring, "formal codegrees")
    return _casimir_codegrees(_casimir(ring))


def _casimir_codegrees(casimir: np.ndarray) -> tuple:
    """_codegrees of a ring from its float64 Casimir matrix."""
    order = np.argsort(-np.diag(casimir), kind="stable")
    factor = np.linalg.cholesky(casimir[np.ix_(order, order)])
    f = np.linalg.svd(factor, compute_uv=False) ** 2
    near = np.rint(f)
    ok = _snaps(f, near)[0].tolist()  # one call per ring, not one per codegree
    out = [int(r) if k else x for x, r, k in zip(f.tolist(), near.tolist(), ok)]
    return tuple(sorted(out, key=float, reverse=True))


@_derived
def induction_unit_profile(ring: FusionRing) -> np.ndarray:
    """Coefficient vector of sum_i b_i b_{i*}, i.e. entry j is
    sum_i c_{i,i*}^j, summed in int64 (core._wide): an unsigned sum would
    give uint64. Satisfies sum_j profile_j FPdim_j = FPdim(ring)."""
    t = ring.tensor
    return t[np.arange(ring.rank), list(ring.dual)].sum(axis=0, dtype=_wide(t))


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


def spectral_report(ring: FusionRing) -> SpectralReport:
    codegs = _codegrees(ring)
    total = ring_fpdim(ring)
    return SpectralReport(
        fpdims=fpdims(ring),
        ring_fpdim=total,
        codegrees=codegs,
        codegree_dims=tuple(total / float(f) for f in codegs),
        induction_unit=tuple(int(x) for x in induction_unit_profile(ring)),
    )
