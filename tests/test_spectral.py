"""FPdims, characters, codegrees, induction-unit profile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fusionring as fr
from fusionring import core, spectral
from fusionring.core import FusionRing, group_ring, product_ring
from fusionring.nearintegral import NotNearIntegral, construct
from fusionring.spectral import (NotCommutative, _is_eigenvector, characters,
                                 formal_codegrees, fpdim, fpdims,
                                 induction_unit_profile, ring_fpdim,
                                 spectral_report)
from shared_rings import agl1_table, s3_group_ring, snap_int

GOLDEN = (1 + math.sqrt(5)) / 2


def fib_ring():
    return FusionRing(["1", "tau"], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [0, 1])


def ising_ring():
    t = np.zeros((3, 3, 3), dtype=int)
    t[0] = np.eye(3)
    t[:, 0] = np.eye(3)
    t[1, 1, 0] = 1
    t[1, 2, 2] = t[2, 1, 2] = 1
    t[2, 2, 0] = t[2, 2, 1] = 1
    return FusionRing(["1", "psi", "sigma"], t, [0, 1, 2])


def test_fpdim_fibonacci():
    assert fpdim(fib_ring(), 1) == pytest.approx(GOLDEN, abs=1e-10)


def test_fpdim_ising():
    dims = fpdims(ising_ring())
    assert dims == pytest.approx([1, 1, math.sqrt(2)], abs=1e-10)


def test_fpdim_group_ring_all_one():
    for factors in ([2], [3], [2, 2], [6]):
        assert fpdims(group_ring(factors)) == pytest.approx(1.0)


def loop_fpdims(ring) -> np.ndarray:
    """FPdims as they were computed by one power iteration per basis element
    (the batched path must match them bit for bit), kept as an oracle."""
    out = []
    for i in range(ring.rank):
        m = ring.tensor[i].astype(float) + np.eye(ring.rank)
        x = np.full(ring.rank, 1.0 / np.sqrt(ring.rank))
        lam = np.inf
        for _ in range(10000):
            y = m @ x
            new = float(x @ y)
            x = y / np.linalg.norm(y)
            if abs(new - lam) <= 1e-12 * max(1.0, abs(new)):
                out.append(new - 1.0)
                break
            lam = new
        else:
            out.append(float(np.max(np.linalg.eigvals(ring.tensor[i].astype(float)).real)))
    return np.array(out)


RING_VALUED = [name for name in fr.list_catalog()
               if fr.load_entry(name).kind in ("ring", "characterTable", "modularDatum")]
LADDER = {
    **{f"C{n}": lambda n=n: group_ring([n]) for n in (16, 32, 48)},
    "C8xC8": lambda: group_ring([8, 8]),
    "C2^6": lambda: group_ring([2] * 6),
    "C4^3": lambda: group_ring([4] * 3),
    "A4xA4xS3": lambda: product_ring(product_ring(fr.entry_ring("A4"), fr.entry_ring("A4")),
                                     fr.entry_ring("S3")),
    "R(C16,7)": lambda: construct(group_ring([16]), 7),
    "R(C3,10^6)": lambda: construct(group_ring([3]), 10 ** 6),
    "R(C1,10^8)": lambda: construct(group_ring([1]), 10 ** 8),
    # rank 163: four matrices per 1 MB chunk, and 163 is not a multiple of 4
    "R(C162,9)": lambda: construct(group_ring([162]), 9),
}


@pytest.mark.parametrize("name", RING_VALUED)
def test_fpdims_match_loop_on_catalog(name):
    ring = fr.entry_ring(name)
    assert np.array_equal(fpdims(ring), loop_fpdims(ring))


@pytest.mark.parametrize("name", LADDER)
def test_fpdims_match_loop_on_ladder(name):
    ring = LADDER[name]()
    assert np.array_equal(fpdims(ring), loop_fpdims(ring))


@pytest.mark.parametrize("name", ["Z(Rep(A4))", "C48"])
@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_fpdims_match_loop_on_any_layout(name, layout):
    # FusionRing keeps an int64 tensor as given: an F-order array, or a
    # transposed view, which for a commutative ring is the same tensor
    ring = fr.entry_ring(name) if name in RING_VALUED else LADDER[name]()
    t = np.asfortranarray(ring.tensor) if layout == "fortran" else ring.tensor.transpose(1, 0, 2)
    twin = FusionRing(ring.labels, t, ring.dual)
    assert not twin.tensor.flags.c_contiguous
    assert np.array_equal(fpdims(twin), loop_fpdims(twin))
    assert np.array_equal(fpdims(twin), fpdims(ring))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=2), st.integers(0, 10 ** 8),
       st.integers(1, 2 ** 12))
def test_fpdims_match_loop_on_random_rings(factors, kappa, chunk_bytes):
    # small chunks: one to all matrices per stack, the last one short; the
    # Perron dims and the Casimir matrix, summed in blocks too, keep the bits
    # of one block
    rings = (group_ring(factors), construct(group_ring(factors), kappa))
    whole = [(spectral._perron_dims.__wrapped__(r), spectral._casimir.__wrapped__(r))
             for r in rings]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CHUNK_BYTES", chunk_bytes)
        for ring, (dims, casimir) in zip(rings, whole):
            assert np.array_equal(fpdims(ring), loop_fpdims(ring))
            assert np.array_equal(spectral._perron_dims.__wrapped__(ring), dims)
            assert np.array_equal(spectral._casimir.__wrapped__(ring), casimir)


def test_ring_fpdim():
    assert ring_fpdim(ising_ring()) == pytest.approx(4.0)
    assert ring_fpdim(fib_ring()) == pytest.approx(1 + GOLDEN ** 2)


def test_characters_noncommutative_raises():
    ring = s3_group_ring()
    assert not ring.is_commutative()
    with pytest.raises(NotCommutative):
        characters(ring)


def test_codegrees_noncommutative_raises():
    with pytest.raises(NotCommutative):
        formal_codegrees(s3_group_ring())


def test_characters_of_the_zero_tensor_raise_degenerate_spectrum(monkeypatch):
    # the zero tensor is no fusion ring, so it is refused when built; with
    # its matrices, all 0, in place of C2's, no eigenspace splits
    with pytest.raises(core.AxiomViolation, match=r"^unit at \(0, 0, 0\): c\[0\]\[0\]\[0\] = 0"):
        FusionRing(["a", "b"], np.zeros((2, 2, 2), dtype=np.int64), [0, 1])
    monkeypatch.setattr(spectral, "_hermitian_sequence",
                        lambda ring, tensor: (np.zeros_like(tensor[0]) for _ in range(3)))
    with pytest.raises(spectral.DegenerateSpectrum,
                       match="^joint eigenspace of dimension 2 never split$"):
        characters(group_ring([2]))


def test_characters_first_is_fpdim():
    ring = fr.entry_ring("S3")
    chars = characters(ring)
    assert chars[0].is_fpdim
    assert np.allclose(chars[0].values.real, fpdims(ring), atol=1e-8)


def test_characters_deterministic():
    ring = fr.entry_ring("A4")
    a = characters(ring)
    b = characters(ring)
    for x, y in zip(a, b):
        assert np.allclose(x.values, y.values, atol=1e-12)


def order_key(values, codegree):
    """The documented order after the FPdim character: decreasing codegree
    to 9 significant digits, then the values lexicographically."""
    values = np.asarray(values)
    return (-float(f"{codegree:.9g}"), tuple(np.round(values.real, 6)),
            tuple(np.round(values.imag, 6)))


COMMUTATIVE_CATALOG = [name for name in fr.list_catalog()
                       if fr.load_entry(name).kind in ("characterTable", "modularDatum")]


@pytest.mark.parametrize("name", COMMUTATIVE_CATALOG)
def test_characters_order_ignores_float_noise(name):
    chars = characters(fr.entry_ring(name))
    keys = [order_key(c.values, c.codegree) for c in chars[1:]]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", [n for n in COMMUTATIVE_CATALOG
                                  if fr.load_entry(n).kind == "characterTable"])
def test_characters_are_table_columns(name):
    # an independent method: on the character ring of G, chi_i -> chi_i(x)
    # is a character for every class x, and these are all of them
    table = fr.load_entry(name).payload
    cols = [(table.rows[:, x], table.order / table.class_sizes[x])
            for x in range(table.num_classes)]
    want = [cols[0]] + sorted(cols[1:], key=lambda c: order_key(*c))
    got = characters(fr.character_table_to_fusion_ring(table))
    assert got[0].is_fpdim and not any(c.is_fpdim for c in got[1:])
    assert np.abs(np.array([c.values for c in got]) - [v for v, _ in want]).max() < 1e-12
    assert [c.codegree for c in got] == pytest.approx([f for _, f in want], rel=1e-12)


@pytest.mark.parametrize("group, log_kappa", [(1, 20), (1, 26), (1, 32), (2, 20)])
def test_characters_deligne_square(group, log_kappa):
    # R(C_g, 2^k) squared: multiplicities up to 2^(2k) and codegrees from 1
    # to about 2^(4k) in one ring
    r = construct(group_ring([group]), 2 ** log_kappa)
    ring = product_ring(r, r)
    chars = characters(ring)
    assert len(chars) == ring.rank
    assert chars[0].is_fpdim and not any(c.is_fpdim for c in chars[1:])
    assert np.allclose(chars[0].values.real, fpdims(ring), rtol=1e-9)
    got = sorted((c.codegree for c in chars), reverse=True)
    assert got == pytest.approx([float(f) for f in formal_codegrees(ring)], rel=1e-9)
    assert sum(1 / c.codegree for c in chars) == pytest.approx(1.0, rel=1e-12)


def _casimir_first_sequence(ring, tensor):
    """_hermitian_sequence as it was before its generic first matrix: the
    Casimir matrix L first, then the same per-index matrices."""
    yield spectral._casimir(ring)
    for i in range(1, ring.rank):
        yield tensor[i] + tensor[i].T
        if ring.dual[i] != i:
            yield 1j * (tensor[i] - tensor[i].T)


def assert_same_characters(got, want):
    """Same order and FPdim flag, values within 1e-12 of each character's
    largest |value|."""
    assert [c.is_fpdim for c in got] == [c.is_fpdim for c in want]
    for a, b in zip(got, want, strict=True):
        assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(b.values).max()


CHARACTER_ORACLE_RINGS = {
    **{f"catalog:{name}": lambda name=name: fr.entry_ring(name) for name in COMMUTATIVE_CATALOG},
    **{f"AGL(1,{p})": lambda p=p: fr.character_table_to_fusion_ring(agl1_table(p))
       for p in (5, 7, 13)},
    "R(C3,10^6)": LADDER["R(C3,10^6)"],
    "C2^6": LADDER["C2^6"],  # 684 eigh calls with L first
}


@pytest.mark.parametrize("name", CHARACTER_ORACLE_RINGS)
def test_characters_match_the_casimir_first_sequence(name, monkeypatch):
    ring = CHARACTER_ORACLE_RINGS[name]()
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    got = characters(ring)
    assert len(calls) == 1  # the generic first matrix splits every character
    monkeypatch.setattr(spectral, "_hermitian_sequence", _casimir_first_sequence)
    want = characters(ring)
    assert_same_characters(got, want)


@pytest.mark.parametrize("name", ["A4", "SmallGroup(32,7)", "Z(Rep(A4))"])
def test_single_matrices_refine_what_the_first_leaves_whole(name, monkeypatch):
    # with zero weights the first matrix is 0 and splits nothing, so
    # N_i + N_i^T and i(N_i - N_i^T) (A4 has a dual pair) separate them all
    ring = fr.entry_ring(name)
    want = characters(ring)
    monkeypatch.setattr(spectral, "_sqrt_prime_fractions", np.zeros)
    got = characters(ring)
    assert_same_characters(got, want)


def test_prime_weights_are_built_once_per_count_and_read_only():
    # _hermitian_sequence zeroes the self-dual weights of its own copy
    ring = fr.entry_ring("A4")
    weights = spectral._sqrt_prime_fractions(2 * ring.rank)
    assert spectral._sqrt_prime_fractions(2 * ring.rank) is weights
    assert not weights.flags.writeable and weights[ring.rank:].all()
    characters(ring)
    assert weights[ring.rank:].all()


def test_codegrees_rep_s3():
    assert formal_codegrees(fr.entry_ring("S3")) == [6, 3, 2]


def test_codegrees_rep_a4():
    assert formal_codegrees(fr.entry_ring("A4")) == [12, 4, 3, 3]


def test_codegree_dims_rep_s3():
    assert list(spectral_report(fr.entry_ring("S3")).codegree_dims) == pytest.approx([1, 2, 3])


def test_codegrees_group_ring():
    # for ZG with G abelian every codegree is |G|
    assert formal_codegrees(group_ring([4])) == [4, 4, 4, 4]


def test_codegrees_divide_group_order():
    for name in ["C2", "S3", "A4", "D4", "Q8", "F5", "PSU(3,2)", "Aut(D9)",
                 "SmallGroup(32,7)", "SmallGroup(32,44)"]:
        table = fr.load_entry(name).payload
        ring = fr.character_table_to_fusion_ring(table)
        for f in formal_codegrees(ring):
            assert table.order % int(f) == 0


def test_induction_unit_profile_rep_s3():
    assert list(induction_unit_profile(fr.entry_ring("S3"))) == [3, 1, 1]


def test_profile_pairs_with_dims():
    for name in ["S3", "A4", "F5"]:
        ring = fr.entry_ring(name)
        profile = induction_unit_profile(ring)
        dims = fpdims(ring)
        assert float(profile @ dims) == pytest.approx(ring_fpdim(ring))


def test_character_orthogonality():
    for name in ["S3", "A4", "F5", "PSU(3,2)", "Aut(D9)"]:
        ring = fr.entry_ring(name)
        m = np.array([c.values for c in characters(ring)])
        gram = m @ m.conj().T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-6
        assert np.allclose(np.diag(gram).real,
                           [c.codegree for c in characters(ring)], atol=1e-8)


def test_spectral_report_json_keys():
    report = spectral_report(fr.entry_ring("S3"))
    data = report.to_json()
    assert set(data) == {"fpdims", "ringFPdim", "codegrees", "codegreeDims",
                        "inductionUnitProfile"}
    assert data["codegrees"] == [6, 3, 2]


def codegree_rings():
    """Commutative rings on which the two codegree methods are compared."""
    rings = {name: fr.entry_ring(name) for name in fr.list_catalog()
             if fr.load_entry(name).kind in ("characterTable", "modularDatum")}
    for factors in ([2], [3], [4], [2, 2], [6], [16]):
        rings["Z[" + "x".join(f"C{n}" for n in factors) + "]"] = group_ring(factors)
    for name in fr.list_catalog():
        if fr.load_entry(name).kind != "characterTable":
            continue
        for kappa in range(4):
            rings[f"R({name},{kappa})"] = construct(fr.entry_ring(name), kappa)
    ty = construct(group_ring([2, 2]), 0)
    rings["TY(C2xC2)"] = ty
    rings["R(TY,7)"] = construct(ty, 7)
    rings["Fib"] = fib_ring()
    rings["FibxFib"] = product_ring(fib_ring(), fib_ring())
    return rings


CODEGREE_RINGS = codegree_rings()


def assert_same_codegrees(got, want):
    """Integers equal, other values within 1e-9 relative, in the same order."""
    assert len(got) == len(want)
    for f, g in zip(got, want):
        snapped = snap_int(float(g))
        if snapped is not None:
            assert isinstance(f, int) and f == snapped
        else:
            assert f == pytest.approx(float(g), rel=1e-9)


def test_induction_unit_profile_matches_loop():
    # the loop over basis elements that the fancy index replaced
    for ring in CODEGREE_RINGS.values():
        want = np.zeros(ring.rank, dtype=np.int64)
        for i in range(ring.rank):
            want += ring.tensor[i, ring.dual[i]]
        assert induction_unit_profile(ring).tolist() == want.tolist()


@pytest.mark.parametrize("name", list(CODEGREE_RINGS))
def test_codegrees_match_characters(name):
    # Casimir eigenvalues against sum_i |chi(b_i)|^2 over the characters
    ring = CODEGREE_RINGS[name]
    want = sorted((c.codegree for c in characters(ring)), reverse=True)
    assert_same_codegrees(formal_codegrees(ring), want)


def test_codegrees_huge_kappa():
    # R(C1, k): codegrees 1 + d+-^2 with d+- the roots of t^2 - k t - 1
    kappa = 2 ** 32
    got = formal_codegrees(construct(group_ring([1]), kappa))
    assert [float(f) for f in got] == pytest.approx([kappa * kappa + 2.0, 1.0], rel=1e-12)


def test_codegrees_small_next_to_huge_kappa():
    # R(C3, 10^6): the three codegrees 3 of C3 stay integers next to one
    # of about 10^12
    got = formal_codegrees(construct(group_ring([3]), 10 ** 6))
    assert got[1:] == [3, 3, 3]
    assert sum(1 / float(f) for f in got) == pytest.approx(1.0, rel=1e-12)


def planted_codegrees(squares):
    """(formal_codegrees, planted squares as floats) of a fresh group ring of
    rank len(squares) whose svd is made to return the singular values
    sqrt(squares)."""
    singular = np.sqrt(np.array(squares, dtype=float))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", lambda a, compute_uv=True: singular.copy())
        got = formal_codegrees(group_ring([len(squares)]))
    return got, (singular ** 2).tolist()


OFFSETS = st.one_of(st.floats(-3e-6, 3e-6),
                    st.sampled_from([1e-6, -1e-6, 1.0000001e-6, -1.0000001e-6, 0.0]))
PLANTED = st.one_of(
    st.builds(lambda n, e: n + e, st.integers(1, 10 ** 6), OFFSETS),
    st.builds(lambda n: n + 0.5, st.integers(0, 10 ** 6)),
    st.builds(lambda n, e: 10 ** 12 + n + e, st.integers(8, 10), st.floats(-1e-3, 1e-3)),
    st.just(float("inf")),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(PLANTED, min_size=1, max_size=6))
def test_codegrees_snap_as_the_oracle(squares):
    # one exact._snaps call per ring gives what the per-value oracle gives:
    # its int where it snaps, else the float, sorted decreasing
    got, planted = planted_codegrees(squares)
    snapped = [snap_int(x) for x in planted]
    want = sorted([x if i is None else i for x, i in zip(planted, snapped)],
                  key=float, reverse=True)
    assert got == want and [type(f) for f in got] == [type(f) for f in want]


@pytest.mark.parametrize("square, snapped", [(2.0000001, 2), (2.00001, None), (2.1, None),
                                             (float("inf"), None), (float("nan"), None)],
                         ids=repr)
def test_planted_codegree_snaps(square, snapped):
    # the oracle's fixed cases that a codegree can meet; inf and nan stay floats
    got, planted = planted_codegrees([square])
    want = planted[0] if snapped is None else snapped
    assert type(got[0]) is type(want) and repr(got[0]) == repr(want)


def permuted(ring, perm):
    """The same ring on the basis reordered by perm, which fixes the unit."""
    n = ring.rank
    tensor = np.empty_like(ring.tensor)
    tensor[np.ix_(perm, perm, perm)] = ring.tensor
    labels, dual = [""] * n, [0] * n
    for i in range(n):
        labels[perm[i]] = ring.labels[i]
        dual[perm[i]] = int(perm[ring.dual[i]])
    return FusionRing(labels, tensor, dual)


@pytest.mark.parametrize("name", ["A4", "PSU(3,2)", "R(S3,2)", "R(TY,7)", "FibxFib"])
def test_codegrees_basis_permutation(name):
    ring = CODEGREE_RINGS[name]
    want = formal_codegrees(ring)
    rng = np.random.default_rng(5)
    for _ in range(5):
        perm = np.concatenate(([0], 1 + rng.permutation(ring.rank - 1)))
        got = formal_codegrees(permuted(ring, perm))
        assert [type(f) for f in got] == [type(f) for f in want]
        assert [float(f) for f in got] == pytest.approx([float(f) for f in want], rel=1e-12)


def test_eigenvector_certificate_does_not_wrap():
    # (2^32 + 1) 2^32 = 2^32 mod 2^64, so in int64 the identity would hold
    m = np.array([[2 ** 32 + 1]], dtype=np.int64)
    assert not _is_eigenvector(m, [2 ** 32], 1)
    assert _is_eigenvector(m, [2 ** 32], 2 ** 32 + 1)
    # a stack with one eigenvalue per matrix, as construct checks d_i d = N_i d
    ring = group_ring([2, 3])
    assert _is_eigenvector(ring.tensor, [1] * 6, [1] * 6)
    assert not _is_eigenvector(ring.tensor, [1] * 6, [1] * 5 + [2])


KAPPAS = (0, 1, 7, 10 ** 4, 10 ** 6, 10 ** 8, 2 ** 40)
EIGENVECTOR_RINGS = {
    **{f"catalog:{name}": lambda name=name: fr.entry_ring(name) for name in RING_VALUED},
    **LADDER,
    **{f"R({s},{k})": lambda s=s, k=k: construct(fr.entry_ring(s), k)
       for s in ("S3", "A4") for k in KAPPAS},
    **{f"R(C3,{k})": lambda k=k: construct(group_ring([3]), k) for k in KAPPAS},
}


def _built_or_refused(sub):
    try:
        return construct(sub, 1)
    except NotNearIntegral:
        return "refused"


@pytest.mark.parametrize("name", EIGENVECTOR_RINGS)
def test_perron_dims_match_the_power_iteration(name):
    # _perron_values (fpdims) is the reference: the Rayleigh quotients agree
    # with it, snap to the same integers wherever integral_subring or
    # construct certifies them, and give the same handle and ring
    ring = EIGENVECTOR_RINGS[name]()
    got, want = spectral._perron_dims(ring), fpdims(ring)
    assert np.all(np.abs(got - want) <= 1e-11 * want)
    new = [snap_int(float(d)) for d in got]
    old = [snap_int(float(d)) for d in want]
    handle, built = fr.integral_subring(ring), _built_or_refused(ring)
    assert all(new[i] == old[i] is not None for i in handle.indices)
    if built != "refused":
        assert new == old
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_perron_dims", fpdims)
        assert fr.integral_subring(ring) == handle
        assert _built_or_refused(ring) == built


@pytest.mark.parametrize("sub", ["C1", "C3", "S3"])
def test_irrational_fpdim_is_refused_either_way(sub):
    # FPdim(rho) of R(S, 2^40) is irrational but within an ulp of 2^40: the
    # power iteration's float is 2^40 exactly, the Rayleigh quotient's may be
    # a neighbour; construct rounds it and refuses it by its one exact check,
    # with the same message whichever float it got
    s = fr.entry_ring(sub) if sub == "S3" else group_ring([int(sub[1:])])
    ring = construct(s, 2 ** 40)
    assert snap_int(float(fpdims(ring)[-1])) == 2 ** 40
    assert abs(spectral._perron_dims(ring)[-1] - 2 ** 40) <= 2.0 ** -10
    with pytest.raises(NotNearIntegral, match=r", 1099511627776\] of the subring are not "
                                              r"a character$"):
        construct(ring, 0)
    assert fr.integral_subring(ring).indices == tuple(range(s.rank))


@pytest.mark.parametrize("order", [1, 3])
def test_perron_dims_past_the_int64_sum(order):
    # R(C_m, 2^63 - m) is an int64 ring, but sum_i c_{i rho}^rho = m + kappa
    # = 2^63 would wrap: the Perron dims sum S in float and still agree with
    # the power iteration, so the subring C_m is found integral
    ring = construct(group_ring([order]), 2 ** 63 - order)
    got, want = spectral._perron_dims(ring), fpdims(ring)
    assert np.all(np.abs(got - want) <= 1e-11 * want)
    assert fr.integral_subring(ring).indices == tuple(range(order))
