"""Near-integral structure detection/construction and Gagola analysis."""

import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fusionring as fr
from fusionring import core, spectral
from fusionring.core import (AxiomViolation, FusionRing, FusionRingError, group_ring,
                             product_ring, validate_tensor)
from fusionring.exact import EXACT_TOL, SNAP_TOL
from fusionring.nearintegral import (ExtensionObstructed, NearIntegralReport, NotNearIntegral,
                                     character_kernel, construct, detect,
                                     dim_a_chi_minus, distinguished_characters,
                                     extend_character, extraspecial_kappa,
                                     gagola_analyze, near_integral_codegrees,
                                     roots_dpm, subring_on)
from fusionring.spectral import NotCommutative
from fusionring.structure import SubringHandle, _first_escape, enumerate_subrings
from shared_rings import agl1_table, refuse, s3_group_ring, snap_int


def test_roots():
    dp, dm = roots_dpm(7, 8)
    assert (dp, dm) == (8.0, -1.0)
    dp, dm = roots_dpm(0, 4)
    assert (dp, dm) == (2.0, -2.0)


def test_construct_tambara_yamagami():
    ring = construct(group_ring([2, 2]), 0)
    assert ring.rank == 5
    rho = 4
    assert ring.tensor[rho, rho, rho] == 0
    assert all(ring.tensor[rho, rho, j] == 1 for j in range(4))


def test_detect_on_construct():
    sub = group_ring([2, 2])
    ring = construct(sub, 0)
    report = detect(ring)
    assert report is not None
    assert report.kappa == 0 and report.big_n == 4
    assert report.subring_indices == (0, 1, 2, 3)


def test_psu32_tower():
    # R(R(ZC2^2, 0), 7) is the character ring of PSU(3,2)
    ty = construct(group_ring([2, 2]), 0)
    big = construct(ty, 7)
    report = detect(big)
    assert (report.kappa, report.big_n) == (7, 8)
    assert (report.d_plus, report.d_minus) == (8.0, -1.0)
    assert report.d_plus_exact_integer
    assert dim_a_chi_minus(report) == pytest.approx(8.0, abs=1e-9)
    assert near_integral_codegrees(big, report) == [72, 9, 8, 4, 4, 4]
    # and it really is Grothendieck-equivalent to the character ring
    psu = fr.entry_ring("PSU(3,2)")
    assert fr.formal_codegrees(psu) == [72, 9, 8, 4, 4, 4]


def test_detect_character_rings():
    expected = {"C2": 0, "S3": 1, "A4": 2, "D4": 0, "Q8": 0, "F5": 3,
                "PSU(3,2)": 7, "Aut(D9)": 3,
                "SmallGroup(32,7)": 0, "SmallGroup(32,8)": 0,
                "SmallGroup(32,44)": 0}
    for name, kappa in expected.items():
        report = detect(fr.entry_ring(name))
        assert report is not None, name
        assert report.kappa == kappa, name


def test_detect_none_on_group_ring():
    # ZC3 has no rank-2 subring at all, so no near-integral structure
    assert detect(group_ring([3])) is None


def _refused(tensor, dual):
    """The violations FusionRing's constructor refuses tensor with, which
    must be validate_tensor's list."""
    with pytest.raises(AxiomViolation) as refused:
        FusionRing(["1", "g", "rho"], tensor, dual)
    assert refused.value.violations == validate_tensor(tensor, dual)
    return refused.value.violations


@pytest.mark.parametrize("g_rho", [[0, 1, 1], [0, 0, 0]])
def test_detect_rejects_wrong_x_times_rho(g_rho):
    # R(C2, 1) with g * rho changed from rho to g + rho or to 0: the
    # complement {1, g} is still closed with integer dimensions and rho^2 is
    # still kappa rho + 1 + g. Only the old scan's x * rho = FPdim(x) rho
    # test rejected it; now the constructor refuses it, so detect never sees it
    tensor = construct(group_ring([2]), 1).tensor.copy()
    tensor[1, 2] = g_rho
    assert _scan_detect_oracle(tensor, [0, 1, 2]) is None
    assert any(name == "frobenius" for name, _, _ in _refused(tensor, [0, 1, 2]))


def test_detect_rejects_open_complement():
    # R(C2, 1) with g * g changed from 1 to 1 + rho: x * rho = FPdim(x) rho
    # and rho^2 = kappa rho + 1 + g still hold, so only the closure test
    # rejects it; now the constructor refuses it, so detect never sees it
    tensor = construct(group_ring([2]), 1).tensor.copy()
    tensor[1, 1, 2] = 1
    assert _scan_detect_oracle(tensor, [0, 1, 2]) is None
    assert any(name == "frobenius" for name, _, _ in _refused(tensor, [0, 1, 2]))


def test_construct_kappa_bounds():
    # 2^63 - 1 still fits in int64, and associativity is then checked in
    # Python integers since kappa^2 overflows int64
    ring = construct(group_ring([1]), 2 ** 63 - 1)
    assert ring.tensor[1, 1, 1] == 2 ** 63 - 1
    with pytest.raises(FusionRingError, match="does not fit in int64"):
        construct(group_ring([1]), 2 ** 63)
    with pytest.raises(FusionRingError, match="must be nonnegative"):
        construct(group_ring([1]), -1)


def test_round_trip_small_kappas():
    for factors in ([2], [3], [2, 2], [4]):
        sub = group_ring(factors)
        n = sub.rank
        for kappa in range(4):
            ring = construct(sub, kappa)
            report = detect(ring)
            assert report is not None
            assert report.kappa == kappa
            assert report.big_n == n
            assert report.subring_indices == tuple(range(n))


def test_distinguished_characters_and_kernel():
    sub = group_ring([2, 2])
    ring = construct(construct(sub, 0), 7)
    report = detect(ring)
    chi_plus, chi_minus = distinguished_characters(ring, report)
    assert chi_plus[report.rho_index].real == pytest.approx(8.0)
    assert chi_minus[report.rho_index].real == pytest.approx(-1.0)
    kernel, closed = character_kernel(ring, chi_minus)
    assert kernel == report.subring_indices
    assert closed


def test_extend_character():
    sub = fr.entry_ring("S3")
    ring = construct(sub, 1)
    report = detect(ring)
    chars = fr.characters(sub)
    # any non-FPdim character of S extends by zero at rho
    ext = extend_character(ring, report, chars[1].values)
    assert ext[report.rho_index] == 0
    # the FPdim character of S does not extend by zero
    with pytest.raises(ExtensionObstructed):
        extend_character(ring, report, chars[0].values)


@pytest.mark.parametrize("extra", [-1, 0, 1, 2], ids=["short", "full", "long", "long2"])
def test_value_vectors_need_one_value_per_basis_element(extra):
    # R(C2, 1): S = {1, g} and rho = 2
    ring = construct(group_ring([2]), 1)
    report = detect(ring)
    sign = [1, -1, 99, 98][:2 + extra]
    dims = (spectral.fpdims(ring).tolist() + [5, 6])[:3 + extra]
    if extra == 0:
        assert extend_character(ring, report, sign).tolist() == [1, -1, 0]
        assert character_kernel(ring, dims) == ((0, 1, 2), True)
        return
    with pytest.raises(FusionRingError,
                       match="^extend_character expects one value per subring basis element$"):
        extend_character(ring, report, sign)
    with pytest.raises(FusionRingError,
                       match="^character_kernel expects one value per basis element$"):
        character_kernel(ring, dims)


def test_character_kernel_of_a_non_character_need_not_be_closed():
    # [1, 0, 2] agrees with FPdim on {1, chi2} of Rep(S3), which is not
    # closed (chi2^2 = 1 + sign + chi2); the vector is not checked to be a
    # character, and its kernel is reported open
    assert character_kernel(fr.entry_ring("S3"), [1, 0, 2]) == ((0, 2), False)


def test_subring_on_rejects_open_sets():
    ring = fr.entry_ring("S3")
    with pytest.raises(fr.FusionRingError):
        subring_on(ring, (0, 2))  # 2 (x) 2 escapes


def test_gagola_values():
    expected = {"C2": 0, "S3": 1, "A4": 2, "D4": 0, "Q8": 0, "F5": 3,
                "PSU(3,2)": 7, "Aut(D9)": 3,
                "SmallGroup(32,7)": 0, "SmallGroup(32,8)": 0,
                "SmallGroup(32,44)": 0}
    for name, kappa in expected.items():
        report = gagola_analyze(fr.load_entry(name).payload)
        assert report is not None, name
        assert report.kappa == kappa, name


def test_gagola_rho_is_largest_degree():
    table = fr.load_entry("PSU(3,2)").payload
    report = gagola_analyze(table)
    assert table.degrees[report.rho_row] == 8


AGL_PRIMES = (3, 5, 7, 11, 13)


def test_gagola_kappa_is_the_self_coupling():
    # gagola_analyze neither refuses kappa = 2d - |G|/d < 0 nor compares it
    # with c_{rho rho}^rho: on a validated table column orthogonality gives
    # both; checked on the catalog tables and on AGL(1, p)
    tables = {name: fr.load_entry(name).payload for name in _catalog_tables()}
    tables.update({f"AGL(1,{p})": agl1_table(p) for p in AGL_PRIMES})
    for name, table in tables.items():
        report = gagola_analyze(table)
        rho = report.rho_row
        assert report.kappa >= 0, name
        ring = core.character_table_to_fusion_ring(table)
        assert report.kappa == ring.tensor[rho, rho, rho], name
    assert len(tables) == 16


@pytest.mark.parametrize("p", AGL_PRIMES)
def test_agl1_is_near_integral(p):
    # the degree p - 1 character of AGL(1, p) vanishes off the identity and
    # the translations: kappa = 2(p - 1) - p = p - 2 and N = p - 1
    table = agl1_table(p)
    report = gagola_analyze(table)
    assert (report.rho_row, report.kappa, report.vanishing_classes) == (p - 1, p - 2, p - 2)
    near = detect(core.character_table_to_fusion_ring(table))
    assert (near.rho_index, near.kappa, near.big_n) == (p - 1, p - 2, p - 1)


def test_integral_d_plus_forces_kappa_below_n():
    # detect has no "kappa >= N with d+ integral" flag: kappa^2 + 4N = m^2
    # with N >= 1 gives m > kappa and m = kappa mod 2, so m = kappa + 2t and
    # N = t (kappa + t) > kappa; checked for N <= 500 and kappa <= 1000
    kappa = np.arange(1001)[:, None]
    big_n = np.arange(1, 501)[None, :]
    disc = kappa * kappa + 4 * big_n
    root = np.rint(np.sqrt(disc)).astype(np.int64)
    square = root * root == disc
    pairs = {(int(k), int(n)) for k, n in zip(*np.nonzero(square))}
    assert {(k, n + 1) for k, n in pairs} == {
        (k, t * (k + t)) for k in range(1001) for t in range(1, 23) if t * (k + t) <= 500}
    assert (kappa < big_n)[square].all()


def test_extraspecial_31():
    assert extraspecial_kappa(3, 1) == (3, 18, 6)


def test_extraspecial_identity():
    for p in (3, 5, 7):
        for n in (1, 2):
            kappa, big_n, d_plus = extraspecial_kappa(p, n)
            assert d_plus * d_plus - kappa * d_plus - big_n == 0
            assert d_plus == p ** n * (p - 1)


def test_detect_d_plus_integrality_is_exact():
    # d+ = 10^8 + 1e-8 lies within a float snap of an integer, but
    # kappa^2 + 4N = 10^16 + 4 is no square, so d+ is irrational
    report = detect(construct(group_ring([1]), 10 ** 8))
    assert not report.d_plus_exact_integer
    assert not any("d+ integral" in f for f in report.flags)


@pytest.mark.parametrize("kappa", [10 ** 4, 10 ** 6, 10 ** 8])
def test_d_minus_stable_at_large_kappa(kappa):
    # (kappa - sqrt(kappa^2 + 4N)) / 2 cancels here; the true root is
    # -N / d+, which a 40-digit Decimal evaluation of the closed form confirms
    report = detect(construct(group_ring([1]), kappa))
    n, dp, dm = report.big_n, report.d_plus, report.d_minus
    assert abs(dm - -n / dp) <= 1e-15 * abs(dm)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = (Decimal(kappa) - (Decimal(kappa) ** 2 + 4 * n).sqrt()) / 2
    assert abs(Decimal(dm) - exact) <= Decimal(1e-15) * abs(exact)
    assert dim_a_chi_minus(report) == pytest.approx(1 + kappa * dp / n, rel=1e-15)


# (18, 3, 6) is extraspecial_kappa(3, 1): kappa = 3, N = 18, d+ = 6
@pytest.mark.parametrize("big_n, kappa, d_plus", [(2, 1, 2), (18, 3, 6)],
                         ids=["R(C2,1)", "extraspecial(3,1)"])
def test_detect_d_plus_integral(big_n, kappa, d_plus):
    report = detect(construct(group_ring([big_n]), kappa))
    assert (report.kappa, report.big_n) == (kappa, big_n)
    assert report.d_plus_exact_integer and report.d_plus == d_plus


def test_extraspecial_rejects_bad_p():
    with pytest.raises(ValueError):
        extraspecial_kappa(4, 1)
    with pytest.raises(ValueError):
        extraspecial_kappa(2, 1)
    with pytest.raises(ValueError, match="^n must be positive$"):
        extraspecial_kappa(3, 0)


def test_near_integral_codegrees_s3():
    # R(Rep(S3) ring? no: the rank-2 subring of Rep(S3) is ZC2, kappa = 1
    report = detect(fr.entry_ring("S3"))
    codegs = near_integral_codegrees(fr.entry_ring("S3"), report)
    assert codegs == [6, 3, 2]


@pytest.mark.parametrize("order, kappa", [(1, 10 ** 8), (3, 10 ** 6)])
def test_near_integral_codegrees_irrational_stay_floats(order, kappa):
    # N + d+-^2 is irrational here, yet lies within a float snap of an
    # integer: 10^16 + 3 - 1e-16 and 1 + 1e-16, 10^12 + 9 - 9e-12 and
    # 3 + 9e-12; 50-digit Decimal values of the closed form confirm them
    ring = construct(group_ring([order]), kappa)
    got = near_integral_codegrees(ring, detect(ring))
    with localcontext() as ctx:
        ctx.prec = 50
        root = (Decimal(kappa) ** 2 + 4 * order).sqrt()
        want = [order + ((kappa + sign * root) / 2) ** 2 for sign in (1, -1)]
        assert [type(c) for c in got[:2]] == [float, float]
        assert all(abs(Decimal(c) - w) <= w * Decimal(2) ** -50
                   for c, w in zip(got[:2], want))
    assert got[2:] == [order] * (order - 1)


@pytest.mark.parametrize("sub, kappa, want", [([3], 0, [6, 6, 3, 3]), ([2], 1, [6, 3, 2]),
                                              ([3], 2, [12, 4, 3, 3])])
def test_near_integral_codegrees_integral_pair_in_ints(sub, kappa, want):
    # kappa = 0 (d+- = +-sqrt(3) irrational) or kappa^2 + 4N a square: the
    # pair 2N + kappa d+- is computed in Python ints
    ring = construct(group_ring(sub), kappa)
    got = near_integral_codegrees(ring, detect(ring))
    assert got == want and all(type(c) is int for c in got)


def _restricted_near_integral_codegrees(ring: FusionRing, report: NearIntegralReport) -> list:
    """near_integral_codegrees as it was while it took the formal codegrees
    of a restricted copy of S, kept verbatim as an oracle."""
    sub_codegs = spectral.formal_codegrees(subring_on(ring, report.subring_indices))
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


def test_near_integral_codegrees_read_in_place_match_a_restricted_copy():
    # S's Casimir matrix read from the ring gives the codegrees of the
    # restricted copy, values and int/float types, on R(S, kappa) for every
    # catalog table and datum ring S (all 13 have integral FPdims)
    subs = [ring for name, ring in _base_rings().items() if name in fr.list_catalog()]
    rings = [construct(sub, kappa) for sub in subs for kappa in (0, 1, 7, 1001, 3001, 10 ** 6)]
    rings += [construct(group_ring([3]), 10 ** 6), construct(group_ring([162]), 9),
              construct(group_ring([1]), 2 ** 62)]
    for ring in rings:
        report = detect(ring)
        got = near_integral_codegrees(ring, report)
        want = _restricted_near_integral_codegrees(ring, report)
        assert [(type(c), c) for c in got] == [(type(c), c) for c in want], ring.labels
    assert len(rings) == 6 * 13 + 3
    with pytest.raises(NotCommutative, match="^formal codegrees require a commutative"):
        ring = construct(s3_group_ring(), 2)
        near_integral_codegrees(ring, detect(ring))


def test_near_integral_codegrees_do_not_reverify_the_subring(monkeypatch):
    # detect reports S only once it is closed, so the restriction to S is
    # not checked again; subring_on, which takes indices from outside, is
    rings = [construct(fr.entry_ring(name), kappa)
             for name in _catalog_tables() for kappa in range(3)]
    reports = [detect(ring) for ring in rings]
    want = [near_integral_codegrees(ring, report) for ring, report in zip(rings, reports)]
    monkeypatch.setattr(SubringHandle, "verify", refuse)
    assert [near_integral_codegrees(ring, report)
            for ring, report in zip(rings, reports)] == want
    with pytest.raises(AssertionError, match="not to be called"):
        subring_on(rings[0], reports[0].subring_indices)
    assert len(want) == 3 * len(_catalog_tables())


def _float_detect(ring: FusionRing):
    """detect as it was while it read FPdims by power iteration and snapped
    them, kept verbatim as an oracle."""
    n = ring.rank
    dims = spectral.fpdims(ring)
    for rho in range(1, n):
        if ring.dual[rho] != rho:
            continue
        comp = [i for i in range(n) if i != rho]
        if _first_escape(ring.support, comp) is not None:
            continue
        sub_dims = [snap_int(dims[i]) for i in comp]
        if None in sub_dims:
            continue
        # x * rho = FPdim(x) rho for x in the subring
        rows = ring.tensor[comp, rho]
        if (rows[:, rho] != sub_dims).any() or rows[:, comp].any():
            continue
        # rho^2 = kappa rho + sum FPdim(x) x
        sq = ring.tensor[rho, rho]
        if any(int(sq[i]) != d for i, d in zip(comp, sub_dims)):
            continue
        kappa = int(sq[rho])
        big_n = int(sum(d * d for d in sub_dims))
        d_plus, d_minus = roots_dpm(kappa, big_n)
        disc = kappa * kappa + 4 * big_n
        exact = math.isqrt(disc) ** 2 == disc
        flags = []
        if not exact and kappa % big_n != 0:
            flags.append("categorification-screen: d+ irrational and N does not divide kappa")
        if exact and kappa >= big_n:
            flags.append(f"kappa = {kappa} >= N = {big_n} with d+ integral")
        if abs(dims[rho] - d_plus) > SNAP_TOL * max(1.0, d_plus):
            flags.append(f"FPdim(rho) = {dims[rho]} differs from d+ = {d_plus}")
        return NearIntegralReport(tuple(comp), rho, kappa, big_n,
                                  d_plus, d_minus, exact, tuple(flags))
    return None


@functools.lru_cache(maxsize=None)
def _base_rings() -> dict:
    """Every ring-valued catalog entry, C1..C16 and C2^3."""
    rings = {name: fr.entry_ring(name) for name in fr.list_catalog()
             if fr.load_entry(name).kind in ("characterTable", "modularDatum")}
    rings.update({f"C{n}": group_ring([n]) for n in range(1, 17)})
    rings["C2^3"] = group_ring([2, 2, 2])
    return rings


@functools.lru_cache(maxsize=None)
def _oracle_rings() -> dict:
    """The base rings, R(S, 0..3) over each of rank <= 9, two Deligne
    products, and R(C1 or C3, kappa) at large kappa."""
    rings = dict(_base_rings())
    for name, sub in _base_rings().items():
        if sub.rank <= 9:
            rings.update({f"R({name},{k})": construct(sub, k) for k in range(4)})
    fib = construct(group_ring([1]), 1)
    rings["FibxFib"] = product_ring(fib, fib)
    rings["S3xA4"] = product_ring(fr.entry_ring("S3"), fr.entry_ring("A4"))
    for order in (1, 3):
        for kappa in (10 ** 4, 10 ** 6, 10 ** 8, 2 ** 40):
            rings[f"R(C{order},{kappa})"] = construct(group_ring([order]), kappa)
    return rings


def test_detect_matches_float_fpdim_oracle():
    rings = _oracle_rings()
    got = {name: detect(r) for name, r in rings.items()}
    want = {name: _float_detect(r) for name, r in rings.items()}
    assert {k: v and v.to_json() for k, v in got.items()} == {
        k: v and v.to_json() for k, v in want.items()}
    assert (len(rings), sum(v is not None for v in got.values())) == (107, 87)


def _scan_detect_oracle(tensor, dual):
    """detect's scan as it was while it also tested x * rho = d_x rho and
    d_x = c_{rho rho}^x >= 1 on tensors that were not checked, kept as an
    oracle: (rho, kappa, N) of the first rho found, or None."""
    n = len(tensor)
    for rho in range(1, n):
        if dual[rho] != rho:
            continue
        comp = [i for i in range(n) if i != rho]
        sq = tensor[rho, rho]
        rows = tensor[comp, rho]
        dims = sq[comp]
        if (rows[:, comp].any() or (rows[:, rho] != dims).any() or (dims < 1).any()
                or tensor[:, :, rho][np.ix_(comp, comp)].any()):
            continue
        return rho, int(sq[rho]), sum(int(d) ** 2 for d in dims)
    return None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_oracle_rings())), st.data())
def test_closure_scan_matches_the_full_scan(name, data):
    # on a fusion ring the closure implies the other tests, so detect's
    # closure-only scan finds what the full scan finds, in any basis order
    ring = _oracle_rings()[name]
    p = [0] + data.draw(st.permutations(range(1, ring.rank)))
    inverse = np.argsort(p)
    tensor = ring.tensor[np.ix_(p, p, p)]
    dual = [int(inverse[ring.dual[i]]) for i in p]
    relabeled = FusionRing([ring.labels[i] for i in p], tensor, dual)
    report = detect(relabeled)
    got = report and (report.rho_index, report.kappa, report.big_n)
    assert got == _scan_detect_oracle(tensor, dual), name


def test_detect_on_character_rings_finds_the_gagola_character():
    # the two detectors agree on every catalog table: the rho row and kappa
    # of gagola_analyze are those detect finds on the character ring
    want = {"C2": (1, 0), "S3": (2, 1), "A4": (3, 2), "D4": (4, 0), "Q8": (4, 0),
            "F5": (4, 3), "PSU(3,2)": (5, 7), "Aut(D9)": (9, 3),
            "SmallGroup(32,7)": (10, 0), "SmallGroup(32,8)": (10, 0),
            "SmallGroup(32,44)": (10, 0)}
    got = {}
    for name in _catalog_tables():
        table = fr.load_entry(name).payload
        gagola = gagola_analyze(table)
        near = detect(core.character_table_to_fusion_ring(table))
        assert (near.rho_index, near.kappa) == (gagola.rho_row, gagola.kappa), name
        got[name] = (gagola.rho_row, gagola.kappa)
    assert got == want


def test_detect_and_chi_pm_compute_no_fpdims(monkeypatch):
    ring = construct(construct(group_ring([2, 2]), 0), 7)  # R(TY(C2xC2), 7)
    monkeypatch.setattr(spectral, "fpdims", refuse)
    report = detect(ring)
    chi_plus, chi_minus = distinguished_characters(ring, report)
    assert (report.kappa, report.big_n, report.d_plus, report.d_minus) == (7, 8, 8.0, -1.0)
    assert chi_plus.tolist() == [1, 1, 1, 1, 2, 8]
    assert chi_minus.tolist() == [1, 1, 1, 1, 2, -1]


def test_restrictions_and_products_are_fusion_rings(monkeypatch):
    # neither subring_on nor product_ring validates; both must still give
    # rings that pass every axiom
    rings = list(_oracle_rings().values())
    small = [r for r in _base_rings().values() if r.rank <= 8]
    handles = [(r, h.indices) for r in rings for h in enumerate_subrings(r)]
    monkeypatch.setattr(core, "validate_tensor", refuse)
    restricted = [subring_on(r, idx) for r, idx in handles]
    products = [product_ring(a, b) for i, a in enumerate(small) for b in small[i:]]
    monkeypatch.undo()
    for ring in restricted + products:
        assert validate_tensor(ring.tensor, ring.dual) == [], ring.labels
    assert (len(restricted), len(products)) == (568, 136)


def test_invalid_rings_are_refused_before_restriction_or_product():
    # subring_on and product_ring take only rings, and an invalid tensor
    # is refused when its ring is built, so neither ever sees one
    tensor = construct(group_ring([2]), 1).tensor.copy()
    tensor[1, 1, 2] = 1  # g * g = 1 + rho breaks Frobenius reciprocity
    assert any(name == "frobenius" for name, _, _ in _refused(tensor, [0, 1, 2]))


def _validated_construct(sub: FusionRing, kappa: int) -> FusionRing:
    """construct as it was while it validated R(S, kappa) instead of
    certifying the FPdims of S, kept as an oracle (kappa bounds left out)."""
    n = sub.rank
    dims = [snap_int(d) for d in spectral.fpdims(sub)]
    if None in dims:
        raise NotNearIntegral("the subring must have integer dimensions")
    rho = n
    t = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    t[:n, :n, :n] = sub.tensor
    t[:n, rho, rho] = t[rho, :n, rho] = t[rho, rho, :n] = dims
    t[rho, rho, rho] = kappa
    rho_label = "rho"
    k = 2
    while rho_label in sub.labels:
        rho_label = f"rho{k}"
        k += 1
    return FusionRing(list(sub.labels) + [rho_label], t, list(sub.dual) + [rho])


def _outcome(build, sub, kappa, refusals):
    try:
        return build(sub, kappa)
    except refusals:
        return "refused"


def test_construct_is_unchecked_and_matches_validated_oracle(monkeypatch):
    # the oracle refuses snapped FPdims that are not a character, such as
    # those of R(C1, 10^8), by AxiomViolation, and construct by NotNearIntegral
    cases = [(sub, k) for sub in _oracle_rings().values() for k in range(4)]
    want = [_outcome(_validated_construct, sub, k, (NotNearIntegral, AxiomViolation))
            for sub, k in cases]
    monkeypatch.setattr(core, "validate_tensor", refuse)
    got = [_outcome(construct, sub, k, NotNearIntegral) for sub, k in cases]
    monkeypatch.undo()
    assert got == want
    built = [ring for ring in got if ring != "refused"]
    for ring in built:
        assert validate_tensor(ring.tensor, ring.dual) == [], ring.labels
    assert (len(cases), len(built)) == (428, 184)


def test_construct_rejects_dimensions_that_are_not_a_character(monkeypatch):
    # [1, 1, 3] are integers but chi2^2 = 1 + chi1 + chi2 gives 5 != 9
    monkeypatch.setattr(spectral, "_perron_dims", lambda ring: np.array([1.0, 1.0, 3.0]))
    with pytest.raises(NotNearIntegral, match=r"\[1, 1, 3\] of the subring are not a character"):
        construct(fr.entry_ring("S3"), 1)


def test_construct_certificate_in_python_ints():
    # FPdim(x) = (2^62 + sqrt(2^124 + 4)) / 2 of R(C1, 2^62) snaps to the
    # integer 2^62; the identity, checked on object arrays, refuses it
    sub = construct(group_ring([1]), 2 ** 62)
    with pytest.raises(NotNearIntegral, match="not a character"):
        construct(sub, 0)


def test_codegree_bookkeeping_and_dim_a_chi_minus_forms_agree():
    # near_integral_codegrees and dim_a_chi_minus evaluate one closed form
    # each; the whole ring's codegrees and the other two forms of
    # dim(A_chi-) must agree with them on every near-integral oracle ring
    compared = 0
    for name, ring in _oracle_rings().items():
        report = detect(ring)
        if report is None:
            continue
        k, n, dp, dm = report.kappa, report.big_n, report.d_plus, report.d_minus
        val = dim_a_chi_minus(report)
        for alt in (-dp / dm, (2 * n + k * dp) / (2 * n + k * dm)):
            assert abs(val - alt) <= EXACT_TOL * max(1.0, val), name
        if ring.is_commutative():
            got = near_integral_codegrees(ring, report)
            direct = spectral.formal_codegrees(ring)
            assert len(got) == len(direct), name
            assert all(abs(float(a) - float(b)) <= SNAP_TOL * max(1.0, abs(float(a)))
                       for a, b in zip(direct, got)), name
            compared += 1
    assert compared == 87


def _catalog_tables() -> list:
    return [name for name in fr.list_catalog() if fr.load_entry(name).kind == "characterTable"]


@pytest.mark.parametrize("name", _catalog_tables())
def test_distinguished_characters_are_multiplicative(name):
    # distinguished_characters checks nothing; chi+- are characters of
    # R(S, kappa) by the paper's theorem, checked here within the bound the
    # run-time check used: sum_k c_ij^k chi(b_k) = chi(b_i) chi(b_j)
    sub = fr.entry_ring(name)
    for kappa in range(6):
        ring = construct(sub, kappa)
        report = detect(ring)
        tensor = ring.tensor.astype(float)
        chi_pm = distinguished_characters(ring, report)
        assert [chi[report.rho_index] for chi in chi_pm] == [report.d_plus, report.d_minus]
        for chi in chi_pm:
            defect = np.abs(tensor @ chi - np.outer(chi, chi)).max()
            assert defect <= EXACT_TOL * max(1.0, np.abs(chi).max() ** 2), (name, kappa)
