"""Verlinde fusion, balancing, Gauss sums, quadratic forms, braided cases."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fusionring as fr
from fusionring.exact import RootOfUnity
from fusionring.core import FusionRing, FusionRingError
from fusionring.premodular import (ModularDatum, NegativeFusion, NonIntegralFusion,
                                   QuadraticForm, balancing_check,
                                   braided_cases, centralizer_profile, form_classes,
                                   form_from_json, form_nondegenerate,
                                   form_to_json, gauss_sums,
                                   modular_datum_from_json, modular_datum_to_json,
                                   quadratic_forms, verlinde_fusion)

DOUBLES = {"Z(Rep(S3))": 36.0, "Z(Rep(A4))": 144.0}


@pytest.mark.parametrize("name,gdim", sorted(DOUBLES.items()))
def test_verlinde_integral(name, gdim):
    m = fr.load_entry(name).payload
    ring, info = verlinde_fusion(m)
    assert info["globalDim"] == pytest.approx(gdim, abs=1e-9)
    assert info["maxSnapError"] < 1e-9
    assert ring.tensor.min() >= 0


@pytest.mark.parametrize("name", sorted(DOUBLES))
def test_balancing_clean(name):
    m = fr.load_entry(name).payload
    ring, _ = verlinde_fusion(m)
    assert balancing_check(ring, m) == []


@pytest.mark.parametrize("name", sorted(DOUBLES))
def test_balancing_breaks_under_twist_perturbation(name):
    m = fr.load_entry(name).payload
    ring, _ = verlinde_fusion(m)
    rng = np.random.default_rng(7)
    for _ in range(5):
        i = int(rng.integers(1, ring.rank))
        t = list(m.t)
        t[i] = t[i] * RootOfUnity(1, 5)  # multiply one twist by zeta_5
        broken = ModularDatum(m.s, tuple(t))
        assert len(balancing_check(ring, broken)) >= 1


def loop_verlinde_fusion(m, tol=1e-9, snap=1e-6):
    """Reference: the Verlinde ring snapped one cell at a time, with the
    charge-conjugation dual found row by row."""
    m.validate(tol)
    n = m.rank
    d = m.global_dim
    s = m.s / math.sqrt(d)
    tensor = np.einsum("it,jt,kt,t->ijk", s, s, s.conj(), 1.0 / s[0])
    max_err = 0.0
    out = np.zeros((n, n, n), dtype=np.int64)
    for i, j, k in itertools.product(range(n), repeat=3):
        v = tensor[i, j, k]
        r = round(v.real)
        err = abs(v - r)
        max_err = max(max_err, err)
        if err > snap:
            raise NonIntegralFusion(
                f"N[{i}][{j}][{k}] = {v} is not an integer (defect {err})")
        if r < 0:
            raise NegativeFusion(f"N[{i}][{j}][{k}] = {r} is negative")
        out[i, j, k] = r
    c = (s @ s).real
    dual = []
    for i in range(n):
        hits = [j for j in range(n) if abs(c[i, j] - 1) < 1e-6]
        if len(hits) != 1 or not np.allclose(np.abs(m.s[i] - m.s[hits[0]].conj()), 0, atol=1e-6):
            raise FusionRingError(f"charge conjugation row {i} does not snap to a permutation")
        dual.append(hits[0])
    ring = FusionRing.validated([f"X{i}" for i in range(n)], out, dual)
    return ring, {"maxSnapError": float(max_err)}


def verlinde_outcome(build, m):
    """(ring, maxSnapError), or the exception class and message."""
    try:
        ring, info = build(m)
        return ring, info["maxSnapError"]
    except FusionRingError as exc:
        return type(exc), str(exc)


def nudged(m, a, b, delta):
    """m with S[a][b] and S[b][a] both moved by delta (S stays symmetric)."""
    s = m.s.copy()
    s[a, b] += delta
    s[b, a] = s[a, b]
    return ModularDatum(s, m.t)


@pytest.mark.parametrize("m", [
    *(fr.load_entry(name).payload for name in sorted(DOUBLES)),
    # below the snap width: maxSnapError is a defect of about 3e-8 whose
    # last bit depends on how |N - round(N)| is rounded
    nudged(fr.load_entry("Z(Rep(A4))").payload, 1, 1, 3e-7),
    ModularDatum([[1, 1], [1, -3]], (RootOfUnity(0, 1),) * 2),  # N[0][0][1] = -1
    ModularDatum([[1, 1], [1, -3.4]], (RootOfUnity(0, 1),) * 2),  # N[0][0][1] = -1.2
    ModularDatum([[1, 1], [1, 1]], (RootOfUnity(0, 1),) * 2),  # two charge conjugates
], ids=[*sorted(DOUBLES), "sub-snap", "negative", "negative-non-integer", "two-conjugates"])
def test_verlinde_matches_loop(m):
    assert verlinde_outcome(verlinde_fusion, m) == verlinde_outcome(loop_verlinde_fusion, m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DOUBLES)), st.data())
def test_perturbed_verlinde_matches_loop(name, data):
    """S[a][b] and S[b][a] moved by the same real or imaginary amount, or
    their signs flipped."""
    m = fr.load_entry(name).payload
    a, b = (data.draw(st.integers(0, m.rank - 1)) for _ in range(2))
    if data.draw(st.booleans()):
        delta = -2 * m.s[a, b]
    else:
        delta = data.draw(st.floats(1e-6, 0.5)) * data.draw(st.sampled_from([1, -1, 1j, -1j]))
    broken = nudged(m, a, b, delta)
    want = verlinde_outcome(loop_verlinde_fusion, broken)
    assert verlinde_outcome(verlinde_fusion, broken) == want


def test_balancing_matches_loop():
    m = fr.load_entry("Z(Rep(S3))").payload
    ring, _ = verlinde_fusion(m)
    t = list(m.t)
    t[3] = t[3] * RootOfUnity(1, 5)
    broken = ModularDatum(m.s, tuple(t))
    d, theta = broken.dims, broken.twist_values()
    rhs = np.einsum("ijk,k->ij", ring.tensor.astype(float), d * theta)
    rhs = rhs / theta[:, None] / theta[None, :]
    scale = max(1.0, float(np.abs(broken.s).max()))
    want = []
    for i in range(ring.rank):
        for j in range(ring.rank):
            err = abs(broken.s[i, j] - rhs[i, j])
            if err > 1e-6 * scale:
                want.append((i, j, float(err)))
    assert want and balancing_check(ring, broken) == want


@pytest.mark.parametrize("name,gdim", sorted(DOUBLES.items()))
def test_gauss_sums(name, gdim):
    m = fr.load_entry(name).payload
    plus, minus = gauss_sums(m.dims, m.twist_values())
    assert abs(plus * minus - gdim) < 1e-6


@pytest.mark.parametrize("name", sorted(DOUBLES))
def test_centralizer_trivial(name):
    m = fr.load_entry(name).payload
    _, candidates = centralizer_profile(m)
    assert tuple(candidates) == (0,)


@pytest.mark.parametrize("name", sorted(DOUBLES))
def test_fpdims_match_s_row(name):
    m = fr.load_entry(name).payload
    ring, _ = verlinde_fusion(m)
    assert np.allclose(fr.fpdims(ring), m.dims, atol=1e-8)


def test_modular_datum_json_round_trip():
    m = fr.load_entry("Z(Rep(S3))").payload
    back = modular_datum_from_json(modular_datum_to_json(m))
    assert np.allclose(back.s, m.s, atol=1e-12)
    assert back.t == m.t


def test_form_counts():
    assert len(quadratic_forms([2])) == 4
    assert len(quadratic_forms([3])) == 3
    assert len(quadratic_forms([9])) == 9
    assert len(quadratic_forms([3, 3])) == 27


def test_form_class_counts():
    assert len(form_classes([9])) == 5
    assert len(form_classes([3, 3])) == 5
    assert len(form_classes([2])) == 4
    # inversion fixes every form on C3, so all three forms are inequivalent
    assert len(form_classes([3])) == 3


def test_forms_verify_and_are_distinct():
    forms = quadratic_forms([4])
    keys = {f.key() for f in forms}
    assert len(keys) == len(forms)
    for f in forms:
        f.verify(exhaustive=True)


def test_nondegenerate_count_c3():
    forms = quadratic_forms([3])
    flags = sorted(form_nondegenerate(f) for f in forms)
    assert flags == [False, True, True]


def test_form_json_round_trip():
    form = quadratic_forms([2, 4])[5]
    back = form_from_json(form_to_json(form))
    assert back.factors == form.factors
    assert back.key() == form.key()


@pytest.mark.parametrize("data", [
    {"factors": [2], "values": {"0": [0, 1]}},                          # element missing
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 4], "5": [0, 1]}},  # out of range
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 4], "01": [1, 4]}},  # element twice
    {"factors": [2, 2], "values": {"0": [0, 1]}},                       # wrong key length
    {"factors": [2], "values": {"0": [0, 1], "x": [1, 4]}},             # not an integer
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 0]}},             # den = 0
    {"factors": [2], "values": {"0": [0, 1], "1": [1, -4]}},            # den < 0
    {"factors": [2], "values": {"0": [0, 1], "1": [1.5, 4]}},           # not integers
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 4, 1]}},          # not a pair
    {"factors": [2], "values": {"0": [0, 1], "1": "1/4"}},              # not a pair
    {"factors": [0], "values": {}},                                     # bad factor
    {"factors": [2], "values": [[0, 1], [1, 4]]},                       # not an object
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 3]}},             # not a form
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 10 ** 30]}},      # beyond int64
])
def test_form_from_json_rejects(data):
    with pytest.raises(FusionRingError):
        form_from_json(data)


# Test-only reference: the triple loop over Fractions of a turn that the
# integer-array verify replaced.

def _oracle_is_form(factors, values, exhaustive=True) -> bool:
    elems = list(itertools.product(*[range(f) for f in factors]))

    def add(g, h):
        return tuple((x + y) % f for x, y, f in zip(g, h, factors))

    q = {g: values[g].fraction for g in elems}
    if q[elems[0]] != 0:
        return False
    if any(q[g] != q[tuple(-x % f for x, f in zip(g, factors))] for g in elems):
        return False
    b = {(g, h): (q[add(g, h)] - q[g] - q[h]) % 1 for g in elems for h in elems}
    gens = [tuple(int(i == j) % f for j, f in enumerate(factors)) for i in range(len(factors))]
    return all(b[add(g, gp), h] == (b[g, h] + b[gp, h]) % 1
               for g in (elems if exhaustive else gens) for gp in elems for h in elems)


small_groups = st.lists(st.integers(2, 8), min_size=1, max_size=3).filter(
    lambda fs: math.prod(fs) <= 8)


@settings(max_examples=25, deadline=None)
@given(small_groups)
def test_forms_pass_oracle_and_closed_count(factors):
    forms = quadratic_forms(factors)
    assert all(_oracle_is_form(factors, f.values) for f in forms)
    count = math.prod(n if n % 2 else 2 * n for n in factors)
    count *= math.prod(math.gcd(a, b) for a, b in itertools.combinations(factors, 2))
    assert len(forms) == count
    assert len({f.key() for f in forms}) == count


@settings(max_examples=40, deadline=None)
@given(small_groups, st.data())
def test_perturbed_form_rejected(factors, data):
    forms = quadratic_forms(factors)
    form = forms[data.draw(st.integers(0, len(forms) - 1))]
    elems = list(form.values)
    g = elems[data.draw(st.integers(1, len(elems) - 1))]
    den = data.draw(st.integers(2, 4 * math.lcm(*factors)))
    delta = RootOfUnity(data.draw(st.integers(1, den - 1)), den)
    values = dict(form.values)
    for h in {g, form.neg(g)}:
        values[h] = values[h] * delta
    ok = _oracle_is_form(factors, values)
    assert _oracle_is_form(factors, values, exhaustive=False) == ok
    # delta on {g, -g} can give another form (on C2, or for g of order 3);
    # only the perturbations the oracle rejects are a test of verify
    assume(not ok)
    perturbed = QuadraticForm(form.factors, values)
    for exhaustive in (True, False):
        with pytest.raises(FusionRingError):
            perturbed.verify(exhaustive=exhaustive)


@settings(max_examples=25, deadline=None)
@given(small_groups, st.data())
def test_form_times_nonreal_character_rejected(factors, data):
    # a linear character has additive b, so only q(g) = q(-g) catches it
    forms = quadratic_forms(factors)
    form = forms[data.draw(st.integers(0, len(forms) - 1))]
    a = [data.draw(st.integers(0, n - 1)) for n in factors]
    assume(any(2 * x % n for x, n in zip(a, factors)))
    values = {}
    for g, r in form.values.items():
        turn = sum((Fraction(x * y, n) for x, y, n in zip(a, g, factors)), Fraction(0))
        values[g] = r * RootOfUnity(turn.numerator, turn.denominator)
    assert not _oracle_is_form(factors, values)
    perturbed = QuadraticForm(form.factors, values)
    for exhaustive in (True, False):
        with pytest.raises(FusionRingError, match="!= q"):
            perturbed.verify(exhaustive=exhaustive)


@settings(max_examples=15, deadline=None)
@given(small_groups, st.randoms(use_true_random=False))
def test_class_count_independent_of_factor_order(factors, rnd):
    shuffled = list(factors)
    rnd.shuffle(shuffled)
    assert len(form_classes(shuffled)) == len(form_classes(factors))


def test_class_counts_c4xc2_both_orders():
    assert len(form_classes([4, 2])) == len(form_classes([2, 4])) == 30


def test_braided_cases_8():
    rows = braided_cases(8)
    kappas = {r[0]: r for r in rows}
    assert 0 in kappas and kappas[0][1] == 16
    assert 2 in kappas
    assert kappas[2][1] == 24
    assert "zeta(3,1)" in kappas[2][2] and "zeta(3,2)" in kappas[2][2]


def test_braided_cases_12():
    rows = braided_cases(12)
    kappas = {r[0]: r for r in rows}
    assert 4 in kappas
    assert kappas[4][1] == 48
    assert kappas[4][2] == "theta_rho = -1"


def test_braided_cases_5_only_kappa_zero():
    rows = braided_cases(5)
    assert [r[0] for r in rows] == [0]
    assert rows[0][1] == 10
