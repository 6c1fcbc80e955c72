"""Verlinde fusion, balancing, Gauss sums, quadratic forms, braided cases."""

import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fusionring as fr
from fusionring import core, premodular
from fusionring.exact import RootOfUnity
from fusionring.core import (AxiomViolation, FusionRing, FusionRingError, MalformedInput,
                             NonIntegralMultiplicity, _Group)
from fusionring.premodular import (GroupTooLarge, ModularDatum,
                                   QuadraticForm, balancing_check,
                                   braided_cases, centralizer_profile, form_classes,
                                   form_from_json, form_nondegenerate,
                                   form_to_json, gauss_sums,
                                   modular_datum_from_json, modular_datum_to_json,
                                   quadratic_forms, verlinde_fusion)
from shared_rings import cyclic_form_class_count, ordered_factor_lists, refuse

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
        t[i] = RootOfUnity(5 * t[i].num + t[i].den, 5 * t[i].den)  # one twist times zeta_5
        broken = ModularDatum(m.s, tuple(t))
        assert len(balancing_check(ring, broken)) >= 1


@pytest.mark.parametrize("name", sorted(DOUBLES))
def test_s_matrix_convention(name):
    # the library's S: for s = S/sqrt(D), s^2 is the charge conjugation read
    # from the Verlinde ring's dual and (s T^-1)^3 = (tau-/sqrt(D)) s^2, which
    # is s^2 on both doubles. Z(Rep(A4)) has non-self-dual objects, so the
    # conjugate convention's (s T)^3 misses s^2 there; Z(Rep(S3)) cannot tell
    m = fr.load_entry(name).payload
    ring, _ = verlinde_fusion(m)
    s = m.s / math.sqrt(m.global_dim)
    theta = m.twist_values()
    charge = np.eye(m.rank)[list(ring.dual)]
    s2 = s @ s
    tau_minus = gauss_sums(m.dims, theta)[1]
    assert tau_minus / math.sqrt(m.global_dim) == pytest.approx(1, abs=1e-12)
    assert np.abs(s2 - charge).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(s / theta, 3) - s2).max() < 1e-12
    miss = np.abs(np.linalg.matrix_power(s * theta, 3) - s2).max()
    if name == "Z(Rep(A4))":
        assert ring.dual != tuple(range(ring.rank)) and miss == pytest.approx(1.0, abs=1e-9)
    else:
        assert ring.dual == tuple(range(ring.rank)) and miss < 1e-12


def loop_verlinde_fusion(m, snap=1e-6):
    """Reference: the Verlinde ring snapped one cell at a time, with the
    charge-conjugation dual read row by row from the pairing column."""
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
            raise NonIntegralMultiplicity(
                f"N[{i}][{j}][{k}] = {v} is not an integer (defect {err})")
        if r < 0:
            raise NonIntegralMultiplicity(f"N[{i}][{j}][{k}] = {r} is negative")
        if r >= 2 ** 63:
            raise NonIntegralMultiplicity(
                f"N[{i}][{j}][{k}] = {float(r):.6g} does not fit in int64")
        out[i, j, k] = r
    dual = []
    for i in range(n):
        hits = [j for j in range(n) if out[i, j, 0] == 1]
        if len(hits) != 1:
            raise AxiomViolation([("dual-pairing", (i,), f"row {i} pairs with {hits}")])
        dual.append(hits[0])
    for i in range(n):
        if not np.allclose(np.abs(m.s[i] - m.s[dual[i]].conj()), 0, atol=1e-6):
            raise FusionRingError(f"S row {i} is not the conjugate of S row {dual[i]}")
    ring = FusionRing([f"X{i}" for i in range(n)], out, dual)
    return ring, {"maxSnapError": float(max_err)}


def verlinde_outcome(build, m, *nudge):
    """(ring, maxSnapError) of build(m), or of build(nudged(m, *nudge)) when
    a nudge is given, or the exception class and message. The nudged datum
    is built inside, as a datum whose S fails its checks raises when built."""
    try:
        ring, info = build(nudged(m, *nudge) if nudge else m)
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
    # integral fusion, but S[6][7] = -3 - 2e-6 i leaves row 6 off its conjugate
    nudged(fr.load_entry("Z(Rep(S3))").payload, 6, 7, -2e-6j),
    ModularDatum([[1, 1], [1, -3]], (RootOfUnity(0, 1),) * 2),  # N[0][0][1] = -1
    ModularDatum([[1, 1], [1, -3.4]], (RootOfUnity(0, 1),) * 2),  # N[0][0][1] = -1.2
    ModularDatum([[1, 1], [1, 1]], (RootOfUnity(0, 1),) * 2),  # two charge conjugates
    # N[1][1][1] = 1e300 would wrap in int64
    ModularDatum([[1, 1e-300], [1e-300, 1]], (RootOfUnity(0, 1), RootOfUnity(1, 4))),
], ids=[*sorted(DOUBLES), "sub-snap", "row-not-conjugate", "negative", "negative-non-integer",
        "two-conjugates", "overflow"])
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
    want = verlinde_outcome(loop_verlinde_fusion, m, a, b, delta)
    assert verlinde_outcome(verlinde_fusion, m, a, b, delta) == want


def test_balancing_matches_loop():
    m = fr.load_entry("Z(Rep(S3))").payload
    ring, _ = verlinde_fusion(m)
    t = list(m.t)
    t[3] = RootOfUnity(5 * t[3].num + t[3].den, 5 * t[3].den)  # times zeta_5
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


@pytest.mark.parametrize("big", [1e20, 2.0 ** 63, complex(0, 2.0 ** 63), 2 ** 63])
def test_modular_datum_refuses_what_its_json_cannot_hold(big):
    # the constructor bounds S as modular_datum_from_json does, so whatever
    # modular_datum_to_json writes reads back: 1e20 was written as the int
    # 100000000000000000000, which the reader refuses
    with pytest.raises(FusionRingError, match=r"^S entries must have modulus below 2\^63$"):
        ModularDatum([[1, big], [big, 1]], (RootOfUnity(0, 1),) * 2)
    with pytest.raises(MalformedInput, match=r"^'S' entries must have modulus below 2\^63$"):
        modular_datum_from_json({"S": [[1, 10 ** 20], [10 ** 20, 1]], "T": [[0, 1], [0, 1]]})
    below = float(np.nextafter(2.0 ** 63, 0))
    m = ModularDatum([[1, below], [below, 1]], (RootOfUnity(0, 1),) * 2)
    back = modular_datum_from_json(json.dumps(modular_datum_to_json(m)))
    assert np.array_equal(back.s, m.s) and back.t == m.t


def test_modular_datum_checks():
    one = RootOfUnity(0, 1)
    with pytest.raises(FusionRingError, match=r"^S must be square$"):
        ModularDatum([[1, 1]], (one,))
    with pytest.raises(FusionRingError, match=r"^S must be square$"):
        ModularDatum(np.zeros((0, 0)), ())
    with pytest.raises(FusionRingError, match=r"^T length must match S$"):
        ModularDatum([[1, 1], [1, -1]], (one,))
    with pytest.raises(FusionRingError, match=r"^S is not symmetric \(max defect 1\.0\)$"):
        ModularDatum([[1, 1], [2, -1]], (one, one))
    with pytest.raises(FusionRingError, match=r"^explicit dims disagree with row 0 of S$"):
        modular_datum_from_json({"S": [[1, 1], [1, -1]], "T": [[0, 1], [0, 1]],
                                 "dims": [1, 2]})


@pytest.mark.parametrize("s", [[[1, -1], [-1, 1]], [[1, 1j], [1j, 1]]],
                         ids=["negative", "complex"])
def test_row_0_of_s_must_be_positive_dims(s):
    with pytest.raises(FusionRingError, match=r"^row 0 of S must be positive dims$"):
        ModularDatum(s, (RootOfUnity(0, 1),) * 2)


def test_a_datum_is_checked_once_when_built(monkeypatch):
    known = fr.load_entry("Z(Rep(S3))").payload
    m = ModularDatum(known.s, known.t)
    monkeypatch.setattr(ModularDatum, "__post_init__", refuse)
    ring, _ = verlinde_fusion(m)
    assert balancing_check(ring, m) == []
    with pytest.raises(AssertionError, match="^not to be called$"):
        ModularDatum(known.s, known.t)


def test_a_bad_s_is_reported_before_bad_dims():
    with pytest.raises(FusionRingError, match=r"^S is not symmetric "):
        modular_datum_from_json({"S": [[1, 1], [2, -1]], "T": [[0, 1], [0, 1]],
                                 "dims": [1, 5]})


def test_explicit_dims_within_the_absolute_bound_only():
    """The dims bound is SNAP_TOL absolute: at d = 3 a defect of 2e-5 is
    outside it, though numpy's default rtol would have let it pass."""
    data = modular_datum_to_json(fr.load_entry("Z(Rep(S3))").payload)
    data["dims"][-1] += 5e-7
    assert modular_datum_from_json(data).rank == 8
    data["dims"][-1] += 2e-5
    with pytest.raises(FusionRingError, match=r"^explicit dims disagree with row 0 of S$"):
        modular_datum_from_json(data)


def test_balancing_validates_the_datum():
    with pytest.raises(FusionRingError, match=r"^S\[0\]\[0\] must be 1 "):
        balancing_check(fr.group_ring([1]), ModularDatum([[2]], (RootOfUnity(0, 1),)))


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
        f.verify()


def test_nondegenerate_count_c3():
    forms = quadratic_forms([3])
    flags = sorted(form_nondegenerate(f) for f in forms)
    assert flags == [False, True, True]


def _parent_form_to_json(form) -> dict:
    """Test-only copy of form_to_json when a form held a RootOfUnity dict:
    one RootOfUnity(x, M) per table entry, keyed by element, sorted."""
    elements = itertools.product(*[range(f) for f in form.factors])
    values = {g: RootOfUnity(x, form.m) for g, x in zip(elements, form.q.tolist())}
    return {
        "factors": list(form.factors),
        "values": {",".join(str(x) for x in g): [r.num, r.den]
                   for g, r in sorted(values.items())},
    }


def test_form_json_round_trip():
    for factors in ordered_factor_lists(16):
        for form in quadratic_forms(factors):
            data = form_to_json(form)
            assert json.dumps(data) == json.dumps(_parent_form_to_json(form))
            back = form_from_json(data)
            assert back.factors == form.factors
            assert back.key() == form.key()


@pytest.mark.parametrize("big_n", [0, -3])
def test_braided_cases_need_positive_n(big_n):
    with pytest.raises(ValueError, match="^N must be positive$"):
        fr.braided_cases(big_n)


def test_form_is_its_table():
    form = QuadraticForm([2], [4, 5], 4)
    assert form.factors == (2,) and form.m == 4 and form.q.tolist() == [0, 1]
    assert not form.q.flags.writeable
    assert form_to_json(form)["values"] == {"0": [0, 1], "1": [1, 4]}
    # ==, key() and JSON read the values, not the modulus they are written over
    rescaled = QuadraticForm((2,), [0, 2], 8)
    assert form == rescaled and form.key() == rescaled.key()
    assert form_to_json(rescaled) == form_to_json(form)
    assert form != QuadraticForm((2,), [0, 3], 4)
    assert form != QuadraticForm((2, 1), [0, 1], 4)
    assert form.__eq__(form.key()) is NotImplemented and form != form.key()
    for factors, q, m in [((2,), [0, 1, 0], 4), ((2,), [0, 1], 0),
                          ((2,), [0, 1], 1 << 62), ((0,), [], 4)]:
        with pytest.raises(FusionRingError):
            QuadraticForm(factors, q, m)


@pytest.mark.parametrize("data", [
    {"factors": [2], "values": {"0": [0, 1]}},                          # element missing
    {"factors": [2], "values": {"0": [0, 1], "5": [0, 1]}},             # out of range
    {"factors": [2], "values": {"0": [0, 1], "01": [1, 4]}},            # not as written
    {"factors": [2, 2], "values": {"0": [0, 1], "1": [0, 1], "0,1": [0, 1],
                                   "1,1": [0, 1]}},                     # wrong key length
    {"factors": [2], "values": {"0": [0, 1], "x": [1, 4]}},             # not an integer
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 0]}},             # den = 0
    {"factors": [2], "values": {"0": [0, 1], "1": [1, -4]}},            # den < 0
    {"factors": [2], "values": {"0": [0, 1], "1": [1.5, 4]}},           # not integers
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 4, 1]}},          # not a pair
    {"factors": [2], "values": {"0": [0, 1], "1": "1/4"}},              # not a pair
    {"factors": [0], "values": {}},                                     # bad factor
    {"factors": [2], "values": [[0, 1], [1, 4]]},                       # not an object
    {"factors": 2, "values": {"0": [0, 1], "1": [1, 4]}},               # factors not a list
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 10 ** 30]}},      # beyond int64
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 2 ** 61 - 1]}},   # lcm beyond 2^62
    {"factors": [True], "values": {"0": [0, 1]}},                       # bool factor
    {"factors": [2], "values": {"0": [0, 1], "1": [1, 4], "2": [0, 1]}},  # one value too many
    {"factors": [10 ** 30], "values": {"0": [0, 1]}},                   # too few values
    {"factors": [2], "values": {"0": [0, 1], "1": [True, 4]}},          # bool value
    {"factors": [2]},                                                   # no values
    [2],                                                                # not an object
    '{"factors": [2], "values": ',                                      # does not parse
])
def test_form_from_json_rejects(data):
    with pytest.raises(MalformedInput):
        form_from_json(data)


@pytest.mark.parametrize("data,message", [
    ({"factors": [2], "values": {"0": [0, 1], "1": [1, 3]}}, "b is not additive"),
    ({"factors": [2], "values": {"0": [1, 2], "1": [0, 1]}}, "q\\(0\\) must be 1"),
    ({"factors": [3], "values": {"0": [0, 1], "1": [1, 3], "2": [0, 1]}}, "!= q"),
])
def test_form_from_json_rejects_non_form(data, message):
    # well-formed JSON whose values are no quadratic form is a finding
    with pytest.raises(FusionRingError, match=message) as err:
        form_from_json(json.dumps(data))
    assert not isinstance(err.value, MalformedInput)


# Test-only references: the triple loop over Fractions of a turn that the
# integer-array verify replaced, and the exhaustive check on the int table.

def _turns(form) -> dict:
    """Each element tuple's value as a Fraction of a turn in [0, 1)."""
    elems = itertools.product(*[range(f) for f in form.factors])
    return {g: Fraction(x, form.m) for g, x in zip(elems, form.q.tolist())}


def _oracle_is_form(factors, q, exhaustive=True) -> bool:
    """q: element tuple -> Fraction of a turn in [0, 1)."""
    elems = list(itertools.product(*[range(f) for f in factors]))

    def add(g, h):
        return tuple((x + y) % f for x, y, f in zip(g, h, factors))

    if q[elems[0]] != 0:
        return False
    if any(q[g] != q[tuple(-x % f for x, f in zip(g, factors))] for g in elems):
        return False
    b = {(g, h): (q[add(g, h)] - q[g] - q[h]) % 1 for g in elems for h in elems}
    gens = [tuple(int(i == j) % f for j, f in enumerate(factors)) for i in range(len(factors))]
    return all(b[add(g, gp), h] == (b[g, h] + b[gp, h]) % 1
               for g in (elems if exhaustive else gens) for gp in elems for h in elems)


def _table_is_form(grp, form) -> bool:
    """q(0) = 0, q(-g) = q(g) and b(g + g', h) = b(g, h) + b(g', h) for all
    g, g', h, on the int table mod M."""
    q, m = form.q, form.m
    b = (q[grp.add] - q[:, None] - q[None, :]) % m
    return bool(q[0] == 0 and (q == q[grp.neg]).all()
                and (b[grp.add] == (b[:, None, :] + b[None, :, :]) % m).all())


def _form_json(factors, values) -> dict:
    return {"factors": list(factors),
            "values": {",".join(str(x) for x in g): [r.numerator, r.denominator]
                       for g, r in values.items()}}


small_groups = st.lists(st.integers(2, 8), min_size=1, max_size=3).filter(
    lambda fs: math.prod(fs) <= 8)


@settings(max_examples=25, deadline=None)
@given(small_groups)
def test_forms_pass_oracle_and_closed_count(factors):
    forms = quadratic_forms(factors)
    assert all(_oracle_is_form(factors, _turns(f)) for f in forms)
    count = math.prod(n if n % 2 else 2 * n for n in factors)
    count *= math.prod(math.gcd(a, b) for a, b in itertools.combinations(factors, 2))
    assert len(forms) == count
    assert len({f.key() for f in forms}) == count


@settings(max_examples=40, deadline=None)
@given(small_groups, st.data())
def test_perturbed_form_rejected(factors, data):
    forms = quadratic_forms(factors)
    form = forms[data.draw(st.integers(0, len(forms) - 1))]
    values = _turns(form)
    g = list(values)[data.draw(st.integers(1, len(values) - 1))]
    den = data.draw(st.integers(2, 4 * math.lcm(*factors)))
    delta = Fraction(data.draw(st.integers(1, den - 1)), den)
    for h in {g, tuple(-x % f for x, f in zip(g, factors))}:
        values[h] = (values[h] + delta) % 1
    ok = _oracle_is_form(factors, values)
    assert _oracle_is_form(factors, values, exhaustive=False) == ok
    # delta on {g, -g} can give another form (on C2, or for g of order 3),
    # which must read back; every other perturbation must be refused
    if ok:
        assert _turns(form_from_json(_form_json(factors, values))) == values
        return
    with pytest.raises(FusionRingError) as err:
        form_from_json(_form_json(factors, values))
    assert not isinstance(err.value, MalformedInput)


@settings(max_examples=25, deadline=None)
@given(small_groups, st.data())
def test_form_times_nonreal_character_rejected(factors, data):
    # a linear character has additive b, so only q(g) = q(-g) catches it
    forms = quadratic_forms(factors)
    form = forms[data.draw(st.integers(0, len(forms) - 1))]
    a = [data.draw(st.integers(0, n - 1)) for n in factors]
    assume(any(2 * x % n for x, n in zip(a, factors)))
    values = {}
    for g, r in _turns(form).items():
        values[g] = (r + sum(Fraction(x * y, n) for x, y, n in zip(a, g, factors))) % 1
    assert not _oracle_is_form(factors, values)
    with pytest.raises(FusionRingError, match="!= q"):
        form_from_json(_form_json(factors, values))


@settings(max_examples=15, deadline=None)
@given(small_groups, st.randoms(use_true_random=False))
def test_class_count_independent_of_factor_order(factors, rnd):
    shuffled = list(factors)
    rnd.shuffle(shuffled)
    assert len(form_classes(shuffled)) == len(form_classes(factors))


def test_class_counts_c4xc2_both_orders():
    assert len(form_classes([4, 2])) == len(form_classes([2, 4])) == 30


@functools.cache
def _brute_automorphisms(factors: tuple) -> np.ndarray:
    """Test-only oracle: every automorphism of G, one row each (the element
    number of phi(g) at g's number), from every tuple of generator images
    of the right orders that gives a bijection."""
    grp, order = _Group(factors), math.prod(factors)
    orders = [math.lcm(*[f // math.gcd(x, f) for x, f in zip(g, factors)])
              for g in grp.elements]
    candidates = [[i for i, o in enumerate(orders) if o == f] for f in factors]
    autos = []
    for images in itertools.product(*candidates):
        perm = grp.number(grp.coords @ grp.coords[list(images)])
        if np.bincount(perm, minlength=order).all():
            autos.append(perm)
    return np.array(autos, dtype=np.int64).reshape(len(autos), order)


def _closure(gens: np.ndarray, order: int) -> set:
    """Every product of the permutation rows gens, as row bytes."""
    frontier = np.arange(order).reshape(1, order)
    seen = {frontier[0].tobytes()}
    while len(frontier):
        moved = np.unique(gens[:, frontier].reshape(-1, order), axis=0)
        frontier = np.array([p for p in moved if p.tobytes() not in seen],
                            dtype=np.int64).reshape(-1, order)
        seen.update(p.tobytes() for p in frontier)
    return seen


ORACLE_GROUPS = ordered_factor_lists(16) + [[1], [1, 1], [1, 3], [3, 1], [2, 1, 2]]


@pytest.mark.parametrize("factors", ORACLE_GROUPS, ids=str)
def test_aut_generators_generate_aut(factors):
    factors = tuple(factors)
    gens = _Group(factors).aut_gens
    assert not gens.flags.writeable
    brute = _brute_automorphisms(factors)
    assert _closure(gens, math.prod(factors)) == {p.tobytes() for p in brute}


@pytest.mark.parametrize("factors", ORACLE_GROUPS, ids=str)
def test_form_classes_match_brute_force(factors):
    # the greedy scan over the form table with every automorphism: each
    # form not yet seen is a representative, and its whole orbit is seen
    m, _, table = premodular._form_table(tuple(factors))
    autos = _brute_automorphisms(tuple(factors))
    seen, reps = set(), []
    for q in table:
        if q.tobytes() not in seen:
            reps.append(QuadraticForm(factors, q, m).key())
            seen.update(moved.tobytes() for moved in q[autos])
    assert [form.key() for form in form_classes(factors)] == reps


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 12, 16, 25, 27, 30, 49, 64, 65, 97, 105,
                               128, 210, 243, 256, 360, 512, 720, 724, 1001, 1023])
def test_cyclic_class_counts(n):
    assert len(form_classes([n])) == cyclic_form_class_count(n)


def test_pointed_classes_by_order():
    # the abelian groups of orders 1-6, by invariant factors (each divides
    # the next): the pointed braided classes C(G, q) of rank |G| <= 6
    groups = [f for f in ordered_factor_lists(6)
              if all(b % a == 0 for a, b in zip(f, f[1:]))]
    classes, nondegenerate = [0] * 6, [0] * 6
    for factors in groups:
        found = form_classes(factors)
        classes[math.prod(factors) - 1] += len(found)
        nondegenerate[math.prod(factors) - 1] += sum(map(form_nondegenerate, found))
    assert classes == [1, 4, 3, 18, 3, 12]
    assert nondegenerate == [1, 2, 2, 9, 2, 4]


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


def _braided_cases_by_scan(big_n):
    """Test-only oracle: the scan over every kappa up to sqrt(4N/3) + 1
    that braided_cases used before its closed forms."""
    out = [(0, 2 * big_n, "theta_rho in {zeta(4,1), zeta(4,3)} or theta_rho**16 = 1",
            "kappa-zero")]
    for kappa in range(1, int(math.isqrt(4 * big_n // 3)) + 2):
        if 2 * kappa * kappa == big_n:
            out.append((kappa, 6 * kappa * kappa, "theta_rho in {zeta(3,1), zeta(3,2)}",
                        "case-2"))
        if 3 * kappa * kappa == 4 * big_n:
            out.append((kappa, 3 * kappa * kappa, "theta_rho = -1", "case-3"))
    return out


def test_braided_cases_match_scan():
    for big_n in range(1, 5001):
        assert braided_cases(big_n) == _braided_cases_by_scan(big_n), big_n


def test_braided_cases_huge_n_is_immediate():
    kappa = 10 ** 20
    rows = braided_cases(2 * 10 ** 40)
    assert [r[3] for r in rows] == ["kappa-zero", "case-2"]
    assert rows[1][:2] == (kappa, 6 * kappa * kappa)


@pytest.mark.parametrize("factors", ordered_factor_lists(16), ids=str)
def test_enumerated_forms_are_forms_unchecked(factors, monkeypatch):
    # every row of the form table is a form by construction: none is checked
    # while it is built (form_classes too), and each passes the exhaustive
    # check on its table afterwards (test_form_json_round_trip runs verify on each)
    monkeypatch.setattr(premodular, "RootOfUnity", refuse)
    with monkeypatch.context() as mp:
        mp.setattr(premodular, "_check_form", refuse)
        forms = quadratic_forms(factors)
        classes = form_classes(factors)
    # no form operation makes a RootOfUnity either: key(), ==, the JSON round
    # trip and form_nondegenerate, on the classes and about 50 forms per group
    for form in classes + forms[::len(forms) // 50 or 1]:
        rescaled = QuadraticForm(form.factors, 3 * form.q, 3 * form.m)
        assert rescaled.key() == form.key() and rescaled == form
        assert form_from_json(form_to_json(form)) == form
        form_nondegenerate(form)
    monkeypatch.undo()
    grp = _Group(tuple(factors))
    assert all(_table_is_form(grp, form) for form in forms + classes)
    count = math.prod(n if n % 2 else 2 * n for n in factors)
    assert len(forms) == count * math.prod(
        math.gcd(a, b) for a, b in itertools.combinations(factors, 2))


@pytest.mark.parametrize("factors", ordered_factor_lists(16), ids=str)
def test_enumerated_forms_match_the_public_constructor(factors, monkeypatch):
    # quadratic_forms and form_classes wrap rows of one read-only table and
    # skip the constructor's checks; each form equals the one the public
    # constructor builds from its values, and the representatives verify
    with monkeypatch.context() as mp:
        mp.setattr(QuadraticForm, "__post_init__", refuse)
        forms, classes = quadratic_forms(factors), form_classes(factors)
    assert all(form.q.base is forms[0].q.base for form in forms)
    for form in forms + classes:
        built = QuadraticForm(factors, form.q.copy(), form.m)
        assert type(form.factors) is tuple and form.factors == built.factors
        assert all(type(f) is int for f in form.factors)
        assert form.q.dtype == built.q.dtype == np.int64
        assert form.q.tolist() == built.q.tolist()
        assert type(form.m) is int and form.m == built.m and form.key() == built.key()
        for view in (form.q, form.q.base):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1
    for form in classes:
        form.verify()


@pytest.mark.parametrize("factors", [[2] * 5, [2] * 6, [64, 64], [1024]])
def test_form_enumeration_bounded_before_it_starts(factors, monkeypatch):
    monkeypatch.setattr(premodular, "_Group", refuse)
    monkeypatch.setattr(core, "_unit_generators", refuse)
    for enumerate_forms in (quadratic_forms, form_classes):
        with pytest.raises(GroupTooLarge, match="exceed the bound of 1048576 form values"):
            enumerate_forms(factors)
