"""Derived data of a frozen object (core._derived): FPdims, the Casimir
matrix, formal codegrees, the induction-unit profile, commutativity, the
character and Verlinde rings and a classification row's dimensions are
computed once per object, kept read-only, and never kept after a raise."""

import functools

import numpy as np
import pytest

import fusionring as fr
from fusionring import catalog, cli, core, spectral
from fusionring.core import CharacterTable, NonIntegralMultiplicity, _derived
from fusionring.exact import RootOfUnity
from fusionring.nearintegral import character_kernel, construct
from fusionring.premodular import ModularDatum
from shared_rings import s3_group_ring


@pytest.fixture
def fresh_catalog(monkeypatch):
    """Catalog entries loaded anew for one test, so that no earlier test has
    filled their rings' caches."""
    monkeypatch.setattr(catalog, "_entries", functools.cache(catalog._entries.__wrapped__))


@pytest.fixture
def perron_calls(monkeypatch):
    """FPdim computations per ring object, as {id(ring.tensor): calls}: each
    is one batched power iteration over the ring's tensor. The tensors are
    kept alive so that no id is reused."""
    calls, seen, perron = {}, [], spectral._perron_values

    def counting(tensor):
        calls[id(tensor)] = calls.get(id(tensor), 0) + 1
        seen.append(tensor)
        return perron(tensor)
    monkeypatch.setattr(spectral, "_perron_values", counting)
    return calls


@pytest.fixture
def eigenvector_calls(monkeypatch):
    """spectral._perron_dims computations per ring object, as
    {id(ring.tensor): calls}: each is one eigh, counted inside the
    once-per-ring cache. The tensors are kept alive so that no id is reused."""
    calls, seen, dims = {}, [], spectral._perron_dims.__wrapped__

    @functools.wraps(dims)
    def counting(ring):
        calls[id(ring.tensor)] = calls.get(id(ring.tensor), 0) + 1
        seen.append(ring.tensor)
        return dims(ring)
    monkeypatch.setattr(spectral, "_perron_dims", _derived(counting))
    return calls


def test_fpdims_and_casimir_once_per_ring(fresh_catalog, perron_calls, eigenvector_calls,
                                          capsys):
    ring, built = fr.entry_ring("A4"), []
    sub = fr.group_ring([2, 3])  # read by construct and integral_subring alone
    casimir = spectral._casimir(ring)
    for _ in range(2):
        assert fr.spectral_report(ring).ring_fpdim == pytest.approx(12)
        chars = fr.characters(ring)
        assert fr.integral_subring(ring).indices == (0, 1, 2, 3)
        assert character_kernel(ring, chars[1].values) == ((0, 1, 2), True)
        built.append(construct(ring, 2))
        fr.spectral_report(built[-1])
        assert fr.integral_subring(sub).indices == tuple(range(6))
        assert construct(sub, 3).rank == 7
        for cmd in ("fpdim", "codegrees"):
            assert cli.run([cmd, "catalog:A4"]) == 0
        fr.verify_catalog()
    capsys.readouterr()
    assert spectral._casimir(ring) is casimir
    # verify_catalog reads the FPdims of each Verlinde ring
    datum_rings = [fr.entry_ring(n) for n in fr.list_catalog()
                   if fr.load_entry(n).kind == "modularDatum"]
    assert perron_calls == {id(r.tensor): 1 for r in [ring, *built, *datum_rings]}
    # construct and integral_subring run no power iteration: one eigh per ring
    assert eigenvector_calls == {id(ring.tensor): 1, id(sub.tensor): 1}


def test_cached_arrays_are_shared_and_read_only():
    ring = fr.group_ring([2, 3])
    casimir, dims = spectral._casimir(ring), spectral.fpdims(ring)
    assert spectral._casimir(ring) is casimir and spectral.fpdims(ring) is dims
    with pytest.raises(ValueError):
        casimir[0, 0] = 1.0
    with pytest.raises(ValueError):
        dims[0] = 2.0
    assert spectral.fpdim(ring, 1) == dims[1]


def test_equal_rings_keep_separate_caches(perron_calls):
    a, b = fr.group_ring([6]), fr.group_ring([6])
    assert a == b and a is not b
    assert spectral.fpdims(a) is not spectral.fpdims(b)
    assert spectral._casimir(a) is not spectral._casimir(b)
    assert np.array_equal(spectral.fpdims(a), spectral.fpdims(b))
    assert perron_calls == {id(a.tensor): 1, id(b.tensor): 1}


def test_verlinde_ring_and_diagnostics_once_per_datum(fresh_catalog, monkeypatch, capsys):
    entry = fr.load_entry("Z(Rep(S3))")
    ring, info = fr.verlinde_fusion(entry.payload)
    assert entry.ring is ring
    assert fr.verlinde_fusion(entry.payload)[1] is info
    assert info["dims"] == (1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0)
    with pytest.raises(TypeError):
        info["dims"] = []

    def refuse(*args, **kwargs):
        raise AssertionError("the Verlinde ring was built again")
    monkeypatch.setattr(core, "validate_tensor", refuse)
    assert cli.run(["verlinde", "catalog:Z(Rep(S3))"]) == 0
    assert "dims: 1, 1, 2, 2, 2, 2, 3, 3" in capsys.readouterr().out


def test_gagola_reuses_the_character_ring(monkeypatch):
    table = fr.table_from_json(fr.table_to_json(fr.load_entry("F5").payload))
    ring = fr.character_table_to_fusion_ring(table)

    def refuse(*args, **kwargs):
        raise AssertionError("the character ring was built again")
    monkeypatch.setattr(core, "validate_tensor", refuse)
    assert fr.gagola_analyze(table).kappa == 3
    assert fr.character_table_to_fusion_ring(table) is ring


def test_a_failure_is_not_cached():
    s3 = fr.load_entry("S3").payload
    rows = s3.rows.copy()
    rows[1, 1] += 3e-7  # within the table checks, not within the ring's snap
    table = CharacterTable(s3.order, rows, s3.class_sizes)
    datum = ModularDatum([[1, 1], [1, 0.5]], (RootOfUnity(0, 1), RootOfUnity(0, 1)))
    for obj, build, error in ((table, fr.character_table_to_fusion_ring,
                               NonIntegralMultiplicity),
                              (datum, fr.verlinde_fusion, NonIntegralMultiplicity)):
        fields = set(vars(obj))
        messages = set()
        for _ in range(2):
            with pytest.raises(error) as exc:
                build(obj)
            messages.add(str(exc.value))
        assert len(messages) == 1 and set(vars(obj)) == fields


def test_row_expressions_parsed_once_per_row(fresh_catalog, monkeypatch):
    texts, parse = [], catalog.parse_zeta_expr

    def counting(text):
        texts.append(text)
        return parse(text)
    monkeypatch.setattr(catalog, "parse_zeta_expr", counting)
    for _ in range(2):
        assert all(ok for _, ok, _ in fr.verify_catalog())
    rows = [fr.load_entry(n).payload for n in fr.list_catalog()
            if fr.load_entry(n).kind == "classificationRow"]
    assert sorted(texts) == sorted(e for row in rows for e in (row.fpdim_expr, *row.dim_exprs))


def test_one_svd_per_table_ring(fresh_catalog, monkeypatch, capsys):
    calls, svd = [], np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting)
    tables = [n for n in fr.list_catalog() if fr.load_entry(n).kind == "characterTable"]
    for name in tables:
        assert cli.run(["codegrees", f"catalog:{name}"]) == 0
    fr.verify_catalog()
    capsys.readouterr()
    assert len(calls) == len(tables)


def test_formal_codegrees_returns_a_new_list_each_call():
    ring = fr.group_ring([2, 3])
    first = fr.formal_codegrees(ring)
    second = fr.formal_codegrees(ring)
    assert first == second == [6] * 6 and first is not second
    first[0] = 0
    first.append(1)
    assert fr.formal_codegrees(ring) == second
    assert fr.spectral_report(ring).codegrees == tuple(second)


def test_noncommutative_codegrees_raise_every_call():
    ring = s3_group_ring()
    for _ in range(2):
        for build in (fr.formal_codegrees, fr.spectral_report):
            with pytest.raises(spectral.NotCommutative):
                build(ring)
    assert not any("codegrees" in key for key in vars(ring))


def test_induction_unit_profile_once_per_ring():
    ring = fr.entry_ring("A4")
    profile = spectral.induction_unit_profile(ring)
    assert spectral.induction_unit_profile(ring) is profile
    assert profile.tolist() == [4, 1, 1, 2]  # 3 x 3 = 1 + 1' + 1'' + 2 x 3
    with pytest.raises(ValueError):
        profile[0] = 0
    assert fr.adjoint_subring(ring).indices == (0, 1, 2, 3)
    assert fr.adjoint_subring(fr.group_ring([4])).indices == (0,)
