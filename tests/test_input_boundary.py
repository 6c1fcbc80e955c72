"""One input boundary: core.MalformedInput is the one class of bad input, the
CLI's exit 3, and exact._is_int the one test of an integer from outside."""

import ast
import inspect
import io
import json

import numpy as np
import pytest

import fusionring as fr
from fusionring import catalog, cli, core, premodular
from fusionring.core import (AxiomViolation, CharacterTable, FusionRing, FusionRingError,
                             MalformedInput, NonIntegralMultiplicity, _is_int)
from fusionring.exact import RootOfUnity, quantum_integer
from fusionring.premodular import GroupTooLarge, QuadraticForm
from fusionring.structure import ClosureViolation, SubringHandle, closure


@pytest.mark.parametrize("x", [0, 7, -3, 2 ** 70, np.int64(2), np.uint8(3), np.array(2),
                               np.array(5, dtype=np.uint16)], ids=repr)
def test_is_int_accepts_what_operator_index_reads(x):
    assert _is_int(x)


@pytest.mark.parametrize("x", [True, False, np.bool_(True), np.array(True), 2.0, 2.5,
                               np.float64(3.7), np.array(2.0), np.array([2]), "3", None,
                               1 + 0j], ids=repr)
def test_is_int_refuses_the_rest(x):
    assert not _is_int(x)


# ---------------------------------------------------------------------------
# one class for bad input


def test_input_errors_are_malformed_input():
    assert issubclass(GroupTooLarge, MalformedInput)
    assert issubclass(catalog.UnknownEntry, MalformedInput)
    assert not hasattr(cli, "InputProblem")
    with pytest.raises(catalog.UnknownEntry, match=r"^unknown catalog entry 'nope'$"):
        catalog.load_entry("nope")


def test_run_maps_exit_3_from_malformed_input_alone():
    tree = ast.parse(inspect.getsource(cli.run))
    handlers = [h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)]
    exit_3 = [h for h in handlers if "INPUT_ERROR" in ast.unparse(h)]
    assert [ast.unparse(h.type) for h in exit_3] == ["MalformedInput"]


@pytest.mark.parametrize("argv, message", [
    (["fpdim", "catalog:nope"], "input error: unknown catalog entry 'nope'"),
    (["catalog", "show", "nope"], "input error: unknown catalog entry 'nope'"),
    (["qforms", "C2xC2xC2xC2xC2"],
     "input error: 1048576 quadratic forms on |G| = 32 exceed the bound of 1048576 form values"),
])
def test_subclass_errors_keep_their_stderr_line(argv, message, capsys):
    assert cli.run(argv) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", message + "\n")


def test_data_dir_fallback_still_reads_a_user_entry(tmp_path, capsys):
    (tmp_path / "mine.json").write_text(json.dumps(core.ring_to_json(fr.group_ring([2]))))
    assert cli.run(["--data-dir", str(tmp_path), "fpdim", "catalog:mine"]) == 0
    assert cli.run(["--data-dir", str(tmp_path), "fpdim", "catalog:other"]) == 3
    out, err = capsys.readouterr()
    assert err == "input error: unknown catalog entry 'other'\n"


# JSON text that json.loads refuses other than by JSONDecodeError: nesting
# deeper than it recurses (RecursionError) and an int of more digits than
# int() reads (ValueError)
UNPARSEABLE = ['{"tensor": ' + "[" * 100_000, '{"tensor": 1' + "0" * 5_000 + "}"]


@pytest.mark.parametrize("text", UNPARSEABLE, ids=["deep", "long-int"])
@pytest.mark.parametrize("read", [core.ring_from_json, core.table_from_json,
                                  premodular.modular_datum_from_json, premodular.form_from_json],
                         ids=lambda f: f.__name__)
def test_every_json_reader_refuses_text_that_does_not_parse(read, text):
    with pytest.raises(MalformedInput, match=" JSON does not parse: "):
        read(text)


@pytest.mark.parametrize("text", UNPARSEABLE, ids=["deep", "long-int"])
@pytest.mark.parametrize("route", ["file", "stdin"])
def test_cli_refuses_text_that_does_not_parse(route, text, tmp_path, capsys, monkeypatch):
    path = tmp_path / "ring.json"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.run(["verify", "-" if route == "stdin" else str(path)]) == 3
    out, err = capsys.readouterr()
    source = "stdin" if route == "stdin" else str(path)
    assert out == "" and err.startswith(f"input error: {source} JSON does not parse: ")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# a JSON bool is not a number


@pytest.mark.parametrize("text", [
    '{"order": 2, "rows": [[true, 1], [1, -1]]}',
    '{"order": 2, "rows": [[1, 1], [1, [-1, false]]]}',
    '{"order": 2, "rows": [[1, 1], [1, ["-1", 0]]]}',
    '{"S": [[1, 1], [1, true]], "T": [[0, 1], [0, 1]]}',
    '{"S": [[1, 1], [1, -1]], "T": [[0, 1], [0, 1]], "dims": [true, true]}',
], ids=["table-entry", "pair-part", "pair-string", "datum-entry", "datum-dims"])
def test_a_json_bool_is_not_a_number(text, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.run(["verify", "-"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: '") and len(err.splitlines()) == 1


@pytest.mark.parametrize("entry", [True, np.bool_(True), [True, 0], [0, False], ["1.5", 0],
                                   [1, "0"]], ids=repr)
def test_parse_scalar_refuses_bools_and_strings_as_numbers(entry):
    with pytest.raises(ValueError, match="^unsupported scalar entry|^complex pair must hold"):
        fr.parse_scalar(entry)


def test_parse_scalar_reads_numpy_numbers():
    assert fr.parse_scalar(np.int64(3)) == 3
    assert fr.parse_scalar([np.int64(1), np.float64(-0.5)]) == 1 - 0.5j


# ---------------------------------------------------------------------------
# one integer test


@pytest.mark.parametrize("kappa", [2.5, 2.0, True, np.float64(3.7), np.array(1.0), "1"],
                         ids=repr)
def test_construct_refuses_a_non_integer_kappa(kappa):
    with pytest.raises(FusionRingError, match="^kappa must be an integer"):
        fr.construct(fr.group_ring([2]), kappa)


def test_construct_keeps_its_range_check_after_the_integer_test():
    with pytest.raises(FusionRingError, match="^kappa must be nonnegative$"):
        fr.construct(fr.group_ring([2]), -1)
    with pytest.raises(FusionRingError, match="does not fit in int64"):
        fr.construct(fr.group_ring([2]), np.uint64(2 ** 63))


@pytest.mark.parametrize("kappa", [np.int64(2), np.uint8(2), np.array(2)], ids=repr)
def test_construct_accepts_numpy_integers(kappa):
    assert fr.construct(fr.group_ring([2]), kappa) == fr.construct(fr.group_ring([2]), 2)


@pytest.mark.parametrize("indices", [(0, 2.9), (0, 2.0), (0, True), (0, np.float64(1.0)),
                                     ("0",)], ids=repr)
def test_subring_handle_refuses_non_integers(indices):
    with pytest.raises(ClosureViolation, match="must be integers"):
        SubringHandle(indices)


def test_subring_handle_reads_numpy_integers_once():
    handle = SubringHandle(iter([np.int64(2), np.array(0), np.uint8(2)]))
    assert handle.indices == (0, 2) and all(type(i) is int for i in handle.indices)


@pytest.mark.parametrize("seed", [[2.5], [2.0], [True], [np.float64(1.0)]], ids=repr)
def test_closure_refuses_non_integers(seed):
    with pytest.raises(ClosureViolation, match="must be integers"):
        closure(fr.group_ring([4]), seed)


def test_closure_reads_numpy_integer_indices():
    ring = fr.group_ring([4])
    want = closure(ring, [2])
    assert want.indices == (0, 2)
    for seed in ([np.int64(2)], np.array([2]), (np.array(2),), iter([2])):
        assert closure(ring, seed) == want


@pytest.mark.parametrize("bad", [1.5, 1.0, True, np.float64(1.0)], ids=repr)
def test_ring_and_table_fields_refuse_non_integers(bad):
    c2 = fr.group_ring([2])
    with pytest.raises(MalformedInput, match="^dual must list integers$"):
        FusionRing(c2.labels, c2.tensor, [0, bad])
    rows = [[1, 1], [1, -1]]
    with pytest.raises(FusionRingError, match="must be integers"):
        CharacterTable(2, rows, (1, bad))
    with pytest.raises(FusionRingError, match="form modulus must be an integer"):
        QuadraticForm((1,), [0], bad)


def test_ring_and_table_fields_read_numpy_integers():
    c2 = fr.group_ring([2])
    assert FusionRing(c2.labels, c2.tensor, np.array([0, 1])) == c2
    table = CharacterTable(np.int64(2), [[1, 1], [1, -1]], (np.int64(1), np.array(1)))
    assert table.class_sizes == (1, 1) and table.order == 2
    with pytest.raises(FusionRingError, match=r"^'order' must be a positive integer below 2\^63$"):
        CharacterTable(2.0, [[1, 1], [1, -1]], (1, 1))
    assert QuadraticForm((2,), [0, 1], np.int64(4)).m == 4


def test_object_tensor_refuses_a_bool_entry():
    tensor = np.array([[[True]]], dtype=object)
    with pytest.raises(NonIntegralMultiplicity, match="must be integers"):
        FusionRing(["1"], tensor, [0])


# ---------------------------------------------------------------------------
# subring indices out of range


@pytest.mark.parametrize("seed, index", [([99], 99), ([4], 4), ([-1], -1), ([1, -2], -2)])
def test_closure_refuses_indices_out_of_range(seed, index):
    with pytest.raises(ClosureViolation, match=rf"^index {index} is not in range\(4\)$"):
        closure(fr.group_ring([4]), seed)


@pytest.mark.parametrize("indices, index", [([0, 99], 99), ([-1, 0], -1), ([0, 4], 4),
                                            ([99], 99)])
def test_subring_on_refuses_indices_out_of_range(indices, index):
    ring = fr.group_ring([4])
    with pytest.raises(ClosureViolation, match=rf"^index {index} is not in range\(4\)$"):
        fr.subring_on(ring, indices)
    with pytest.raises(ClosureViolation, match=rf"^index {index} is not in range\(4\)$"):
        SubringHandle(indices).verify(ring)


def test_in_range_handles_still_verify():
    ring = fr.group_ring([4])
    assert fr.subring_on(ring, [0, 2]).rank == 2
    assert closure(ring, [3]).indices == (0, 1, 2, 3)
    with pytest.raises(ClosureViolation, match="must contain the unit"):
        SubringHandle((2,)).verify(ring)


@pytest.mark.parametrize("n", [True, 2.0, 8.0, np.float64(8.0), "8"], ids=repr)
def test_braided_cases_refuses_a_non_integer_n(n):
    with pytest.raises(ValueError, match="^N must be an integer"):
        premodular.braided_cases(n)


def test_braided_cases_reads_numpy_integers():
    want = premodular.braided_cases(8)
    for n in (np.int64(8), np.array(8), np.uint8(8)):
        got = premodular.braided_cases(n)
        assert got == want and all(type(k) is int and type(d) is int for k, d, _, _ in got)
    with pytest.raises(ValueError, match="^N must be positive$"):
        premodular.braided_cases(np.int64(0))


@pytest.mark.parametrize("p, n", [(3.0, 1), (3, 1.0), (True, 1), (3, True), (5, np.float64(2))],
                         ids=repr)
def test_extraspecial_kappa_refuses_non_integers(p, n):
    with pytest.raises(ValueError, match="^p and n must be integers"):
        fr.extraspecial_kappa(p, n)


def test_extraspecial_kappa_reads_numpy_integers_as_ints():
    # p^n past 2^63 stays exact: numpy scalars are read as Python ints
    want = fr.extraspecial_kappa(3, 50)
    assert fr.extraspecial_kappa(np.int64(3), np.array(50)) == want
    assert want[0] == 3 ** 50


# ---------------------------------------------------------------------------
# FusionRing hash


def test_equal_object_dtype_rings_hash_equal():
    def build():
        big = fr.construct(fr.group_ring([1]), 2 ** 32)
        return fr.product_ring(big, big)
    a, b = build(), build()
    assert a.tensor.dtype == object
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_hash_reads_labels_and_dual_only():
    ring = fr.group_ring([3])
    assert hash(ring) == hash((ring.labels, ring.dual))


# ---------------------------------------------------------------------------
# qforms counts the forms without a second table


@pytest.mark.parametrize("argv, tables", [(["qforms", "C3xC3"], 0),
                                          (["qforms", "C9", "--classes"], 1)])
def test_qforms_builds_the_form_table_at_most_once(argv, tables, capsys, monkeypatch):
    calls = []
    real = premodular._form_table
    monkeypatch.setattr(premodular, "_form_table", lambda f: calls.append(f) or real(f))
    assert cli.run(["--format", "json", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["numForms"] == len(fr.quadratic_forms(payload["factors"]))
    assert len(calls) == tables + 1  # the + 1 is quadratic_forms above


@pytest.mark.parametrize("argv", [["qforms", "C2xC2xC2xC2xC2"],
                                  ["qforms", "C2xC2xC2xC2xC2", "--classes"],
                                  ["qforms", "C2xC2xC2xC2xC2xC2", "--classes"]])
def test_qforms_refuses_before_any_table(argv, capsys, monkeypatch):
    monkeypatch.setattr(premodular, "_form_table", None)  # any call fails
    assert cli.run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# group tables that are in range but not groups


@pytest.mark.parametrize("table, first", [
    ([[1, 0], [0, 1]], ("duality", (0,), "dual of the unit is not the unit")),
    ([[0, 1], [1, 1]], ("dual-pairing", (1,), "row 1 pairs with []")),
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     None),
], ids=["identity-not-at-0", "row-without-identity", "non-associative-loop"])
def test_group_ring_refuses_tables_that_are_not_groups(table, first):
    with pytest.raises(AxiomViolation) as err:
        fr.group_ring(table)
    assert "-1" not in str(err.value)
    if first is not None:
        assert err.value.violations[0] == first
    else:
        assert any(name == "associativity" for name, _, _ in err.value.violations)


def test_tables_of_groups_still_read():
    z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    ring = fr.group_ring(z3)
    assert ring.dual == (0, 2, 1) and ring.tensor.shape == (3, 3, 3)
    assert fr.group_ring(np.array(z3)) == ring


def test_random_in_range_tables_never_escape():
    rng = np.random.default_rng(29)
    for n in (2, 3, 4):
        for _ in range(40):
            table = rng.integers(0, n, size=(n, n))
            table[0], table[:, 0] = np.arange(n), np.arange(n)
            try:
                fr.group_ring(table)
            except AxiomViolation as exc:
                assert "-1" not in str(exc)


def test_ring_json_dual_message_unchanged(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"tensor": [[[1]]], "dual": [0.5]}'))
    assert cli.run(["fpdim", "-"]) == 3
    assert capsys.readouterr().err == "input error: 'dual' must be a list of integers\n"


@pytest.mark.parametrize("n, m", [(2.5, 5), (2.0, 5), (True, 5), (2, 5.0), (2, np.float64(5)),
                                  (np.bool_(True), 5), ("2", 5)], ids=repr)
def test_quantum_integer_refuses_non_integers(n, m):
    # 2.5 was truncated to 2
    with pytest.raises(ValueError, match="needs integers"):
        quantum_integer(n, m)


def test_quantum_integer_reads_numpy_integers():
    assert quantum_integer(np.int64(2), np.uint8(5)) == quantum_integer(2, 5)
    assert quantum_integer(np.array(3), 8) == quantum_integer(3, 8)


@pytest.mark.parametrize("num, den", [(2.5, 4), (1, 4.0), (True, 4), (1, True),
                                      (np.float64(1), 4), (1, "4")], ids=repr)
def test_root_of_unity_refuses_non_integers(num, den):
    # (2.5, 4) raised a bare TypeError from math.gcd
    with pytest.raises(ValueError, match="needs integers"):
        RootOfUnity(num, den)


def test_root_of_unity_reads_numpy_integers():
    assert RootOfUnity(np.int64(6), np.int64(4)) == RootOfUnity(1, 2)
    assert RootOfUnity(np.uint8(3), np.array(4)) == RootOfUnity(3, 4)


@pytest.mark.parametrize("q", [[0, 1.5], [0.0, 1.0], np.array([0, 1.5]), [False, True],
                               [0, 2 ** 70], ["0", "1"]], ids=repr)
def test_form_table_must_have_an_integer_dtype(q):
    # [0, 1.5] was read as [0, 1]
    with pytest.raises(FusionRingError, match="form values must be integers"):
        QuadraticForm((2,), q, 4)


@pytest.mark.parametrize("q", [[0, 5], np.array([0, 5], dtype=np.uint8),
                               np.array([4, 1], dtype=np.int32)], ids=repr)
def test_form_table_reads_integer_dtypes(q):
    form = QuadraticForm((2,), q, 4)
    assert form.q.dtype == np.int64 and form.q.tolist() == [0, 1]
