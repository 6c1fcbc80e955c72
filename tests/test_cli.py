"""Command line interface: exit codes, determinism, machine output."""

import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from fusionring import catalog, cli
from fusionring.core import group_ring, ring_to_json, table_to_json
from fusionring.premodular import modular_datum_to_json


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_detect_catalog_psu(capsys):
    code, out, _ = run(capsys, "--format", "json", "detect", "catalog:PSU(3,2)")
    assert code == 0
    data = json.loads(out)
    assert data["kappa"] == 7
    assert data["N"] == 8
    assert data["roots"] == [8.0, -1.0]
    assert data["dimAChiMinus"] == 8.0


def test_verlinde_catalog_double(capsys):
    code, out, _ = run(capsys, "--format", "json", "verlinde", "catalog:Z(Rep(S3))")
    assert code == 0
    data = json.loads(out)
    assert len(data["tensor"]) == 8
    assert data["globalDim"] == 36.0


def test_qforms_c9_classes(capsys):
    code, out, _ = run(capsys, "--format", "json", "qforms", "C9", "--classes")
    assert code == 0
    data = json.loads(out)
    assert data["numForms"] == 9
    assert data["numClasses"] == 5


def test_qforms_product_spec(capsys):
    code, out, _ = run(capsys, "--format", "json", "qforms", "C3xC3")
    assert code == 0
    assert json.loads(out)["numForms"] == 27


def test_qforms_classes_group_too_large_is_input_error(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "qforms", "C65", "--classes")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "64" in err


def test_verify_ok_and_violation(tmp_path, capsys):
    good = tmp_path / "c3.json"
    good.write_text(json.dumps(ring_to_json(group_ring([3]))))
    code, out, _ = run(capsys, "verify", str(good))
    assert code == 0

    data = ring_to_json(group_ring([3]))
    data["tensor"][1][1][2] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "violation" in out


def test_stdin_input(capsys, monkeypatch, tmp_path):
    import io
    payload = json.dumps(ring_to_json(group_ring([4])))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "fpdim", "-")
    assert code == 0
    assert "FPdim(ring) = 4" in out


def test_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_input_error_missing_file(capsys):
    code, _, err = run(capsys, "verify", "no-such-file.json")
    assert code == 3
    assert "input error" in err


def test_input_error_unknown_catalog(capsys):
    code, _, err = run(capsys, "detect", "catalog:nope")
    assert code == 3


def test_construct_detect_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "--format", "json", "construct",
                       "--subring", "catalog:C2", "--kappa", "2")
    assert code == 0
    ring_file = tmp_path / "r.json"
    ring_file.write_text(out)
    code, out, _ = run(capsys, "--format", "json", "detect", str(ring_file))
    assert code == 0
    assert json.loads(out)["kappa"] == 2


def test_cases_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "cases", "--N", "12")
    assert code == 0
    data = json.loads(out)
    assert {"kappa": 4, "dim": 48, "twistConstraint": "theta_rho = -1",
            "case": "case-3"} in data["cases"]


def test_gagola_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "gagola", "catalog:Aut(D9)")
    assert code == 0
    assert json.loads(out)["kappa"] == 3


def test_catalog_verify_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "catalog", "verify")
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "--format", "json", "catalog", "show", "S3")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "characterTable"
    assert data["payload"]["order"] == 6


def test_balance_command(capsys):
    code, out, _ = run(capsys, "balance", "catalog:Z(Rep(S3))", "catalog:Z(Rep(S3))")
    assert code == 0
    assert "balancing violations: 0" in out


def test_machine_output_byte_identical(capsys):
    _, out1, _ = run(capsys, "--format", "json", "chars", "catalog:A4")
    _, out2, _ = run(capsys, "--format", "json", "chars", "catalog:A4")
    assert out1 == out2
    _, out3, _ = run(capsys, "--format", "json", "codegrees", "catalog:Aut(D9)")
    _, out4, _ = run(capsys, "--format", "json", "codegrees", "catalog:Aut(D9)")
    assert out3 == out4


def test_data_dir_extension(tmp_path, capsys):
    extra = tmp_path / "myring.json"
    extra.write_text(json.dumps(ring_to_json(group_ring([5]))))
    code, out, _ = run(capsys, "--data-dir", str(tmp_path),
                       "fpdim", "catalog:myring")
    assert code == 0
    assert "FPdim(ring) = 5" in out


@pytest.mark.parametrize("payload", [
    table_to_json(catalog.load_entry("S3").payload),
    modular_datum_to_json(catalog.load_entry("Z(Rep(S3))").payload),
], ids=["S3-table", "Z(Rep(S3))-datum"])
def test_verify_stdin_table_or_datum_reads_stdin_once(payload, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run(capsys, "verify", "-")
    assert (code, err) == (0, "")
    assert "all axioms hold" in out


@pytest.mark.parametrize("argv, stdin, want", [
    (["verify", "-"], '{"tensor": [[[1, 0], [0, 1]], [[0, 1]]]}', 3),
    (["verify", "-"], '{"tensor": "x"}', 3),
    (["verify", "-"], '{"tensor": null}', 3),
    (["verify", "-"], '{"tensor": []}', 3),
    (["fpdim", "-"], '{"tensor": [[["a"]]]}', 3),
    (["verify", "-"], '{"tensor": [[[1, 0], [0, 1]], [[0, 1], [1e300, 0]]]}', 3),
    (["verify", "-"], '{"tensor": [[[1]]], "labels": 5}', 3),
    (["detect", "-"], '{"tensor": [[[1]]], "dual": 0}', 3),
    (["cases", "--N", "0"], None, 2),
    (["cases", "--N", "-4"], None, 2),
    (["verify", "-"], '{"tensor": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]}', 1),
    (["verify", "-"], '{"tensor": [[[1, 0], [0, 1]], [[0, 1], [0.5, 0]]]}', 1),
    (["fpdim", "-"], '{"tensor": [[[1, 0], [0, 1]], [[0, 1], [1, 1.000009]]]}', 1),
    (["fpdim", "-"], '{"tensor": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 1.0]]]}', 0),
])
def test_malformed_input_exit_codes(argv, stdin, want, capsys, monkeypatch):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, _, err = run(capsys, *argv)
    assert code == want
    assert len(err.splitlines()) == (want != 0) and "Traceback" not in err


json_scalars = (st.none() | st.booleans() | st.text(max_size=3)
                | st.integers(-2 ** 70, 2 ** 70) | st.floats())
small_ints = st.integers(-1, 3)
cubic_tensors = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.lists(small_ints | json_scalars, min_size=n, max_size=n),
             min_size=n, max_size=n), min_size=n, max_size=n))
nested = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=12)
ring_json = st.fixed_dictionaries(
    {"tensor": cubic_tensors | nested},
    optional={"labels": nested, "dual": st.lists(small_ints | json_scalars, max_size=3) | nested})


@settings(max_examples=150, deadline=None)
@given(ring_json, st.sampled_from(["verify", "fpdim"]))
def test_random_ring_json_never_escapes(data, command):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        mp.setattr("sys.stdout", out)
        mp.setattr("sys.stderr", err)
        code = cli.run([command, "-"])
    assert code in (0, 1, 3)
    assert len(err.getvalue().splitlines()) <= 1
