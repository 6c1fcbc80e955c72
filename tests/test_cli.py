"""Command line interface: exit codes, determinism, machine output."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fusionring import catalog, cli, core
from fusionring.core import (FusionRingError, group_ring, ring_to_json, table_to_json,
                             validate_tensor)
from fusionring.nearintegral import construct, gagola_analyze
from fusionring.premodular import modular_datum_to_json
from shared_rings import HOSTILE_SCALARS, cyclic_form_class_count, scalar_id


S3_TABLE_JSON = json.dumps(table_to_json(catalog.load_entry("S3").payload))


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
    # classes come from generators of Aut(G), so only the form table's
    # bound of 2^20 values refuses a group: C65 (65 forms) is classified
    # and C726 (2 * 726^2 forms times |G| = 726 values) is refused
    start = time.perf_counter()
    code, out, _ = run(capsys, "--format", "json", "qforms", "C65", "--classes")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["numClasses"] == cyclic_form_class_count(65)
    start = time.perf_counter()
    code, out, err = run(capsys, "qforms", "C726", "--classes")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "bound of 1048576 form values" in err


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


def test_verify_stdin_rank_101(capsys, monkeypatch):
    # R(C100, 15), the extraspecial_kappa(5, 1) ring: outside JSON of rank
    # 101 is validated in full
    payload = json.dumps(ring_to_json(construct(group_ring([100]), 15)))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, _, err = run(capsys, "verify", "-")
    assert code == 0 and err == ""


def test_stdin_input(capsys, monkeypatch, tmp_path):
    import io
    payload = json.dumps(ring_to_json(group_ring([4])))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "fpdim", "-")
    assert code == 0
    assert "FPdim(ring) = 4" in out


def test_ring_json_is_checked_once(capsys, monkeypatch):
    """cli.load reads ring JSON into a ring, checked as it is built, and
    CatalogEntry.ring returns it, so the tensor is read by _as_tensor and
    checked by validate_tensor once."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(ring_to_json(group_ring([4])))))
    calls, as_tensor, validate = [], core._as_tensor, core.validate_tensor
    monkeypatch.setattr(core, "_as_tensor", lambda t: calls.append(t) or as_tensor(t))
    monkeypatch.setattr(core, "validate_tensor", lambda *a: calls.append(a) or validate(*a))
    code, out, err = run(capsys, "fpdim", "-")
    assert (code, err, len(calls)) == (0, "", 2)
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


@pytest.mark.parametrize("name", [n for n in catalog.list_catalog()
                                  if catalog.load_entry(n).kind == "characterTable"])
def test_gagola_command_matches_library(name, capsys):
    code, out, _ = run(capsys, "--format", "json", "gagola", f"catalog:{name}")
    data = json.loads(out)
    try:
        report = gagola_analyze(catalog.load_entry(name).payload)
    except FusionRingError:
        report = None
    if report is None:
        assert (code, data["found"]) == (1, False)
    else:
        assert (code, data["found"]) == (0, True)
        assert {k: data[k] for k in ("kappa", "rhoRow", "vanishingClasses")} == report.to_json()


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
    # the second call reads the ring the entry kept from the first
    for command in ("verify", "fpdim", "detect"):
        for name in ("PSU(3,2)", "Z(Rep(S3))"):
            argv = ("--format", "json", command, f"catalog:{name}")
            assert run(capsys, *argv) == run(capsys, *argv)


def test_data_dir_extension(tmp_path, capsys):
    extra = tmp_path / "myring.json"
    extra.write_text(json.dumps(ring_to_json(group_ring([5]))))
    code, out, _ = run(capsys, "--data-dir", str(tmp_path),
                       "fpdim", "catalog:myring")
    assert code == 0
    assert "FPdim(ring) = 5" in out


def test_data_dir_ring_breaking_an_axiom(tmp_path, capsys):
    data = ring_to_json(group_ring([3]))
    data["tensor"][1][1][2] = 2
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code, out, err = run(capsys, "--data-dir", str(tmp_path), "detect", "catalog:bad")
    assert (code, out) == (1, "")
    assert err.startswith("AxiomViolation: ") and err.count("\n") == 1
    code, out, err = run(capsys, "--data-dir", str(tmp_path), "--format", "json",
                         "verify", "catalog:bad")
    assert (code, err) == (1, "")
    want = validate_tensor(np.array(data["tensor"]), data["dual"])
    assert json.loads(out)["violations"] == [
        {"axiom": a, "index": list(i), "detail": d} for a, i, d in want]
    assert len(want) > 1


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
    (["construct", "--subring", "catalog:C2", "--kappa", "99999999999999999999"], None, 1),
    (["verify", "-"], '{"order": 2, "rows": [[1, 1], [1]]}', 3),
    (["verify", "-"], '{"order": "x", "rows": [[1, 1], [1, -1]]}', 3),
    (["verify", "-"], '{"S": [[1]], "T": [[0]]}', 3),
    (["verify", "-"], '{"order": 2, "rows": [[1, 1], [1, "zeta(0,1)"]]}', 3),
    (["verify", "-"], '{"order": 2, "rows": [[1, 1], [1, "zeta(2,1"]]}', 3),
    (["--seed", "3", "chars", "catalog:S3"], None, 2),
    (["--tolerance", "1e-3", "detect", "catalog:S3"], None, 2),
    (["gagola", "catalog:Z(Rep(S3))"], None, 3),
    (["balance", "catalog:Z(Rep(S3))", "catalog:S3"], None, 3),
    (["verify", "-"], '{"order": 2}', 3),
    (["gagola", "-"], '{"tensor": [[[1]]]}', 3),
    (["verlinde", "-"], '{"order": 2, "rows": [[1, 1], [1, 1]]}', 3),
    (["fpdim", "catalog:groups<=6classes"], None, 3),
    (["--data-dir", "{tmp}", "fpdim", "catalog:S3-table"], None, 0),
    (["catalog", "show", "nope"], None, 3),
    (["qforms", "C2xC2xC2xC2xC2xC2"], None, 3),
    (["qforms", "C2xC2xC2xC2xC2xC2", "--classes"], None, 3),
    (["verify", "-"], '{"tensor": [[[1,0],[0,1]],[[0,1],[1,0]]], "dual": [0]}', 3),
    (["verify", "-"], '{"tensor": [[[1,0],[0,1]],[[0,1],[1,0]]], "labels": ["a", "a"]}', 3),
    (["qforms", "C" + "9" * 5000, "--classes"], None, 3),  # more digits than int() reads
    (["codegrees", "catalog:rank4/C(A1,5,q)_ad x Rep(C2,nu)"], None, 3),  # no ring
    (["verify", "-"], '{"order": 2, "rows": [[1, 1], [1, -1]], "classSizes": [0, 2]}', 3),
    (["chars", "-"], '{"order": 2, "rows": [[1, 1], [1, -1]], "classSizes": [1]}', 3),
    (["gagola", "-"], '{"order": 2, "rows": [[1, 1], [1, -1]], "classSizes": [1, 1.0]}', 3),
    (["verify", "-"], '{"order": 2, "rows": [[1, 1], [1, -1]], "classSizes": 2}', 3),
])
def test_malformed_input_exit_codes(argv, stdin, want, capsys, monkeypatch, tmp_path):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    (tmp_path / "S3-table.json").write_text(S3_TABLE_JSON)
    code, _, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == want
    assert len(err.splitlines()) == (want != 0) and "Traceback" not in err


@pytest.mark.parametrize("argv, stdin, want, message", [
    (["gagola", "catalog:Z(Rep(S3))"], None, 3,
     "input error: Z(Rep(S3)) is a modularDatum, not a character table"),
    (["balance", "catalog:Z(Rep(S3))", "catalog:S3"], None, 3,
     "input error: S3 is a characterTable, not a modular datum"),
    (["verify", "-"], '{"order": 2}', 3,
     "input error: cannot tell what this JSON is; expected keys 'tensor' (fusion ring), "
     "'rows' (character table) or 'S' (modular datum)"),
    (["gagola", "-"], '{"tensor": [[[1]]]}', 3,
     "input error: expected character-table JSON with a 'rows' key"),
    # the kind is decided before the (invalid) table is read
    (["verlinde", "-"], '{"order": 2, "rows": [[1, 1], [1, 1]]}', 3,
     "input error: expected modular-datum JSON with an 'S' key"),
    (["fpdim", "catalog:groups<=6classes"], None, 3,
     "input error: entry 'groups<=6classes' of kind groupList is not ring-valued"),
    (["catalog", "show", "nope"], None, 3, "input error: unknown catalog entry 'nope'"),
    (["catalog", "show"], None, 3, "input error: catalog show needs an entry name"),
    (["cases", "--N", "x"], None, 2, "usage error: argument --N: invalid int value: 'x'"),
    (["verify", "-"], '{"order": 2, "rows": [[1, 1], [1, [1, 0, 0]]]}', 3,
     "input error: 'rows' has an unreadable entry: complex pair must have length 2: [1, 0, 0]"),
    (["verify", "-"], '{"order": 2, "rows": [[1, 1], [1, 1e19]]}', 3,
     "input error: 'rows' entries must have modulus below 2^63"),
])
def test_input_kind_messages(argv, stdin, want, message, capsys, monkeypatch):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (want, "", message + "\n")


ALL_ONES = json.dumps({"tensor": [[[1] * 4] * 4] * 4, "dual": [0, 1, 2, 3]})


def test_many_violations_are_cut_short(capsys, monkeypatch):
    # the all-ones rank-4 tensor breaks 36 axiom instances: verify lists 25
    # and counts the rest, an AxiomViolation message names 8
    monkeypatch.setattr("sys.stdin", io.StringIO(ALL_ONES))
    code, out, err = run(capsys, "verify", "-")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (1, "", 27)
    assert (lines[0], lines[-1]) == ("rank 4 ring: 36 violations", "  ... and 11 more")
    monkeypatch.setattr("sys.stdin", io.StringIO(ALL_ONES))
    code, out, err = run(capsys, "fpdim", "-")
    assert (code, out) == (1, "")
    assert err.startswith("AxiomViolation: unit at (0, 0, 1): c[0][0][1] = 1; ")
    assert err.endswith("; ... and 28 more\n") and err.count("\n") == 1


def test_non_text_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "fpdim", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_run_builds_no_parser(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("cli.run built a parser")
    monkeypatch.setattr(cli, "build_parser", fail)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", fail)
    code, out, _ = run(capsys, "fpdim", "catalog:S3")
    assert code == 0 and "FPdim(ring) = 6" in out


def test_detect_stdin_large_kappa(capsys, monkeypatch):
    # R(C1, 10^4): detect and dim(A_chi-) at large kappa
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps(ring_to_json(construct(group_ring([1]), 10 ** 4)))))
    code, out, err = run(capsys, "--format", "json", "detect", "-")
    assert (code, err) == (0, "")
    assert json.loads(out)["kappa"] == 10 ** 4


@pytest.mark.parametrize("text", HOSTILE_SCALARS, ids=scalar_id)
def test_hostile_table_string_is_one_line_input_error(text, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"order": 2, "rows": [[1, 1], [1, text]]})))
    code, out, err = run(capsys, "verify", "-")
    assert (code, out) == (3, "")
    assert err.startswith("input error: 'rows' has an unreadable entry: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "--format", "json", "catalog", "list")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["name"] for e in entries] == catalog.list_catalog()
    assert all(set(e) == {"name", "kind"} for e in entries)
    assert {e["kind"] for e in entries} == {"characterTable", "modularDatum", "groupList",
                                           "classificationRow"}


@pytest.mark.parametrize("name, kind, body_keys", [
    ("Z(Rep(S3))", "modularDatum", {"S", "T", "dims"}),
    ("rank4/C(A1,8,q)_ad", "classificationRow",
     {"family", "name", "fpdim", "dims", "center", "count"}),
    ("rank6-tannakian1/C(G2,21,q)", "classificationRow",
     {"family", "name", "fpdim", "dims", "center", "count", "countUnverified"}),
])
def test_catalog_show_kinds(name, kind, body_keys, capsys):
    code, out, _ = run(capsys, "--format", "json", "catalog", "show", name)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"name", "kind", "provenance", "payload"}
    assert (data["name"], data["kind"]) == (name, kind)
    assert set(data["payload"]) == body_keys


def test_catalog_show_group_list(capsys):
    code, out, _ = run(capsys, "--format", "json", "catalog", "show", "groups<=6classes")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "groupList"
    assert data["payload"] == list(catalog.load_entry("groups<=6classes").payload)
    assert set(data["payload"][0]) == {"name", "order", "numClasses", "numCentralInvolutive"}


@pytest.mark.parametrize("argv, payload, want", [
    (["detect", "-"], ring_to_json(group_ring([4])), {"nearIntegral": False}),
    (["gagola", "-"], {"order": 3, "rows": [[1, 1, 1], [1, "zeta(3,1)", "zeta(3,2)"],
                                            [1, "zeta(3,2)", "zeta(3,1)"]]},
     {"found": False, "reason": "no qualifying class/row pair"}),
])
def test_negative_findings_exit_1(argv, payload, want, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run(capsys, "--format", "json", *argv)
    assert (code, err) == (1, "")
    assert json.loads(out) == want


def test_qforms_empty_factor_is_input_error(capsys):
    code, out, err = run(capsys, "qforms", "Cx")
    assert (code, out) == (3, "")
    assert err == "input error: bad group spec 'Cx'; use products of cyclic factors like C9 or C3xC3\n"


def subprocess_env(**env):
    """The environment of a fresh process that imports this fusionring,
    with env added."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env)


def run_subprocess(*argv, stdin=None, **env):
    """python -m fusionring.cli in a fresh process, with env added."""
    return subprocess.run([sys.executable, "-m", "fusionring.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=subprocess_env(**env), timeout=60)


def test_closed_stdout_is_not_a_traceback(tmp_path):
    # R(C40, 2) as JSON is about 300 kB, more than a pipe buffer holds, so
    # the command is still printing when the reader closes the pipe, as
    # `... | head -c 100` does
    path = tmp_path / "c40.json"
    path.write_text(json.dumps(ring_to_json(group_ring([40]))))
    argv = ["--format", "json", "construct", "--subring", str(path), "--kappa", "2"]
    proc = subprocess.Popen([sys.executable, "-m", "fusionring.cli", *argv], env=subprocess_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b"{") and len(head) == 100
    assert "Traceback" not in err and err == ""


def test_datum_overflow_prints_one_stderr_line():
    # a subprocess, because pytest records numpy's RuntimeWarnings instead
    # of letting them reach stderr
    datum = '{"S": [[1, 1e-320], [1e-320, 1]], "T": [[0, 1], [0, 1]]}'
    proc = run_subprocess("verify", "-", stdin=datum)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_verlinde_multiplicity_overflow_prints_one_stderr_line():
    # N[1][1][1] = 1e300 once wrapped to INT64_MIN, with numpy's cast
    # warning and a "nonnegative" finding
    datum = '{"S": [[1, 1e-300], [1e-300, 1]], "T": [[0, 1], [1, 4]]}'
    proc = run_subprocess("verlinde", "-", stdin=datum)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "NonIntegralMultiplicity: N[1][1][1] = 1e+300 does not fit in int64\n"


def test_fusionring_tol_environment_is_ignored():
    argv = ("--format", "json", "fpdim", "catalog:S3")
    plain = run_subprocess(*argv)
    with_env = run_subprocess(*argv, FUSIONRING_TOL="abc")
    assert (with_env.returncode, with_env.stderr) == (0, "")
    assert with_env.stdout == plain.stdout


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
# matrix entries as parse_scalar reads them: numbers, [re, im] pairs, zeta strings
scalars = (small_ints | json_scalars | st.lists(small_ints | st.floats(), min_size=2, max_size=2)
           | st.sampled_from(["-1", "zeta(3,1)", "2*zeta(4,1)", "zeta(0,1)", "zeta(2,1"]
                             + HOSTILE_SCALARS))
square_matrices = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
int_lists = st.lists(small_ints | json_scalars, max_size=3) | nested
table_json = st.fixed_dictionaries(
    {"order": st.integers(-1, 8) | json_scalars, "rows": square_matrices | nested},
    optional={"classSizes": int_lists})
datum_json = st.fixed_dictionaries(
    {"S": square_matrices | nested, "T": st.lists(int_lists, max_size=3) | nested},
    optional={"dims": int_lists})


# every command that reads one ring, table or datum from stdin
STDIN_COMMANDS = [["verify", "-"], ["fpdim", "-"], ["chars", "-"], ["codegrees", "-"],
                  ["detect", "-"], ["verlinde", "-"], ["gagola", "-"],
                  ["construct", "--subring", "-", "--kappa", "1"]]


@settings(max_examples=300, deadline=None)
@given(ring_json | table_json | datum_json, st.sampled_from(STDIN_COMMANDS))
@example({"order": 1, "rows": [[0]]}, ["verify", "-"])  # a zero column
@example({"order": 2, "rows": [[1, 1], [1, -1]], "classSizes": [0, 2]}, ["verify", "-"])
def test_random_ring_json_never_escapes(data, argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        mp.setattr("sys.stdout", out)
        mp.setattr("sys.stderr", err)
        code = cli.run(argv)
    assert code in (0, 1, 3)
    assert len(err.getvalue().splitlines()) <= 1


def test_balance_rejects_an_invalid_datum(tmp_path, capsys):
    ring, datum = tmp_path / "ring.json", tmp_path / "datum.json"
    ring.write_text(json.dumps(ring_to_json(group_ring([1]))))
    datum.write_text('{"S": [[2]], "T": [[0, 1]]}')
    for command in (["verlinde", str(datum)], ["balance", str(ring), str(datum)]):
        code, out, err = run(capsys, *command)
        assert (code, out) == (1, "")
        assert err == "FusionRingError: S[0][0] must be 1 (unnormalized convention)\n"


@pytest.mark.parametrize("argv", [
    ["verify", "catalog:S3"],
    ["fpdim", "catalog:A4"],
    ["chars", "catalog:A4"],
    ["codegrees", "catalog:S3"],
    ["detect", "catalog:PSU(3,2)"],
    ["construct", "--subring", "catalog:C2", "--kappa", "1"],
    ["verlinde", "catalog:Z(Rep(S3))"],
    ["balance", "catalog:Z(Rep(S3))", "catalog:Z(Rep(S3))"],
    ["qforms", "C3xC3", "--classes"],
    ["gagola", "catalog:Aut(D9)"],
    ["cases", "--N", "8"],
    ["catalog", "list"],
    ["catalog", "verify"],
    ["catalog", "show", "S3"],
    ["catalog", "show", "Z(Rep(S3))"],
    ["catalog", "show", "groups<=6classes"],
    ["catalog", "show", "rank4/C(A1,8,q)_ad"],
], ids=" ".join)
def test_every_command_emits_plain_json(argv, capsys):
    """_to_json writes only the types commands emit; a numpy integer or
    bool in a payload would make it raise here."""
    code, out, err = run(capsys, "--format", "json", *argv)
    assert (code, err) == (0, "")
    assert isinstance(json.loads(out), dict)
