"""Command line front end.

Every library operation is exposed as a batch subcommand. Ring, table and
modular-datum inputs are JSON file paths, "-" for standard input, or
catalog:<name> references; an extra directory of user entries can be added
with --data-dir. Exit codes: 0 clean, 1 violation/negative finding, 2 usage
error, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import catalog, nearintegral, premodular, spectral, structure
from .core import (FusionRing, FusionRingError, MalformedInput,
                   character_table_to_fusion_ring, ring_from_json, ring_to_json,
                   table_from_json, validate_tensor)
from .premodular import modular_datum_from_json

OK, VIOLATION, USAGE_ERROR, INPUT_ERROR = 0, 1, 2, 3


class InputProblem(Exception):
    pass


# ---------------------------------------------------------------------------
# output formatting


def _round12(obj):
    """Recursively normalize floats to 12 significant digits so machine
    output is byte-identical across runs."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return [_round12(obj.real), _round12(obj.imag)]
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _round12(float(obj))
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    return obj


def _fnum(x: float) -> str:
    return f"{float(x):.12g}"


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(_round12(payload), sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# input plumbing


def _read_json_source(spec: str, args):
    if spec == "-":
        try:
            return json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            raise InputProblem(f"stdin is not valid JSON: {exc}")
    try:
        with open(spec) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputProblem(f"cannot read {spec}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputProblem(f"{spec} is not valid JSON: {exc}")


def _resolve(spec: str, args):
    """Resolve an input spec to ("entry", CatalogEntry) or ("json", data)."""
    if spec.startswith("catalog:"):
        name = spec[len("catalog:"):]
        try:
            return "entry", catalog.load_entry(name)
        except catalog.UnknownEntry:
            if args.data_dir:
                path = os.path.join(args.data_dir, name + ".json")
                if os.path.exists(path):
                    return "json", _read_json_source(path, args)
            raise InputProblem(f"unknown catalog entry {name!r}")
    return "json", _read_json_source(spec, args)


def _json_kind(data) -> str:
    if isinstance(data, dict):
        if "tensor" in data:
            return "ring"
        if "rows" in data:
            return "characterTable"
        if "S" in data:
            return "modularDatum"
    raise InputProblem(
        "cannot tell what this JSON is; expected keys 'tensor' (fusion ring), "
        "'rows' (character table) or 'S' (modular datum)")


def _build_ring(kind: str, obj) -> FusionRing:
    """The fusion ring of a resolved input spec."""
    if kind == "entry":
        return catalog.entry_ring(obj.name)
    jk = _json_kind(obj)
    if jk == "ring":
        return ring_from_json(obj)
    if jk == "characterTable":
        return character_table_to_fusion_ring(table_from_json(obj))
    ring, _ = premodular.verlinde_fusion(modular_datum_from_json(obj))
    return ring


def load_ring(spec: str, args) -> FusionRing:
    return _build_ring(*_resolve(spec, args))


def load_table(spec: str, args):
    kind, obj = _resolve(spec, args)
    if kind == "entry":
        if obj.kind != "characterTable":
            raise InputProblem(f"{obj.name} is a {obj.kind}, not a character table")
        return obj.payload
    if _json_kind(obj) != "characterTable":
        raise InputProblem("expected character-table JSON with a 'rows' key")
    return table_from_json(obj)


def load_datum(spec: str, args):
    kind, obj = _resolve(spec, args)
    if kind == "entry":
        if obj.kind != "modularDatum":
            raise InputProblem(f"{obj.name} is a {obj.kind}, not a modular datum")
        return obj.payload
    if _json_kind(obj) != "modularDatum":
        raise InputProblem("expected modular-datum JSON with an 'S' key")
    return modular_datum_from_json(obj)


def parse_group_spec(text: str):
    """'C9' or 'C3xC3' -> list of cyclic factor orders."""
    parts = text.split("x")
    factors = []
    for p in parts:
        m = re.fullmatch(r"C(\d+)", p.strip())
        if not m or int(m.group(1)) < 1:
            raise InputProblem(
                f"bad group spec {text!r}; use products of cyclic factors like C9 or C3xC3")
        factors.append(int(m.group(1)))
    return factors


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    kind, obj = _resolve(args.ring, args)
    if kind == "json" and _json_kind(obj) == "ring":
        ring = ring_from_json(obj, validate=False)
        violations = validate_tensor(ring.tensor, ring.dual)
    else:
        ring = _build_ring(kind, obj)
        violations = []
    payload = {
        "rank": ring.rank,
        "ok": not violations,
        "violations": [{"axiom": a, "index": list(i), "detail": d}
                       for a, i, d in violations],
    }
    lines = [f"rank {ring.rank} ring: " + ("all axioms hold" if not violations
                                           else f"{len(violations)} violations")]
    lines += [f"  [{a}] at {i}: {d}" for a, i, d in violations[:25]]
    if len(violations) > 25:
        lines.append(f"  ... and {len(violations) - 25} more")
    _emit(args, payload, lines)
    return OK if not violations else VIOLATION


def cmd_fpdim(args) -> int:
    ring = load_ring(args.ring, args)
    dims = spectral.fpdims(ring)
    payload = {"labels": list(ring.labels), "fpdims": dims.tolist(),
               "ringFPdim": float(np.sum(dims ** 2))}
    lines = [f"{lab}: {_fnum(d)}" for lab, d in zip(ring.labels, dims)]
    lines.append(f"FPdim(ring) = {_fnum(np.sum(dims ** 2))}")
    _emit(args, payload, lines)
    return OK


def cmd_chars(args) -> int:
    ring = load_ring(args.ring, args)
    chars = spectral.characters(ring, tol=args.tolerance, seed=args.seed)
    payload = {
        "labels": list(ring.labels),
        "characters": [{"values": [[z.real, z.imag] for z in c.values],
                        "codegree": c.codegree,
                        "isFPdim": c.is_fpdim} for c in chars],
    }
    lines = []
    for k, c in enumerate(chars):
        vals = ", ".join(
            _fnum(z.real) if abs(z.imag) < 1e-9 else f"{_fnum(z.real)}{z.imag:+.6g}i"
            for z in c.values)
        tag = " (FPdim)" if c.is_fpdim else ""
        lines.append(f"chi_{k}{tag}: [{vals}]  codegree {_fnum(c.codegree)}")
    _emit(args, payload, lines)
    return OK


def cmd_codegrees(args) -> int:
    ring = load_ring(args.ring, args)
    report = spectral.spectral_report(ring)
    payload = report.to_json()
    lines = [
        "codegrees: " + ", ".join(_fnum(f) for f in payload["codegrees"]),
        "codegree object dims: " + ", ".join(_fnum(d) for d in payload["codegreeDims"]),
        "induction-unit profile: " + ", ".join(str(x) for x in payload["inductionUnitProfile"]),
        f"FPdim(ring) = {_fnum(payload['ringFPdim'])}",
    ]
    _emit(args, payload, lines)
    return OK


def cmd_detect(args) -> int:
    ring = load_ring(args.ring, args)
    report = nearintegral.detect(ring, tol=args.tolerance)
    if report is None:
        _emit(args, {"nearIntegral": False},
              ["no near-integral structure found"])
        return VIOLATION
    payload = report.to_json()
    payload["nearIntegral"] = True
    payload["roots"] = [report.d_plus, report.d_minus]
    payload["dimAChiMinus"] = nearintegral.dim_a_chi_minus(report)
    lines = [
        f"near-integral: rho = {ring.labels[report.rho_index]} over subring "
        f"{[ring.labels[i] for i in report.subring_indices]}",
        f"kappa = {report.kappa}, N = {report.big_n}",
        f"quadratic t^2 - {report.kappa} t - {report.big_n}: roots "
        f"d+ = {_fnum(report.d_plus)}, d- = {_fnum(report.d_minus)}"
        + (" (d+ integral)" if report.d_plus_exact_integer else ""),
        f"dim(A_chi-) = {_fnum(payload['dimAChiMinus'])}",
    ]
    for f in report.flags:
        lines.append(f"flag: {f}")
    _emit(args, payload, lines)
    return OK


def cmd_construct(args) -> int:
    sub = load_ring(args.subring, args)
    ring = nearintegral.construct(sub, args.kappa)
    payload = ring_to_json(ring)
    lines = [f"rank {ring.rank} ring with labels {list(ring.labels)}",
             json.dumps(ring_to_json(ring))]
    _emit(args, payload, lines)
    return OK


def cmd_verlinde(args) -> int:
    m = load_datum(args.datum, args)
    ring, info = premodular.verlinde_fusion(m)
    payload = dict(ring_to_json(ring))
    payload.update({"globalDim": info["globalDim"], "dims": list(info["dims"]),
                    "maxSnapError": info["maxSnapError"]})
    lines = [
        f"rank {ring.rank} fusion ring from the Verlinde formula",
        f"global dim {_fnum(info['globalDim'])}, "
        f"max integrality error {_fnum(info['maxSnapError'])}",
        "dims: " + ", ".join(_fnum(d) for d in info["dims"]),
    ]
    _emit(args, payload, lines)
    return OK


def cmd_balance(args) -> int:
    ring = load_ring(args.ring, args)
    m = load_datum(args.datum, args)
    bad = premodular.balancing_check(ring, m, tol=args.tolerance)
    plus, minus = premodular.gauss_sums(m.dims, m.twist_values())
    payload = {
        "violations": [{"i": i, "j": j, "error": e} for i, j, e in bad],
        "gaussPlus": [plus.real, plus.imag],
        "gaussMinus": [minus.real, minus.imag],
        "gaussProduct": [(plus * minus).real, (plus * minus).imag],
        "globalDim": m.global_dim,
    }
    lines = [f"balancing violations: {len(bad)}"]
    lines += [f"  ({i},{j}) error {_fnum(e)}" for i, j, e in bad[:25]]
    lines.append(f"gauss sums: tau+ tau- = {_fnum((plus * minus).real)}"
                 f"{(plus * minus).imag:+.3g}i, global dim {_fnum(m.global_dim)}")
    _emit(args, payload, lines)
    return OK if not bad else VIOLATION


def cmd_qforms(args) -> int:
    factors = parse_group_spec(args.group)
    # form_classes rejects a group above its size bound before enumerating
    classes = premodular.form_classes(factors) if args.classes else None
    forms = premodular.quadratic_forms(factors)
    payload = {"factors": factors, "numForms": len(forms)}
    lines = [f"{len(forms)} quadratic forms on " + " x ".join(f"C{n}" for n in factors)]
    if args.classes:
        payload["numClasses"] = len(classes)
        lines.append(f"{len(classes)} classes under automorphisms")
    _emit(args, payload, lines)
    return OK


def cmd_gagola(args) -> int:
    table = load_table(args.table, args)
    try:
        report = nearintegral.gagola_analyze(table, tol=args.tolerance)
    except FusionRingError as exc:
        _emit(args, {"found": False, "reason": str(exc)}, [f"no Gagola character: {exc}"])
        return VIOLATION
    if report is None:
        _emit(args, {"found": False, "reason": "no qualifying class/row pair"},
              ["no Gagola character found"])
        return VIOLATION
    payload = report.to_json()
    payload["found"] = True
    deg = int(round(table.rows[report.rho_row, 0].real))
    lines = [
        f"Gagola character: row {report.rho_row} (degree {deg})",
        f"kappa = 2*{deg} - {table.order}/{deg} = {report.kappa}",
        f"vanishing on {report.vanishing_classes} nontrivial classes",
    ]
    _emit(args, payload, lines)
    return OK


def cmd_cases(args) -> int:
    rows = premodular.braided_cases(args.N)
    payload = {"N": args.N,
               "cases": [{"kappa": k, "dim": d, "twistConstraint": t, "case": c}
                         for k, d, t, c in rows]}
    lines = [f"kappa = {k}: dim {d}, {t}  [{c}]" for k, d, t, c in rows]
    _emit(args, payload, lines)
    return OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        names = catalog.list_catalog()
        payload = {"entries": [{"name": n, "kind": catalog.load_entry(n).kind}
                               for n in names]}
        lines = [f"{catalog.load_entry(n).kind:20s} {n}" for n in names]
        _emit(args, payload, lines)
        return OK
    if args.action == "verify":
        results = catalog.verify_catalog(tol=args.tolerance)
        bad = [r for r in results if not r[1]]
        payload = {"entries": [{"name": n, "ok": ok, "detail": d}
                               for n, ok, d in results],
                   "failures": len(bad)}
        lines = [f"{'pass' if ok else 'FAIL'}  {n}: {d}" for n, ok, d in results]
        lines.append(f"{len(results)} entries, {len(bad)} failures")
        _emit(args, payload, lines)
        return OK if not bad else VIOLATION
    # show
    if not args.name:
        raise InputProblem("catalog show needs an entry name")
    entry = catalog.load_entry(args.name)
    if entry.kind == "characterTable":
        from .core import table_to_json
        body = table_to_json(entry.payload)
    elif entry.kind == "modularDatum":
        body = premodular.modular_datum_to_json(entry.payload)
    elif entry.kind == "classificationRow":
        body = entry.payload.to_json()
    else:
        body = list(entry.payload)
    payload = {"name": entry.name, "kind": entry.kind,
               "provenance": entry.provenance, "payload": body}
    lines = [f"{entry.name} ({entry.kind}) - {entry.provenance}",
             json.dumps(_round12(body), sort_keys=True)]
    _emit(args, payload, lines)
    return OK


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputProblemUsage(message)


class InputProblemUsage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    default_tol = float(os.environ.get("FUSIONRING_TOL", "1e-6"))
    p = _Parser(prog="fusionring", description=__doc__)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--tolerance", type=float, default=default_tol)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data-dir", default=None,
                   help="directory of extra <name>.json entries for catalog: refs")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="check all fusion ring axioms")
    sp.add_argument("ring")
    sp.set_defaults(func=cmd_verify)
    sp = sub.add_parser("fpdim", help="Frobenius-Perron dimensions")
    sp.add_argument("ring")
    sp.set_defaults(func=cmd_fpdim)
    sp = sub.add_parser("chars", help="characters of a commutative ring")
    sp.add_argument("ring")
    sp.set_defaults(func=cmd_chars)
    sp = sub.add_parser("codegrees", help="formal codegrees and related data")
    sp.add_argument("ring")
    sp.set_defaults(func=cmd_codegrees)
    sp = sub.add_parser("detect", help="find a near-integral structure")
    sp.add_argument("ring")
    sp.set_defaults(func=cmd_detect)
    sp = sub.add_parser("construct", help="build the near-integral extension")
    sp.add_argument("--subring", required=True)
    sp.add_argument("--kappa", type=int, required=True)
    sp.set_defaults(func=cmd_construct)
    sp = sub.add_parser("verlinde", help="fusion ring from an S-matrix")
    sp.add_argument("datum")
    sp.set_defaults(func=cmd_verlinde)
    sp = sub.add_parser("balance", help="balancing equation check")
    sp.add_argument("ring")
    sp.add_argument("datum")
    sp.set_defaults(func=cmd_balance)
    sp = sub.add_parser("qforms", help="quadratic forms on an abelian group")
    sp.add_argument("group")
    sp.add_argument("--classes", action="store_true")
    sp.set_defaults(func=cmd_qforms)
    sp = sub.add_parser("gagola", help="Gagola character analysis of a table")
    sp.add_argument("table")
    sp.set_defaults(func=cmd_gagola)
    sp = sub.add_parser("cases", help="braided near-integral constraint cases")
    sp.add_argument("--N", type=_positive_int, required=True)
    sp.set_defaults(func=cmd_cases)
    sp = sub.add_parser("catalog", help="list, verify or show built-in data")
    sp.add_argument("action", choices=("list", "verify", "show"))
    sp.add_argument("name", nargs="?")
    sp.set_defaults(func=cmd_catalog)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except InputProblemUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except (InputProblem, MalformedInput, premodular.GroupTooLarge) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except FusionRingError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return VIOLATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
