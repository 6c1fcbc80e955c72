"""Command line front end.

Batch subcommands for the library's operations, save subring enumeration,
gradings, integral subrings and near-integral codegrees. Ring, table and
modular-datum inputs are JSON file paths, "-" for standard input, or
catalog:<name> references; an extra directory of user entries can be added
with --data-dir. Each cmd_* returns (exit code, payload, text lines), and run
alone writes stdout. Exit codes: 0 clean, 1 violation/negative finding,
2 usage error, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import catalog, nearintegral, premodular, spectral
from .core import (AxiomViolation, FusionRingError, MalformedInput, _json_object,
                   ring_from_json, ring_to_json, table_from_json, table_to_json)
from .exact import _agrees

OK, VIOLATION, USAGE_ERROR, INPUT_ERROR = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# output formatting


_quote = json.encoder.encode_basestring_ascii
_JSON_NAMES = {None: "null", True: "true", False: "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _to_json(obj, indent=None) -> str:
    """json.dumps(obj, sort_keys=True, indent=indent) with every float
    first rounded to 12 significant digits, so machine output is
    byte-identical across runs. Takes str-keyed dicts, lists, tuples, str,
    int, float, bool and None; a list of ints is written with one join."""
    step = " " * (indent or 0)

    def write(x, pad):
        if isinstance(x, str):
            return _quote(x)
        if isinstance(x, float):
            text = repr(float(f"{x:.12g}"))
            return _JSON_NAMES.get(text, text)
        if x is None or isinstance(x, bool):
            return _JSON_NAMES[x]
        if isinstance(x, int):
            return int.__repr__(x)
        if not isinstance(x, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        inner = pad + step
        head, sep, tail = (("", ", ", "") if indent is None
                           else ("\n" + inner, ",\n" + inner, "\n" + pad))
        if isinstance(x, dict):
            return "{" + head + sep.join(f"{_quote(k)}: {write(x[k], inner)}"
                                         for k in sorted(x)) + tail + "}"
        parts = map(str, x) if set(map(type, x)) == {int} else (write(v, inner) for v in x)
        return "[" + head + sep.join(parts) + tail + "]"

    return write(obj, "")


def _fnum(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# input plumbing


# each JSON input kind, by the key that tells it apart: its kind name and its reader
_JSON_KINDS = {
    "tensor": ("ring", lambda data: ring_from_json(data)),  # looked up per call: traceable
    "rows": ("characterTable", table_from_json),
    "S": ("modularDatum", premodular.modular_datum_from_json),
}
# a kind a command can want: its name, and the JSON that has it
_WANTED = {"characterTable": ("character table", "character-table JSON with a 'rows' key"),
           "modularDatum": ("modular datum", "modular-datum JSON with an 'S' key")}


def load(spec: str, args, want=None) -> catalog.CatalogEntry:
    """The CatalogEntry an input spec names; MalformedInput if want is given
    and the kind is another. catalog:NAME is the built-in entry, or else
    NAME.json in --data-dir. A path or "-" (stdin) is JSON, whose key tells
    its kind before it is read: a ring, a table or a datum."""
    if spec.startswith("catalog:"):
        name = spec[len("catalog:"):]
        try:
            entry = catalog.load_entry(name)
        except catalog.UnknownEntry:
            spec = os.path.join(args.data_dir or "", name + ".json")
            if not (args.data_dir and os.path.exists(spec)):
                raise
        else:
            if want not in (None, entry.kind):
                raise MalformedInput(f"{name} is a {entry.kind}, not a {_WANTED[want][0]}")
            return entry
    source = "stdin" if spec == "-" else spec
    try:
        if spec == "-":
            text = sys.stdin.read()
        else:
            with open(spec) as fh:
                text = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {spec}: {exc}")
    except ValueError as exc:  # bytes that are not text
        raise MalformedInput(f"{source} is not valid JSON: {exc}")
    data = _json_object(text, source)
    key = next((k for k in _JSON_KINDS if k in data), None)
    if key is None:
        raise MalformedInput(
            "cannot tell what this JSON is; expected keys 'tensor' (fusion ring), "
            "'rows' (character table) or 'S' (modular datum)")
    kind, read = _JSON_KINDS[key]
    if want not in (None, kind):
        raise MalformedInput(f"expected {_WANTED[want][1]}")
    return catalog.CatalogEntry(spec, kind, read(data), "input JSON")


def parse_group_spec(text: str):
    """'C9' or 'C3xC3' -> list of cyclic factor orders."""
    factors = []
    for p in text.split("x"):
        m = re.fullmatch(r"C0*([1-9]\d*)", p.strip())  # an order >= 1
        try:
            factors.append(int(m.group(1) if m else ""))
        except ValueError:  # no match, or more digits than int() reads
            raise MalformedInput(
                f"bad group spec {text!r}; use products of cyclic factors like C9 or C3xC3")
    return factors


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> tuple[int, dict, list]:
    try:  # ring JSON that fails the axioms is refused with every violation
        entry = load(args.ring, args)
    except AxiomViolation as exc:
        if exc.rank is None:  # the pairing column gave no dual to check against
            raise
        rank, violations = exc.rank, exc.violations
    else:
        rank, violations = entry.ring.rank, []
    payload = {
        "rank": rank,
        "ok": not violations,
        "violations": [{"axiom": a, "index": list(i), "detail": d}
                       for a, i, d in violations],
    }
    lines = [f"rank {rank} ring: " + ("all axioms hold" if not violations
                                      else f"{len(violations)} violations")]
    lines += [f"  [{a}] at {i}: {d}" for a, i, d in violations[:25]]
    if len(violations) > 25:
        lines.append(f"  ... and {len(violations) - 25} more")
    return (VIOLATION if violations else OK), payload, lines


def cmd_fpdim(args) -> tuple[int, dict, list]:
    ring = load(args.ring, args).ring
    dims, total = spectral.fpdims(ring), spectral.ring_fpdim(ring)
    payload = {"labels": list(ring.labels), "fpdims": dims.tolist(), "ringFPdim": total}
    lines = [f"{lab}: {_fnum(d)}" for lab, d in zip(ring.labels, dims)]
    lines.append(f"FPdim(ring) = {_fnum(total)}")
    return OK, payload, lines


def cmd_chars(args) -> tuple[int, dict, list]:
    ring = load(args.ring, args).ring
    chars = spectral.characters(ring)
    payload = {
        "labels": list(ring.labels),
        "characters": [{"values": [[z.real, z.imag] for z in c.values],
                        "codegree": c.codegree,
                        "isFPdim": c.is_fpdim} for c in chars],
    }
    lines = []
    for k, c in enumerate(chars):
        real, _ = _agrees(c.values.imag)
        vals = ", ".join(_fnum(z.real) if r else f"{_fnum(z.real)}{z.imag:+.6g}i"
                         for z, r in zip(c.values, real))
        tag = " (FPdim)" if c.is_fpdim else ""
        lines.append(f"chi_{k}{tag}: [{vals}]  codegree {_fnum(c.codegree)}")
    return OK, payload, lines


def cmd_codegrees(args) -> tuple[int, dict, list]:
    ring = load(args.ring, args).ring
    report = spectral.spectral_report(ring)
    payload = report.to_json()
    lines = [
        "codegrees: " + ", ".join(_fnum(f) for f in payload["codegrees"]),
        "codegree object dims: " + ", ".join(_fnum(d) for d in payload["codegreeDims"]),
        "induction-unit profile: " + ", ".join(str(x) for x in payload["inductionUnitProfile"]),
        f"FPdim(ring) = {_fnum(payload['ringFPdim'])}",
    ]
    return OK, payload, lines


def cmd_detect(args) -> tuple[int, dict, list]:
    ring = load(args.ring, args).ring
    report = nearintegral.detect(ring)
    if report is None:
        return VIOLATION, {"nearIntegral": False}, ["no near-integral structure found"]
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
    lines += [f"flag: {f}" for f in report.flags]
    return OK, payload, lines


def cmd_construct(args) -> tuple[int, dict, list]:
    sub = load(args.subring, args).ring
    ring = nearintegral.construct(sub, args.kappa)
    payload = ring_to_json(ring)
    lines = [f"rank {ring.rank} ring with labels {list(ring.labels)}",
             json.dumps(payload)]
    return OK, payload, lines


def cmd_verlinde(args) -> tuple[int, dict, list]:
    m = load(args.datum, args, "modularDatum").payload
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
    return OK, payload, lines


def cmd_balance(args) -> tuple[int, dict, list]:
    ring = load(args.ring, args).ring
    m = load(args.datum, args, "modularDatum").payload
    bad = premodular.balancing_check(ring, m)
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
    return (VIOLATION if bad else OK), payload, lines


def cmd_qforms(args) -> tuple[int, dict, list]:
    factors = parse_group_spec(args.group)
    # counted, and refused above 2^20 form values, before any table is built
    count = math.prod(premodular._form_orders(tuple(factors)))
    classes = premodular.form_classes(factors) if args.classes else None
    payload = {"factors": factors, "numForms": count}
    lines = [f"{count} quadratic forms on " + " x ".join(f"C{n}" for n in factors)]
    if args.classes:
        payload["numClasses"] = len(classes)
        lines.append(f"{len(classes)} classes under automorphisms")
    return OK, payload, lines


def cmd_gagola(args) -> tuple[int, dict, list]:
    table = load(args.table, args, "characterTable").payload
    try:
        report = nearintegral.gagola_analyze(table)
    except FusionRingError as exc:
        return VIOLATION, {"found": False, "reason": str(exc)}, [f"no Gagola character: {exc}"]
    if report is None:
        return (VIOLATION, {"found": False, "reason": "no qualifying class/row pair"},
                ["no Gagola character found"])
    payload = report.to_json()
    payload["found"] = True
    deg = table.degrees[report.rho_row]
    lines = [
        f"Gagola character: row {report.rho_row} (degree {deg})",
        f"kappa = 2*{deg} - {table.order}/{deg} = {report.kappa}",
        f"vanishing on {report.vanishing_classes} nontrivial classes",
    ]
    return OK, payload, lines


def cmd_cases(args) -> tuple[int, dict, list]:
    rows = premodular.braided_cases(args.N)
    payload = {"N": args.N,
               "cases": [{"kappa": k, "dim": d, "twistConstraint": t, "case": c}
                         for k, d, t, c in rows]}
    lines = [f"kappa = {k}: dim {d}, {t}  [{c}]" for k, d, t, c in rows]
    return OK, payload, lines


def cmd_catalog(args) -> tuple[int, dict, list]:
    if args.action == "list":
        kinds = {n: catalog.load_entry(n).kind for n in catalog.list_catalog()}
        payload = {"entries": [{"name": n, "kind": k} for n, k in kinds.items()]}
        lines = [f"{k:20s} {n}" for n, k in kinds.items()]
        return OK, payload, lines
    if args.action == "verify":
        results = catalog.verify_catalog()
        bad = [r for r in results if not r[1]]
        payload = {"entries": [{"name": n, "ok": ok, "detail": d}
                               for n, ok, d in results],
                   "failures": len(bad)}
        lines = [f"{'pass' if ok else 'FAIL'}  {n}: {d}" for n, ok, d in results]
        lines.append(f"{len(results)} entries, {len(bad)} failures")
        return (VIOLATION if bad else OK), payload, lines
    # show
    if not args.name:
        raise MalformedInput("catalog show needs an entry name")
    entry = catalog.load_entry(args.name)
    if entry.kind == "characterTable":
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
             _to_json(body)]
    return OK, payload, lines


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
    def error(self, message):  # run reports it: exit 2, one stderr line
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fusionring", description=__doc__)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--data-dir", default=None,
                   help="directory of extra <name>.json entries for catalog: refs")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, summary, func, *positionals):
        sp = sub.add_parser(name, help=summary)
        for arg in positionals:
            sp.add_argument(arg)
        sp.set_defaults(func=func)
        return sp

    add("verify", "check all fusion ring axioms", cmd_verify, "ring")
    add("fpdim", "Frobenius-Perron dimensions", cmd_fpdim, "ring")
    add("chars", "characters of a commutative ring", cmd_chars, "ring")
    add("codegrees", "formal codegrees and related data", cmd_codegrees, "ring")
    add("detect", "find a near-integral structure", cmd_detect, "ring")
    sp = add("construct", "build the near-integral extension", cmd_construct)
    sp.add_argument("--subring", required=True)
    sp.add_argument("--kappa", type=int, required=True)
    add("verlinde", "fusion ring from an S-matrix", cmd_verlinde, "datum")
    add("balance", "balancing equation check", cmd_balance, "ring", "datum")
    sp = add("qforms", "quadratic forms on an abelian group", cmd_qforms, "group")
    sp.add_argument("--classes", action="store_true")
    add("gagola", "Gagola character analysis of a table", cmd_gagola, "table")
    sp = add("cases", "braided near-integral constraint cases", cmd_cases)
    sp.add_argument("--N", type=_positive_int, required=True)
    sp = add("catalog", "list, verify or show built-in data", cmd_catalog)
    sp.add_argument("action", choices=("list", "verify", "show"))
    sp.add_argument("name", nargs="?")
    return p


_PARSER = build_parser()


def run(argv) -> int:
    """Run one command: write its payload (--format json) or its text lines
    to stdout, or one error line to stderr, and return the exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        code, payload, lines = args.func(args)
        if args.format == "json":
            print(_to_json(payload, 2))
        else:
            for line in lines:
                print(line)
        return code
    except MalformedInput as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except FusionRingError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return VIOLATION
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # devnull, so that the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return VIOLATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
