"""Seeded inputs, items and reference checks for the three workloads.

A workload is a list of chains. A chain is a list of steps that run in
order and share a state dict (a later step uses the ring an earlier one
built); chains are independent, so the seed may reorder them. Each step is
one timed item: ``run(state)`` makes only fusionring calls, ``check(out,
state)`` compares the answer with a reference and is not timed.

The seed picks a basis permutation of every ring (unit fixed, dual and
labels remapped), the order of the cyclic factors of every group, the
kappa values of the ring ladder and the chain order. Every reference answer
is invariant under these choices: closed forms from theory where they
exist, otherwise values recorded from the seed commit in reference.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fusionring as fr
from fusionring import cli

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-6

LADDER_GROUPS = ([16], [32], [48], [8, 8])
# enumerate_subrings(C8xC8) alone takes ~20 s at the seed, longer than a
# whole pass; C8xC8 still runs build, fpdims, codegrees and grading.
LADDER_SKIP_SUBRINGS = ([8, 8],)
QFORM_GROUPS = ([9], [3, 3], [4, 2], [16])
CASES_N = (1, 2, 3, 4, 6, 8, 12, 16)
MALFORMED = (
    ("ragged-tensor", ["verify", "-"], '{"tensor": [[[1, 0], [0, 1]], [[0, 1]]]}'),
    ("tensor-not-array", ["verify", "-"], '{"tensor": "x"}'),
    ("huge-entry", ["verify", "-"], '{"tensor": [[[1, 0], [0, 1]], [[0, 1], [1e300, 0]]]}'),
    ("cases-N-0", ["cases", "--N", "0"], None),
)


class Mismatch(Exception):
    """An item ran but its answer differs from the reference."""


@dataclass
class Step:
    id: str
    run: object
    check: object
    probe: bool = False  # malformed-input CLI item, expected exit 2 or 3


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def close_multiset(got, want, what: str) -> None:
    got = sorted(float(x) for x in got)
    want = sorted(float(x) for x in want)
    expect(len(got) == len(want), f"{what}: {len(got)} values, want {len(want)}")
    for a, b in zip(got, want):
        expect(abs(a - b) <= REL_TOL * max(1.0, abs(b)), f"{what}: got {a}, want {b}")


def check_codegrees(codegrees, want) -> None:
    close_multiset(codegrees, want, "codegrees")
    expect(abs(sum(1.0 / float(c) for c in codegrees) - 1.0) < REL_TOL,
           "sum of 1/codegree is not 1")


def group_name(factors) -> str:
    return "x".join(f"C{n}" for n in factors)


# ---------------------------------------------------------------------------
# seeded inputs, made with numpy only


def _perm(n: int, rng) -> np.ndarray:
    """Random permutation of range(n) that fixes 0."""
    return np.concatenate(([0], 1 + rng.permutation(n - 1))).astype(np.int64)


def permute_ring(tensor, dual, labels, rng) -> dict:
    """Ring JSON with the basis permuted, unit fixed, dual remapped."""
    n = tensor.shape[0]
    perm = _perm(n, rng)
    out = np.empty_like(tensor)
    out[np.ix_(perm, perm, perm)] = tensor
    new_dual = [0] * n
    new_labels = [""] * n
    for i in range(n):
        new_dual[perm[i]] = int(perm[dual[i]])
        new_labels[perm[i]] = labels[i]
    return {"labels": new_labels, "tensor": out.tolist(), "dual": new_dual}


def abelian_ring(orders, rng) -> dict:
    """Group ring of a product of cyclic groups."""
    elems = list(itertools.product(*(range(o) for o in orders)))
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    tensor = np.zeros((n, n, n), dtype=np.int64)
    dual = [0] * n
    for e in elems:
        dual[index[e]] = index[tuple(-x % o for x, o in zip(e, orders))]
        for f in elems:
            s = tuple((x + y) % o for x, y, o in zip(e, f, orders))
            tensor[index[e], index[f], index[s]] = 1
    return permute_ring(tensor, dual, [f"g{i}" for i in range(n)], rng)


@dataclass
class Table:
    """A catalog character table with its rows and classes permuted."""

    name: str
    order: int
    rows: np.ndarray

    @property
    def centralizers(self) -> list:
        """|C_G(x)| = sum_chi |chi(x)|^2 by column orthogonality; these are
        the formal codegrees of the character ring."""
        return [int(round(v)) for v in np.sum(np.abs(self.rows) ** 2, axis=0)]

    @property
    def degrees(self) -> list:
        return [int(round(d)) for d in self.rows[:, 0].real]

    def center_order(self) -> int:
        """The universal grading group of Rep(G) is dual to Z(G)."""
        return self.centralizers.count(self.order)

    def normal_subgroups(self) -> int:
        """Fusion subrings of Rep(G) match normal subgroups, which are the
        intersections of character kernels."""
        kernels = {frozenset(np.nonzero(np.abs(row - row[0]) < 1e-9)[0].tolist())
                   for row in self.rows}
        found = {frozenset(range(self.rows.shape[1]))}
        frontier = list(found)
        while frontier:
            k = frontier.pop()
            for meet in (k & ker for ker in kernels):
                if meet not in found:
                    found.add(meet)
                    frontier.append(meet)
        return len(found)

    def json(self) -> dict:
        return {"order": self.order,
                "rows": [[[z.real, z.imag] for z in row] for row in self.rows]}

    def ring_json(self, rng) -> dict:
        """Character ring by inner products <chi_i chi_j, chi_k>, permuted."""
        rows = self.rows
        w = 1.0 / np.sum(np.abs(rows) ** 2, axis=0)
        tensor = np.rint(np.einsum("x,ix,jx,kx->ijk", w, rows, rows,
                                   rows.conj()).real).astype(np.int64)
        dual = [int(np.argmin(np.abs(rows - row.conj()).sum(axis=1))) for row in rows]
        return permute_ring(tensor, dual, [f"chi{i}" for i in range(len(rows))], rng)


def catalog_table(name: str, rng) -> Table:
    table = fr.load_entry(name).payload
    rperm = _perm(table.num_classes, rng)
    cperm = _perm(table.num_classes, rng)
    rows = np.empty_like(table.rows)
    rows[np.ix_(rperm, cperm)] = table.rows
    return Table(name, table.order, rows)


def catalog_datum(name: str, rng) -> dict:
    m = fr.load_entry(name).payload
    perm = _perm(m.rank, rng)
    s = np.empty_like(m.s)
    s[np.ix_(perm, perm)] = m.s
    t = [None] * m.rank
    for i, root in enumerate(m.t):
        t[perm[i]] = [root.num, root.den]
    return {"S": [[[z.real, z.imag] for z in row] for row in s], "T": t}


def catalog_names(kind: str) -> list:
    return [n for n in fr.list_catalog() if fr.load_entry(n).kind == kind]


# ---------------------------------------------------------------------------
# steps shared by the workloads


def near_integral_codegrees(codegrees, big_n, kappa) -> list:
    """Codegrees of R(S, kappa): those of S with one N = FPdim(S) replaced by
    N + d+^2 and N + d-^2, where d+- are the roots of t^2 - kappa t - N."""
    rest = sorted(codegrees, key=lambda c: abs(c - big_n))[1:]
    disc = math.sqrt(kappa * kappa + 4 * big_n)
    return rest + [big_n + ((kappa + disc) / 2) ** 2, big_n + ((kappa - disc) / 2) ** 2]


def round_trip_step(item_id, sub_json, kappas, codegrees, big_n) -> Step:
    """S -> R(S, kappa) (repeated per kappa) -> detect ->
    near_integral_codegrees; detect must give (kappa, FPdim of the last S)."""
    for kappa in kappas[:-1]:
        codegrees = near_integral_codegrees(codegrees, big_n, kappa)
        big_n += ((kappa + math.sqrt(kappa * kappa + 4 * big_n)) / 2) ** 2
    big_n = int(round(big_n))
    want = near_integral_codegrees(codegrees, big_n, kappas[-1])

    def run(state):
        ring = fr.ring_from_json(sub_json)
        for kappa in kappas:
            ring = fr.construct(ring, kappa)
        report = fr.detect(ring)
        return report, fr.near_integral_codegrees(ring, report)

    def check(out, state):
        report, got = out
        expect((report.kappa, report.big_n) == (kappas[-1], big_n),
               f"detect gave kappa={report.kappa} N={report.big_n}")
        check_codegrees(got, want)
    return Step(item_id, run, check)


def ring_steps(name, build, dims, codegrees, subrings, grading) -> list:
    """build -> fpdims -> formal_codegrees -> [enumerate_subrings] ->
    universal_grading on one ring."""
    def run_build(state):
        state["ring"] = build()
        return state["ring"]

    steps = [
        Step(f"{name}:build", run_build,
             lambda out, st: expect(out.rank == len(dims), f"rank {out.rank}")),
        Step(f"{name}:fpdims", lambda st: fr.fpdims(st["ring"]),
             lambda out, st: close_multiset(out, dims, "fpdims")),
        Step(f"{name}:codegrees", lambda st: fr.formal_codegrees(st["ring"]),
             lambda out, st: check_codegrees(out, codegrees)),
    ]
    if subrings is not None:
        steps.append(Step(f"{name}:subrings", lambda st: fr.enumerate_subrings(st["ring"]),
                          lambda out, st: expect(len(out) == subrings,
                                                 f"{len(out)} subrings, want {subrings}")))
    steps.append(Step(f"{name}:grading", lambda st: fr.universal_grading(st["ring"]),
                      lambda out, st: expect(out.group_order == grading,
                                             f"grading order {out.group_order}")))
    return steps


def run_cli(argv, stdin=None):
    """In-process `fusionring --format json ...`: (exit code, stdout, stderr).
    An exception that escapes cli.run is what a user sees as a traceback."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["--format", "json", *argv])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cli_key(argv, stdin_name=None) -> str:
    return " ".join(argv) + (f" <{stdin_name}" if stdin_name else "")


def cli_cases(tables, rng) -> list:
    """(key, argv, stdin) for every well-formed CLI item of catalog_sweep."""
    cases = []
    for t in tables:
        cases.append((cli_key(["verify", "-"], t.name), ["verify", "-"],
                      json.dumps(t.ring_json(rng))))
        for cmd in ("fpdim", "codegrees", "detect"):
            argv = [cmd, f"catalog:{t.name}"]
            cases.append((cli_key(argv), argv, None))
    for name in catalog_names("modularDatum"):
        for argv in (["verlinde", f"catalog:{name}"],
                     ["balance", f"catalog:{name}", f"catalog:{name}"]):
            cases.append((cli_key(argv), argv, None))
    for argv in [["qforms", "C5", "--classes"], ["catalog", "verify"]] + [
            ["cases", "--N", str(n)] for n in CASES_N]:
        cases.append((cli_key(argv), argv, None))
    return cases


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_step(key, argv, stdin, want) -> Step:
    def check(out, state):
        code, stdout, _ = out
        expect([code, digest(stdout)] == want,
               f"exit {code}, stdout differs from the seed commit")
    return Step(f"cli:{key}", lambda st: run_cli(argv, stdin), check)


def probe_step(name, argv, stdin) -> Step:
    def check(out, state):
        code, _, stderr = out
        expect(code in (2, 3) and len(stderr.strip().splitlines()) == 1,
               f"exit {code} with {len(stderr.strip().splitlines())} stderr lines")
    return Step(f"malformed:{name}", lambda st: run_cli(argv, stdin), check, probe=True)


# ---------------------------------------------------------------------------
# the workloads


def _products(*lists) -> list:
    return [math.prod(p) for p in itertools.product(*lists)]


def ring_ladder(rng, ref) -> list:
    chains = []
    for orders in LADDER_GROUPS:
        n = math.prod(orders)
        data = abelian_ring(orders, rng)
        subrings = None if orders in LADDER_SKIP_SUBRINGS else (
            sum(1 for k in range(1, n + 1) if n % k == 0))  # d(n) for C_n
        chains.append(ring_steps(group_name(orders),
                                 lambda data=data: fr.ring_from_json(data),
                                 [1] * n, [n] * n, subrings, n))
    a4, a4b, s3 = (catalog_table(t, rng) for t in ("A4", "A4", "S3"))
    factors = [a4.ring_json(rng), a4b.ring_json(rng), s3.ring_json(rng)]

    def build_product():
        a, b, c = (fr.ring_from_json(f) for f in factors)
        return fr.product_ring(fr.product_ring(a, b), c)

    # Deligne products multiply dimensions and codegrees; A4 and S3 have
    # trivial centres, so the grading is trivial.
    chains.append(ring_steps("A4xA4xS3", build_product,
                             _products(a4.degrees, a4.degrees, s3.degrees),
                             _products(a4.centralizers, a4.centralizers, s3.centralizers),
                             ref["product_subrings"], 1))
    for orders in ([16], [32]):
        n = orders[0]
        kappa = int(rng.integers(0, 13))
        chains.append([round_trip_step(f"R({group_name(orders)},{kappa})",
                                       abelian_ring(orders, rng), [kappa], [n] * n, n)])
    chains.append([round_trip_step("R(TY(C2xC2),7)", abelian_ring([2, 2], rng),
                                   [0, 7], [4] * 4, 4)])
    return chains


def _forms_count(factors) -> int:
    """|Hom(Gamma(G), Q/Z)| with Whitehead's quadratic functor:
    Gamma(C_n) = C_n (n odd) or C_2n (n even), cross terms C_gcd."""
    count = math.prod(n if n % 2 else 2 * n for n in factors)
    for a, b in itertools.combinations(factors, 2):
        count *= math.gcd(a, b)
    return count


def qform_sweep(rng, ref) -> list:
    chains = []
    for spec in QFORM_GROUPS:
        name = group_name(spec)
        factors = [int(x) for x in rng.permutation(spec)]
        n_forms, n_classes = _forms_count(spec), ref["form_classes"][name]

        def check_forms(out, st, n_forms=n_forms):
            expect(len(out) == n_forms, f"{len(out)} forms, want {n_forms}")
            expect(len({f.key() for f in out}) == n_forms, "forms repeat")
        chains.append([Step(f"qforms:{name}",
                            lambda st, f=factors: fr.quadratic_forms(f), check_forms)])
        chains.append([Step(f"classes:{name}", lambda st, f=factors: fr.form_classes(f),
                            lambda out, st, k=n_classes: expect(
                                len(out) == k, f"{len(out)} classes, want {k}"))])
    return chains


def table_steps(t: Table, ref) -> list:
    detect_want = ref["detect"][t.name]
    gagola_want = ref["gagola"][t.name]
    r = len(t.degrees)

    def run_ring(state):
        state["table"] = fr.table_from_json(t.json())
        state["ring"] = fr.character_table_to_fusion_ring(state["table"])
        return state["ring"]

    def check_report(out, st):
        check_codegrees(out.codegrees, t.centralizers)
        close_multiset(out.fpdims, t.degrees, "fpdims")
        expect(abs(out.ring_fpdim - t.order) < REL_TOL * t.order, "FPdim(ring) != |G|")

    def check_chars(out, st):
        expect(len(out) == r and out[0].is_fpdim, "character list")
        close_multiset([c.codegree for c in out], t.centralizers, "character codegrees")

    def check_detect(out, st):
        got = None if out is None else [out.kappa, out.big_n]
        expect(got == detect_want, f"detect gave {got}, want {detect_want}")

    def check_gagola(out, st):
        got = None if out is None else [
            out.kappa, out.vanishing_classes, t.degrees[out.rho_row]]
        expect(got == gagola_want, f"gagola gave {got}, want {gagola_want}")

    n_sub, z = t.normal_subgroups(), t.center_order()
    return [
        Step(f"{t.name}:ring", run_ring,
             lambda out, st: expect(out.rank == r, f"rank {out.rank}, want {r}")),
        Step(f"{t.name}:spectral_report", lambda st: fr.spectral_report(st["ring"]),
             check_report),
        Step(f"{t.name}:characters", lambda st: fr.characters(st["ring"]), check_chars),
        Step(f"{t.name}:detect", lambda st: fr.detect(st["ring"]), check_detect),
        Step(f"{t.name}:gagola", lambda st: fr.gagola_analyze(st["table"]), check_gagola),
        Step(f"{t.name}:subrings", lambda st: fr.enumerate_subrings(st["ring"]),
             lambda out, st: expect(len(out) == n_sub, f"{len(out)} subrings, want {n_sub}")),
        Step(f"{t.name}:grading", lambda st: fr.universal_grading(st["ring"]),
             lambda out, st: expect(out.group_order == z,
                                    f"grading order {out.group_order}, want {z}")),
    ]


def datum_steps(name, data) -> list:
    dims = [z[0] for z in data["S"][0]]
    global_dim = sum(d * d for d in dims)

    def run_verlinde(state):
        state["datum"] = m = fr.modular_datum_from_json(data)
        state["ring"], info = fr.verlinde_fusion(m)
        return state["ring"], info

    def check_verlinde(out, st):
        ring, info = out
        expect(ring.rank == len(dims), f"rank {ring.rank}")
        expect(abs(info["globalDim"] - global_dim) < REL_TOL * global_dim, "global dim")
        expect(info["maxSnapError"] < REL_TOL, f"snap error {info['maxSnapError']}")

    def run_gauss(state):
        m = state["datum"]
        return fr.gauss_sums(m.dims, m.twist_values())

    def check_gauss(out, st):
        plus, minus = out
        expect(abs(plus * minus - global_dim) < REL_TOL * global_dim,
               f"tau+ tau- = {plus * minus}, global dim {global_dim}")

    return [
        Step(f"{name}:verlinde", run_verlinde, check_verlinde),
        Step(f"{name}:fpdims", lambda st: fr.fpdims(st["ring"]),
             lambda out, st: close_multiset(out, dims, "fpdims")),
        Step(f"{name}:balance", lambda st: fr.balancing_check(st["ring"], st["datum"]),
             lambda out, st: expect(out == [], f"{len(out)} balancing violations")),
        Step(f"{name}:gauss", run_gauss, check_gauss),
    ]


def catalog_sweep(rng, ref) -> list:
    tables = [catalog_table(name, rng) for name in catalog_names("characterTable")]
    chains = [table_steps(t, ref) for t in tables]
    for t in tables:
        for kappa in range(3):
            chains.append([round_trip_step(f"R({t.name},{kappa})", t.ring_json(rng),
                                           [kappa], t.centralizers, t.order)])
    chains += [datum_steps(name, catalog_datum(name, rng))
               for name in catalog_names("modularDatum")]
    n_entries = ref["catalog_entries"]
    chains.append([Step("verify_catalog", lambda st: fr.verify_catalog(),
                        lambda out, st: expect(len(out) == n_entries and all(
                            ok for _, ok, _ in out), "catalog entries fail"))])
    chains += [[cli_step(key, argv, stdin, ref["cli"][key])]
               for key, argv, stdin in cli_cases(tables, rng)]
    chains += [[probe_step(*case)] for case in MALFORMED]
    return chains


WORKLOADS = {
    "ring_ladder": ring_ladder,
    "qform_sweep": qform_sweep,
    "catalog_sweep": catalog_sweep,
}


def build(workload: str, rng) -> list:
    """Chains of the workload, in the seeded order."""
    ref = json.loads(REFERENCE_FILE.read_text())
    chains = WORKLOADS[workload](rng, ref)
    return [chains[i] for i in rng.permutation(len(chains))]
