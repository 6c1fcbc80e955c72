"""Built-in verified data sets.

The catalog ships four kinds of entries as embedded JSON:

* character tables of small groups, loadable as CharacterTable objects and
  convertible to their character (fusion) rings,
* modular data (unnormalized S-matrix plus exact twists),
* an inventory of the finite groups with at most six conjugacy classes,
* classification rows: (name, FPdim, per-object dimensions) triples whose
  internal consistency (sum of squared dims = FPdim) is re-checked here.

Symbolic dimension values are stored as expression strings evaluated by
eval_dimension_expr, in the scalar grammar of exact.parse_zeta_expr that
table and datum entries use too: arithmetic, sqrt/csc/sec/sin/cos, pi,
quantum integers qint(n, m) and roots of unity zeta(n, k).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

from .core import (FusionRing, FusionRingError, MalformedInput, _derived,
                   character_table_to_fusion_ring, table_from_json)
from .exact import _agrees, _snaps, parse_zeta_expr
from .premodular import (balancing_check, gauss_sums, modular_datum_from_json,
                         verlinde_fusion)
from . import spectral

__all__ = [
    "UnknownEntry",
    "CatalogEntry",
    "ClassificationRow",
    "eval_dimension_expr",
    "list_catalog",
    "load_entry",
    "entry_ring",
    "verify_catalog",
]


class UnknownEntry(MalformedInput):
    """Raised when no built-in entry has the name asked for."""


def eval_dimension_expr(text: str) -> float:
    """Evaluate a dimension expression (exact.parse_zeta_expr) to a real
    number. Intermediate values may be complex (zeta terms); the result's
    imaginary part must agree with 0 at scale max(1, |Re|) (exact._agrees)."""
    value = parse_zeta_expr(str(text))
    if not _agrees(value.imag, 0.0, max(1.0, abs(value.real)))[0]:
        raise ValueError(f"expression {text!r} evaluates to non-real {value}")
    return value.real


@dataclass(frozen=True)
class ClassificationRow:
    """One row of the small-rank inventory: a named family with its total
    FPdim and simple-object dimensions, symbolic and evaluated once per row."""

    name: str
    family: str
    fpdim_expr: str
    dim_exprs: tuple
    center: str
    count: int
    count_unverified: bool = False

    @_derived
    def fpdim_total(self) -> float:
        return eval_dimension_expr(self.fpdim_expr)

    @_derived
    def fpdims(self) -> tuple:
        return tuple(eval_dimension_expr(e) for e in self.dim_exprs)

    def consistency_error(self) -> float:
        return abs(sum(d * d for d in self.fpdims()) - self.fpdim_total())

    def verify(self) -> float:
        ok, err = _snaps(self.consistency_error(), 0.0)
        if not ok:
            raise FusionRingError(
                f"row {self.family}/{self.name}: sum of squared dims misses "
                f"the stated FPdim by {err:.3g}")
        return float(err)

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "name": self.name,
            "fpdim": self.fpdim_expr,
            "dims": list(self.dim_exprs),
            "center": self.center,
            "count": self.count,
        }
        if self.count_unverified:
            out["countUnverified"] = True
        return out


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # characterTable | modularDatum | classificationRow | groupList | ring
    payload: object
    provenance: str

    @property
    @_derived
    def ring(self) -> FusionRing:
        """The entry's fusion ring, built on first use: for ring JSON the ring
        read, the character ring of a table, the Verlinde ring of a modular
        datum. MalformedInput, not cached, for the other kinds."""
        if self.kind == "ring":
            return self.payload
        if self.kind == "characterTable":
            return character_table_to_fusion_ring(self.payload)
        if self.kind == "modularDatum":
            return verlinde_fusion(self.payload)[0]
        raise MalformedInput(f"entry {self.name!r} of kind {self.kind} is not ring-valued")


def _read(fname: str):
    with resources.files("fusionring.data").joinpath(fname).open() as fh:
        return json.load(fh)


@functools.cache
def _entries() -> dict:
    entries = {}
    for name, data in _read("character_tables.json").items():
        table = table_from_json(data)
        prov = data.get("source", "standard character table")
        if data.get("alias"):
            prov += f" (also known as {data['alias']})"
        entries[name] = CatalogEntry(name, "characterTable", table, prov)
    for name, data in _read("modular_data.json").items():
        entries[name] = CatalogEntry(name, "modularDatum",
                                     modular_datum_from_json(data),
                                     "computed Drinfeld double data")
    groups = _read("groups_small.json")
    entries["groups<=6classes"] = CatalogEntry(
        "groups<=6classes", "groupList", tuple(groups),
        "inventory of finite groups with at most six conjugacy classes")
    for data in _read("classification_rows.json"):
        row = ClassificationRow(
            name=data["name"],
            family=data["family"],
            fpdim_expr=data["fpdim"],
            dim_exprs=tuple(data["dims"]),
            center=data.get("center", "Vec"),
            count=int(data["count"]),
            count_unverified=bool(data.get("countUnverified", False)),
        )
        key = f"{row.family}/{row.name}"
        if key in entries:
            raise FusionRingError(f"duplicate classification row {key}")
        entries[key] = CatalogEntry(
            key, "classificationRow", row,
            "small-rank premodular inventory row")
    return entries


def list_catalog() -> list:
    """Sorted names of all built-in entries."""
    return sorted(_entries())


def load_entry(name: str) -> CatalogEntry:
    entries = _entries()
    if name not in entries:
        raise UnknownEntry(f"unknown catalog entry {name!r}")
    return entries[name]


def entry_ring(name: str) -> FusionRing:
    """A catalog entry's fusion ring (CatalogEntry.ring), built once."""
    return load_entry(name).ring


def _verify_entry(entry: CatalogEntry) -> str:
    """Check one entry; returns a short success note, raises on failure.
    A table's ring must have codegrees that formal_codegrees snapped to
    ints dividing |G| (the table passed the CharacterTable checks on load)."""
    if entry.kind == "ring":  # its axioms were checked as it was read
        return f"rank {entry.ring.rank} fusion ring, axioms hold"
    if entry.kind == "characterTable":
        ring, order = entry.ring, entry.payload.order
        for f in spectral.formal_codegrees(ring):
            if not (isinstance(f, int) and order % f == 0):
                raise FusionRingError(
                    f"codegree {f} of {entry.name} does not divide |G| = {order}")
        return f"rank {ring.rank} character ring, codegrees divide {order}"
    if entry.kind == "modularDatum":
        m, ring = entry.payload, entry.ring
        bad = balancing_check(ring, m)
        if bad:
            raise FusionRingError(f"{entry.name}: {len(bad)} balancing violations")
        plus, minus = gauss_sums(m.dims, m.twist_values())
        if not _snaps(plus * minus, m.global_dim, m.global_dim)[0]:
            raise FusionRingError(f"{entry.name}: Gauss sum product misses global dim")
        if not _snaps(spectral.fpdims(ring), m.dims)[0].all():
            raise FusionRingError(f"{entry.name}: FPdims disagree with S-matrix row 0")
        return (f"rank {ring.rank} Verlinde ring, global dim "
                f"{m.global_dim:.6g}, balancing clean")
    if entry.kind == "classificationRow":
        row: ClassificationRow = entry.payload
        return f"dims consistent within {row.verify():.2e}"
    if entry.kind == "groupList":
        for g in entry.payload:
            if g["order"] < 1 or not (1 <= g["numCentralInvolutive"] <= g["order"]):
                raise FusionRingError(f"implausible group record {g}")
        return f"{len(entry.payload)} group records"
    raise FusionRingError(f"unknown entry kind {entry.kind}")


def verify_catalog() -> list:
    """Check every entry (_verify_entry). Returns a deterministic list of
    (name, ok, detail) triples; failures are reported, not raised."""
    out = []
    for name in list_catalog():
        entry = load_entry(name)
        try:
            detail = _verify_entry(entry)
            out.append((name, True, detail))
        except Exception as exc:  # report content, not control flow
            out.append((name, False, f"{type(exc).__name__}: {exc}"))
    return out
