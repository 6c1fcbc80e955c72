"""Narrow storage guard. A ring stores its tensor in the narrowest of uint8,
uint16, uint32 and int64 that holds its largest entry (core._as_tensor), so
every site that does arithmetic on it must widen first. Each public function
must give the same result on a ring and on its int64 twin, which is built
past the constructor the way premodular._table_forms builds forms."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import fusionring as fr
from fusionring import FusionRing
from shared_rings import s3_group_ring

CATALOG_RINGS = [name for name in fr.list_catalog()
                 if fr.load_entry(name).kind in ("characterTable", "modularDatum")]
KAPPAS = st.sampled_from([0, 9, 255, 256, 65535, 65536, 10 ** 6]) | st.integers(0, 10 ** 6)
BASES = (st.builds(lambda m: ("group", m), st.integers(1, 48))
         | st.builds(lambda name: ("catalog", name), st.sampled_from(CATALOG_RINGS))
         | st.just(("S3 group",)))
SPECS = (BASES
         | st.builds(lambda base, kappa: ("R", base, kappa), BASES, KAPPAS)
         | st.builds(lambda a, b: ("R(C1) x R(C2)", a, b), KAPPAS, KAPPAS))


def build(spec) -> FusionRing:
    """The ring a drawn spec names; every base is integral, so R(S, kappa) exists."""
    kind, *args = spec
    if kind == "group":
        return fr.group_ring([args[0]])
    if kind == "catalog":
        return fr.entry_ring(args[0])
    if kind == "S3 group":
        return s3_group_ring()
    if kind == "R":
        return fr.construct(build(args[0]), args[1])
    return fr.product_ring(fr.construct(fr.group_ring([1]), args[0]),
                           fr.construct(fr.group_ring([2]), args[1]))


def int64_twin(ring: FusionRing) -> FusionRing:
    """ring with a read-only int64 copy of its tensor, set past the
    constructor, which would store it narrow again."""
    twin = object.__new__(FusionRing)
    tensor = ring.tensor.astype(np.int64)
    tensor.setflags(write=False)
    for name, value in (("labels", ring.labels), ("tensor", tensor), ("dual", ring.dual)):
        object.__setattr__(twin, name, value)
    return twin


def outcome(fn, *args):
    """fn(*args) as something == compares: a ring with its tensor's dtype,
    an array with its dtype and bytes, characters as their fields, or the
    exception class and message."""
    try:
        got = fn(*args)
    except fr.FusionRingError as exc:
        return type(exc), str(exc)
    if isinstance(got, FusionRing):
        return got, got.tensor.dtype
    if isinstance(got, np.ndarray):
        return got.dtype, got.tobytes()
    if isinstance(got, list) and got and isinstance(got[0], fr.Character):
        return [(c.values.tobytes(), c.codegree, c.is_fpdim) for c in got]
    if isinstance(got, fr.GradingReport):
        return got.to_json()
    return got


def results(ring: FusionRing) -> list:
    """Every public function of a ring, on rings, handles and vectors
    derived from it the same way on either storage."""
    n = ring.rank
    subrings = fr.enumerate_subrings(ring)
    report = fr.detect(ring)
    x = np.arange(n, dtype=np.uint8) * 37  # uint8 products that wrap unless widened
    y = np.full(n, 255, dtype=np.uint8)
    return [
        outcome(fr.validate_tensor, ring.tensor, ring.dual),
        outcome(fr.fpdims, ring),
        outcome(fr.formal_codegrees, ring),
        outcome(fr.characters, ring),
        report,
        outcome(fr.construct, ring, 65536),
        report and outcome(fr.near_integral_codegrees, ring, report),
        subrings,
        outcome(fr.universal_grading, ring),
        outcome(fr.integral_subring, ring),
        outcome(fr.product_ring, ring, fr.entry_ring("S3")),
        outcome(fr.product_ring, fr.construct(fr.group_ring([1]), 300), ring),
        outcome(fr.subring_on, ring, subrings[len(subrings) // 2].indices),
        outcome(ring.fuse, x, y),
        outcome(ring.fuse, ring.basis_vector(n - 1), ring.basis_vector(n - 1)),
        fr.ring_to_json(ring),
    ]


@settings(max_examples=60, deadline=None)
@given(SPECS)
@example(("group", 48))
@example(("R", ("group", 5), 300))  # uint16
@example(("R", ("catalog", "A4"), 70000))  # uint32
@example(("R(C1) x R(C2)", 10 ** 6, 10 ** 6))  # int64: 10^12
def test_narrow_and_int64_storage_agree(spec):
    ring = build(spec)
    top = int(ring.tensor.max())
    assert ring.tensor.dtype == next(d for d in (np.uint8, np.uint16, np.uint32, np.int64)
                                     if top <= np.iinfo(d).max)
    assert results(ring) == results(int64_twin(ring))
