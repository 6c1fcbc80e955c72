"""Exact root-of-unity scalars, the scalar-string evaluator and the tolerance policy."""

import argparse
import cmath
import inspect
import json
import re
from importlib import resources

import pytest
from hypothesis import given, strategies as st

import fusionring
from fusionring import catalog, cli, core, exact, nearintegral, premodular, spectral, structure
from fusionring.exact import RootOfUnity, _scalar_to_json, parse_scalar, parse_zeta_expr
from shared_rings import HOSTILE_SCALARS, scalar_id


def test_reduction():
    assert RootOfUnity(2, 4) == RootOfUnity(1, 2)
    assert RootOfUnity(6, 4) == RootOfUnity(1, 2)
    assert RootOfUnity(-1, 4) == RootOfUnity(3, 4)


def test_value():
    assert abs(RootOfUnity(1, 4).value() - 1j) < 1e-15
    assert abs(RootOfUnity(1, 2).value() + 1) < 1e-15
    assert abs(RootOfUnity(0, 1).value() - 1) < 1e-15


def test_parse_simple_terms():
    assert abs(parse_zeta_expr("zeta(3,1)") - cmath.exp(2j * cmath.pi / 3)) < 1e-14
    assert parse_zeta_expr("-1") == -1
    assert parse_zeta_expr("2*zeta(2,1)") == pytest.approx(-2)
    assert abs(parse_zeta_expr("1+zeta(4,1)") - (1 + 1j)) < 1e-14
    assert abs(parse_zeta_expr("zeta(4,1)**3") - (-1j)) < 1e-14


def test_parse_alpha():
    # -1 + sqrt(-3) is twice a primitive third root of unity
    alpha = parse_zeta_expr("2*zeta(3,1)")
    assert abs(alpha - (-1 + cmath.sqrt(-3))) < 1e-14


def test_parse_scalar_forms():
    assert parse_scalar(3) == 3
    assert parse_scalar([1.5, -2.0]) == 1.5 - 2j
    assert abs(parse_scalar("zeta(8,1)+zeta(8,7)") - cmath.sqrt(2)) < 1e-14


def test_parse_rejects_garbage():
    for bad in ["", "zeta(3)", "1++2", "spam"]:
        with pytest.raises(ValueError):
            parse_zeta_expr(bad)


def _parent_parse_zeta_expr(text: str) -> complex:
    """Test-only copy of the regex parser that read table and datum strings
    before they shared the dimension-expression walker: a signed sum of
    terms, each an optional integer coefficient times an optional
    zeta(n,k)**e, the power taken exactly on the root."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar expression")
    total = 0 + 0j
    pos = 0
    first = True
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        elif not first:
            raise ValueError(f"expected +/- at position {pos} in {text!r}")
        m = re.match(r"(\d+)(?:\*)?", s[pos:])
        coef = 1
        if m and m.group(1):
            coef = int(m.group(1))
            pos += m.end()
        zm = re.match(r"zeta\((\d+),(-?\d+)\)(?:\*\*(-?\d+))?", s[pos:])
        if zm:
            den, num = int(zm.group(1)), int(zm.group(2))
            e = 1 if zm.group(3) is None else int(zm.group(3))
            root = RootOfUnity(num * e, den)
            total += sign * coef * root.value()
            pos += zm.end()
        else:
            if m is None or not m.group(1):
                raise ValueError(f"cannot parse term at position {pos} in {text!r}")
            total += sign * coef
        first = False
    return total


def _data_strings() -> list:
    """Every string entry of the catalog's character tables and modular data."""
    out = []
    for fname, key in (("character_tables.json", "rows"), ("modular_data.json", "S")):
        data = json.loads(resources.files("fusionring.data").joinpath(fname).read_text())
        out += [e for entry in data.values() for row in entry[key] for e in row
                if isinstance(e, str)]
    return out


def test_data_strings_match_the_regex_parser():
    strings = _data_strings()
    assert (len(strings), len(set(strings))) == (120, 10)
    for text in strings:
        assert parse_zeta_expr(text) == _parent_parse_zeta_expr(text), text


zeta_terms = st.builds("{}*zeta({},{})".format, st.integers(0, 50), st.integers(1, 48),
                       st.integers(-60, 60))
int_terms = st.integers(0, 2 ** 60).map(str)


@given(st.sampled_from(["", "-"]), st.lists(st.tuples(st.sampled_from("+-"),
                                                      zeta_terms | int_terms),
                                            min_size=1, max_size=8))
def test_sums_match_the_regex_parser(first_sign, terms):
    text = first_sign + "".join(sign + term for sign, term in terms)[1:]
    assert parse_zeta_expr(text) == _parent_parse_zeta_expr(text)


def test_powers_of_roots_within_last_bits():
    # the walker raises zeta(n,k) as a complex number; the regex parser
    # raised the root exactly
    for e in range(-8, 9):
        text = f"zeta(8,1)**{e}"
        assert abs(parse_zeta_expr(text) - _parent_parse_zeta_expr(text)) < 1e-14


@pytest.mark.parametrize("text", HOSTILE_SCALARS, ids=scalar_id)
def test_parse_rejects_hostile_strings(text):
    with pytest.raises(ValueError):
        parse_zeta_expr(text)


def test_parse_reads_the_dimension_grammar():
    assert parse_zeta_expr("zeta(6,1)") == RootOfUnity(1, 6).value()
    assert parse_zeta_expr(" 1 + zeta(4,1) ") == 1 + RootOfUnity(1, 4).value()
    assert parse_zeta_expr("qint(3,5)**2") == pytest.approx((1 + 5 ** 0.5) ** 2 / 4)
    assert parse_zeta_expr("5/4*csc(pi/5)**2") == pytest.approx(1 + (1 + 5 ** 0.5) ** 2 / 4)
    for bad in ["+1", "qint(3.5,5)", "zeta(3,1j)", "True", "zeta(n=3,k=1)", "sqrt(2,3)",
                "zeta(-3,1)"]:
        with pytest.raises(ValueError):
            parse_zeta_expr(bad)


@pytest.mark.parametrize("text", ["1e308*10", "1e308*10-1e308*10", "1e309"])
def test_parse_refuses_a_value_that_is_not_finite(text):
    with pytest.raises(ValueError, match=rf"^cannot read scalar {re.escape(repr(text))}: "
                                         r"\((inf|nan)\+0j\) is not finite$"):
        parse_zeta_expr(text)


@given(st.complex_numbers(max_magnitude=2.0 ** 63, allow_infinity=False, allow_nan=False))
def test_scalar_json_is_lossless(z):
    # an int only for an exact integer, so the writer rounds nothing away
    assert parse_scalar(_scalar_to_json(z)) == z


@pytest.mark.parametrize("z, want", [(1 + 1e-13, [1 + 1e-13, 0.0]), (3 + 0j, 3), (-0.0, 0),
                                     (complex(2, 1e-13), [2.0, 1e-13])], ids=repr)
def test_scalar_json_writes_an_int_only_for_an_integer(z, want):
    got = _scalar_to_json(complex(z))
    assert got == want and type(got) is type(want)


def _public_callables():
    """{qualified name: callable} for the package's public names, each module's
    __all__ and the public methods of every class among them."""
    seen = {}
    names = [(fusionring, n) for n in vars(fusionring)
             if not n.startswith("_") and not inspect.ismodule(getattr(fusionring, n))]
    for module in (core, exact, spectral, nearintegral, structure, premodular, catalog, cli):
        public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        names += [(module, n) for n in public]
    for module, name in names:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, inspect.isroutine):
                if ((attr == "__init__" or not attr.startswith("_"))
                        and getattr(member, "__module__", "").startswith("fusionring")):
                    seen[f"{obj.__module__}.{name}.{attr}"] = member
        elif inspect.isroutine(obj) and obj.__module__.startswith("fusionring"):
            seen[f"{obj.__module__}.{name}"] = obj
    return seen


def test_no_tolerance_knobs():
    # the tolerance policy is exact.SNAP_TOL and exact.EXACT_TOL; no public
    # function takes a threshold (the scan must see exact's and a method)
    knobs = {"tol", "snap", "tolerance"}
    callables = _public_callables()
    assert "fusionring.exact.parse_scalar" in callables
    assert "fusionring.core.FusionRing.fuse" in callables
    offending = [name for name, f in callables.items()
                 if knobs & set(inspect.signature(f).parameters)]
    assert offending == []

    def options(parser):
        for action in parser._actions:
            yield from action.option_strings
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from options(sub)

    assert "--format" in set(options(cli.build_parser()))
    assert "--tolerance" not in set(options(cli.build_parser()))


def test_tolerance_constants_live_in_exact():
    assert (exact.SNAP_TOL, exact.EXACT_TOL) == (1e-6, 1e-9)
    assert not hasattr(premodular, "DEFAULT_TOL")
    for module in (fusionring, catalog, cli, core, nearintegral, premodular, spectral, structure):
        assert not hasattr(module, "SNAP_TOL") and not hasattr(module, "EXACT_TOL"), module
