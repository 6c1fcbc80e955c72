"""Rings and helpers used in more than one test module."""

import ast
import cmath
import math

from fusionring.core import CharacterTable, group_ring
from fusionring.exact import SNAP_TOL


def references(module: str, tree, names) -> list:
    """'module.qualified.name' of each function or method in tree (or the
    module itself, for top-level code) that reads a name or attribute in
    names, once each, in source order."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names):
            if not isinstance(node.ctx, ast.Store):
                name = ".".join([module] + scope)
                if name not in out:
                    out.append(name)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return out


def snap_int(x: float):
    """The nearest integer if within SNAP_TOL, else None (always for inf and
    nan): the rule formal_codegrees applied one value at a time before it
    made one exact._snaps call per ring, kept verbatim as an oracle."""
    if not math.isfinite(x):
        return None
    r = round(x)
    if abs(x - r) <= SNAP_TOL:
        return int(r)
    return None


def refuse(*args, **kwargs):
    """Stand-in for a check that the code under test must not reach."""
    raise AssertionError("not to be called")


def cyclic_form_class_count(n: int) -> int:
    """Classes of quadratic forms on C_n: q(x) = a x^2 / d with a in Z/d,
    d = n (n odd) or 2n (n even), and x -> u x for a unit u moves a to
    a u^2, so the classes are the orbits of Z/d under the squared units."""
    d = n if n % 2 else 2 * n
    squares = {u * u % d for u in range(1, n + 1) if math.gcd(u, n) == 1}
    return len({frozenset(a * s % d for s in squares) for a in range(d)})


def ordered_factor_lists(bound: int, start=()) -> list:
    """Every list of cyclic orders >= 2, in every order, with product at
    most bound; the empty list first."""
    out = [list(start)]
    for f in range(2, bound // math.prod(start) + 1):
        out += ordered_factor_lists(bound, start + (f,))
    return out


def dihedral_table(m: int) -> list:
    """Multiplication table of the dihedral group of order 2m on r^a s^b,
    numbered b m + a, so the identity is 0: r^a s^b r^c s^d is
    r^(a + c) s^d when b = 0 and r^(a - c) s^(1 - d) when b = 1."""
    def mul(x, y):
        a, b = x % m, x // m
        c, d = y % m, y // m
        return (b ^ d) * m + (a - c if b else a + c) % m
    return [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)]


def s3_group_ring():
    """Group ring of the nonabelian S3 = D3 from its multiplication table on
    e, r, r2, s, sr, sr2."""
    return group_ring(dihedral_table(3))


def agl1_table(p: int) -> CharacterTable:
    """Character table of AGL(1, p), x -> ax + b over F_p (p prime), in
    closed form. Classes: the identity, the p - 1 translations, and for
    j = 1..p-2 the p maps with a = g^j for a generator g of F_p^*. Rows: the
    p - 1 characters lambda_k(g^j) = exp(2 pi i kj / (p - 1)), trivial on
    translations, then the one of degree p - 1, which is -1 on translations
    and 0 elsewhere."""
    linear = [[1, 1] + [cmath.exp(2j * cmath.pi * k * j / (p - 1)) for j in range(1, p - 1)]
              for k in range(p - 1)]
    return CharacterTable(p * (p - 1), linear + [[p - 1, -1] + [0] * (p - 2)],
                          [1, p - 1] + [p] * (p - 2))


# Scalar strings that table and datum entries must refuse: a division by
# zero, a unary plus, a non-integer root of unity, Python that is not in the
# grammar, an overflow, and a sum and a nesting too deep to evaluate.
HOSTILE_SCALARS = ["1/0", "1++2", "zeta(3.5,1)", "__import__('os')", "x.real", "9**9**9",
                   "+".join(["1"] * 10 ** 5), "(" * 1000 + "1" + ")" * 1000]


def scalar_id(text: str) -> str:
    """A short test id for a scalar string."""
    return text if len(text) <= 20 else f"{text[:6]}...({len(text)} chars)"
