"""Exact scalars: the one integer test, twists, and the one evaluator of
scalar strings.

A twist is a RootOfUnity, a fraction of a turn in lowest terms (quadratic
forms hold their values as an int table instead). Character tables, S-matrix
entries and classification dimensions, which add sqrt, csc, qint and pi, are
evaluated to complex floats by one walker over Python's own parse tree, with
no symbolic algebra dependency.
parse_zeta_expr states the grammar: it reads table and datum entries
(parse_scalar) and catalog dimension expressions alike. A float becomes an
int only by an exact test, an exact certificate (spectral._is_eigenvector) or
_snaps or _agrees, the only readers of the tolerance policy SNAP_TOL and EXACT_TOL.
"""

from __future__ import annotations

import ast
import cmath
import math
import operator
import reprlib
from dataclasses import dataclass

import numpy as np


def _is_int(x) -> bool:
    """The one integer test for outside input: an int, a numpy integer or a
    0-d integer array (what operator.index reads), never a bool."""
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            or isinstance(x, np.ndarray) and x.ndim == 0 and x.dtype.kind in "iu")


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2*pi*i * num/den), stored with num/den in lowest terms, 0 <= num < den."""

    num: int
    den: int

    def __post_init__(self):
        if not (_is_int(self.num) and _is_int(self.den)):
            raise ValueError(f"a root of unity needs integers, got {self.num!r}/{self.den!r}")
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(self.num % self.den, self.den)
        object.__setattr__(self, "num", (self.num % self.den) // g)
        object.__setattr__(self, "den", self.den // g)

    def value(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.num / self.den)


def quantum_integer(n: int, m: int) -> float:
    """Quantum integer [n]_m = sin(n*pi/m)/sin(pi/m), the positive evaluation
    used for Frobenius-Perron dimensions. n and m must be integers (_is_int)."""
    if not (_is_int(n) and _is_int(m)):
        raise ValueError(f"quantum integer needs integers, got [{n!r}]_{m!r}")
    n, m = operator.index(n), operator.index(m)
    if not (1 <= n < m):
        raise ValueError(f"quantum integer needs 1 <= n < m, got [{n}]_{m}")
    return math.sin(n * math.pi / m) / math.sin(math.pi / m)


def _integer(x: complex) -> int:
    if x.imag or not x.real.is_integer():
        raise ValueError(f"expected an integer argument, got {x}")
    return int(x.real)


_FUNCS = {
    "sqrt": cmath.sqrt,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "csc": lambda x: 1.0 / cmath.sin(x),
    "sec": lambda x: 1.0 / cmath.cos(x),
    "qint": lambda n, m: complex(quantum_integer(_integer(n), _integer(m))),
    "zeta": lambda n, k: RootOfUnity(_integer(k), _integer(n)).value(),
}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def _eval_node(node) -> complex:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return complex(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return complex(math.pi)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval_node(node.left), _eval_node(node.right))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and not node.keywords):
        return _FUNCS[node.func.id](*[_eval_node(a) for a in node.args])
    raise ValueError(f"unsupported {type(node).__name__} node")


def parse_zeta_expr(text: str) -> complex:
    """Evaluate an exact-scalar string to a complex number.

    The grammar is arithmetic (+, binary and unary -, *, /, **) on integer
    and decimal literals, the name pi and the functions sqrt, sin, cos, csc,
    sec, quantum integers qint(n, m) and roots of unity zeta(n, k) =
    exp(2*pi*i*k/n), e.g. "zeta(8,1)+zeta(8,7)", "-4-4*zeta(3,1)",
    "5/4*csc(pi/5)**2". The arguments of qint and zeta must be integers.
    Anything else, an overflow included, raises ValueError, which quotes
    the string shortened by reprlib.
    """
    try:
        value = _eval_node(ast.parse(text.strip(), mode="eval").body)
        if not cmath.isfinite(value):
            raise OverflowError(f"{value} is not finite")
        return value
    except (ValueError, SyntaxError, TypeError, ArithmeticError, RecursionError,
            MemoryError) as exc:
        raise ValueError(f"cannot read scalar {reprlib.repr(text)}: {exc}") from None


def _is_number(x) -> bool:
    """A real number: an int or a float, numpy's too, never a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def parse_scalar(entry) -> complex:
    """Parse one matrix entry from JSON: number, [re, im] pair of numbers,
    or scalar string. A bool is not a number."""
    if isinstance(entry, str):
        return parse_zeta_expr(entry)
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ValueError(f"complex pair must have length 2: {entry!r}")
        if not all(map(_is_number, entry)):
            raise ValueError(f"complex pair must hold two numbers: {entry!r}")
        return complex(float(entry[0]), float(entry[1]))
    if _is_number(entry):
        return complex(entry)
    raise ValueError(f"unsupported scalar entry: {entry!r}")


def _scalar_to_json(z: complex):
    """JSON form of a matrix entry that parse_scalar reads back as z: an int
    when z is exactly one, else a [re, im] pair."""
    if z.imag == 0 and z.real.is_integer():
        return int(z.real)
    return [z.real, z.imag]


# The library's one tolerance policy. No caller sets it: what the library
# decides is exact (multiplicities, kappa, N, roots of unity); floats only compute it.
SNAP_TOL = 1e-6  # a float this close to an integer, or to the value it must equal, is that
EXACT_TOL = 1e-9  # how far floats computed from exact input may disagree


def _within(values, targets, bound):
    """(ok, distance) elementwise: |values - targets| by np.hypot (as abs() of
    a complex scalar rounds), ok iff finite and <= bound; no numpy warning."""
    with np.errstate(all="ignore"):
        diff = np.subtract(values, targets)
        distance = np.hypot(diff.real, diff.imag)
        return np.isfinite(distance) & (distance <= bound), distance


def _agrees(values, targets=0.0, scale=1.0):
    """Floats computed from exact input agree with targets (_within)."""
    return _within(values, targets, EXACT_TOL * scale)


def _snaps(values, targets, scale=1.0):
    """A computed float counts as the integer or value it must be (_within)."""
    return _within(values, targets, SNAP_TOL * scale)
