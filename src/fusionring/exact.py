"""Exact scalars: roots of unity and small integer combinations of them.

Everything downstream (character tables, T-matrices, S-matrix entries) only
ever needs Z-linear combinations of roots of unity, so a fraction-of-a-turn
type plus a tiny expression parser is enough; no symbolic algebra dependency.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class RootOfUnity:
    """exp(2*pi*i * num/den), stored with num/den in lowest terms, 0 <= num < den."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(self.num % self.den, self.den)
        object.__setattr__(self, "num", (self.num % self.den) // g)
        object.__setattr__(self, "den", self.den // g)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        f = self.fraction + other.fraction
        return RootOfUnity(f.numerator, f.denominator)

    def __pow__(self, k: int) -> "RootOfUnity":
        f = self.fraction * k
        return RootOfUnity(f.numerator, f.denominator)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.num, self.den)

    conjugate = inverse

    def value(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.num / self.den)

    @property
    def order(self) -> int:
        return self.den

    def __str__(self) -> str:
        if self.num == 0:
            return "1"
        return f"zeta({self.den},{self.num})"


def parse_zeta_expr(text: str) -> complex:
    """Parse an exact-scalar string into a complex number.

    Grammar: signed sum of terms, each term an optional integer coefficient
    times an optional root of unity, e.g. "zeta(8,1)+zeta(8,7)",
    "2*zeta(3,1)", "-1", "4*zeta(6,1)", "zeta(4,1)**3".
    """
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
            root = RootOfUnity(num, den)
            if zm.group(3) is not None:
                root = root ** int(zm.group(3))
            total += sign * coef * root.value()
            pos += zm.end()
        else:
            if m is None or not m.group(1):
                raise ValueError(f"cannot parse term at position {pos} in {text!r}")
            total += sign * coef
        first = False
    return total


def parse_scalar(entry) -> complex:
    """Parse one matrix entry from JSON: number, [re, im] pair, or zeta string."""
    if isinstance(entry, str):
        return parse_zeta_expr(entry)
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ValueError(f"complex pair must have length 2: {entry!r}")
        return complex(float(entry[0]), float(entry[1]))
    if isinstance(entry, (int, float)):
        return complex(entry)
    raise ValueError(f"unsupported scalar entry: {entry!r}")


def _scalar_to_json(z: complex):
    """JSON form of a matrix entry that parse_scalar reads back: an int when
    z is one to 1e-12, else a [re, im] pair."""
    if abs(z.imag) < 1e-12 and abs(z.real - round(z.real)) < 1e-12:
        return int(round(z.real))
    return [z.real, z.imag]


# The library's one tolerance policy. No caller sets it: what the library
# decides is exact (multiplicities, kappa, N, roots of unity); floats only compute it.
SNAP_TOL = 1e-6  # a float this close to an integer, or to the value it must equal, is that
EXACT_TOL = 1e-9  # how far floats computed from exact input may disagree


def snap_int(x: float):
    """Round to the nearest integer if within SNAP_TOL, else return None
    (always for inf and nan)."""
    if not math.isfinite(x):
        return None
    r = round(x)
    if abs(x - r) <= SNAP_TOL:
        return int(r)
    return None
