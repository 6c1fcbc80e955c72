"""Rings and helpers used in more than one test module."""

import math

from fusionring.core import group_ring


def refuse(*args, **kwargs):
    """Stand-in for a check that the code under test must not reach."""
    raise AssertionError("not to be called")


def ordered_factor_lists(bound: int, start=()) -> list:
    """Every list of cyclic orders >= 2, in every order, with product at
    most bound; the empty list first."""
    out = [list(start)]
    for f in range(2, bound // math.prod(start) + 1):
        out += ordered_factor_lists(bound, start + (f,))
    return out


def s3_group_ring():
    """Group ring of the nonabelian S3 from its multiplication table on
    e, r, r2, s, sr, sr2."""
    def mul(a, b):
        ra, sa = a % 3, a // 3
        rb, sb = b % 3, b // 3
        if sa == 0:
            r, s = (ra + rb) % 3, sb
        else:
            r, s = (ra - rb) % 3, 1 - sb
        return s * 3 + r
    return group_ring([[mul(a, b) for b in range(6)] for a in range(6)])
