"""Rings built in more than one test module."""

from fusionring.core import group_ring


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
