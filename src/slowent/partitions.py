"""The recurrence metric d_{A,n}: the name metric d_{P,n} of the two-atom
partition {core, complement}, whose names are 0/1 patterns with the return
sites as 1-cells (`lattice.pattern_distance`), read off the site sets.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Site


def recurrence_metric(rx: set[Site] | frozenset[Site], ry: set[Site] | frozenset[Site]) -> Fraction:
    """Symmetric difference over union of two return-site sets, 0/0 = 0.

    Both sizes come from the intersection: |rx | ry| = |rx| + |ry| - |rx & ry|,
    and the symmetric difference is the union less the intersection.
    """
    common = len(rx & ry)
    union = len(rx) + len(ry) - common
    if not union:
        return Fraction(0)
    return Fraction(union - common, union)
