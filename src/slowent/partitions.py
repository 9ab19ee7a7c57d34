"""The recurrence metric d_{A,n}: the name metric d_{P,n} of the two-atom
partition {core, complement}, whose names are 0/1 patterns with the return
sites as 1-cells (`lattice.pattern_distance`), read off the two axis factors
X, Y of each return set R = X x Y (`recurrence.recurrence_set`).
"""

from __future__ import annotations

from fractions import Fraction


def recurrence_metric(rx: tuple[frozenset[int], frozenset[int]], ry: tuple[frozenset[int], frozenset[int]]) -> Fraction:
    """Symmetric difference over union of two return sets X x Y and X' x Y', 0/0 = 0.

    The intersection of two products is the product of the per-axis
    intersections, so |R & R'| = |X & X'| |Y & Y'| and |R | R'| = |X||Y| +
    |X'||Y'| - |R & R'|; the symmetric difference is the union less the
    intersection.
    """
    (xs, ys), (xs2, ys2) = rx, ry
    common = len(xs & xs2) * len(ys & ys2)
    union = len(xs) * len(ys) + len(xs2) * len(ys2) - common
    if not union:
        return Fraction(0)
    return Fraction(union - common, union)
