"""Recurrence sets R_n(A, x), position decoding, and dimension checks.

For the built construction the recurrence set of a point is always a
product X x Y of per-coordinate offset lists, so the set itself, pattern
identity, counts, centroids and the metric all run on the two axis lists;
no site set of a window is built.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import cutstack
from .cutstack import PointHandle
from .lattice import Site, UsageError, box_site_count


def recurrence_set(point: PointHandle, n: int) -> tuple[frozenset[int], frozenset[int]]:
    """Return sites of the point within Q_n as their axis factors (X, Y): the
    1-cells of its name are exactly X x Y. Refused, like the name, when the
    window holds more than GENERIC_CELL_CAP cells."""
    xs, ys = cutstack.capped_window_axes(point, n)
    return frozenset(xs), frozenset(ys)


def recurrence_key(point: PointHandle, n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Exact key (n, X, Y) of the recurrence pattern, the axes in ascending order.

    Every window holds the point itself, so X and Y are never empty and two
    keys of one n are equal exactly when their patterns X x Y are.
    """
    xs, ys = cutstack.window_axes(point, n)
    return n, tuple(xs), tuple(ys)


def centroid_decode_axes(mean_x: tuple[int, int], mean_y: tuple[int, int]) -> Site:
    """Position encoded by a translate of a zero-sum window X x Y: the negated mean (mean X, mean Y),
    rounded to the nearest integer with exact .5 ties toward zero so contamination stays visible.

    Each mean is given exactly as the integer pair (offset sum, count) of
    its axis, from `AxisSumset.count_sum`; an empty axis is refused.
    """
    return (_round_half_toward_zero(*mean_x), _round_half_toward_zero(*mean_y))


def _round_half_toward_zero(total: int, count: int) -> int:
    """-total / count rounded to the nearest integer, exact .5 ties toward zero.

    One floor division and one comparison of the doubled remainder with the
    count, all on integers: with q = -total / count = floor + rem / count,
    0 <= rem < count, the nearest integer is floor + 1 when 2 rem > count,
    floor when 2 rem < count, and on a tie the one nearer zero.
    """
    if count < 1:
        raise UsageError("empty window core")
    floor, rem = divmod(-total, count)
    twice = 2 * rem
    return floor + 1 if twice > count or twice == count and total > 0 else floor


def rho_alpha_bound_holds(n: int, count: int, alpha_hat: float, eps: Fraction | float) -> bool:
    """Whether N = count obeys N <= 2^(2 |Q_n|^(alpha_hat + eps) log2 |Q_n|).

    This is the binomial subset-count bound: patterns of at most
    |Q_n|^(alpha+eps) return sites cannot outnumber the subset count. It is
    compared in log space, log2 log2 N <= 1 + (alpha_hat + eps) log2 |Q_n| +
    log2 log2 |Q_n|, with every log taken from the exact integer, so no scale
    leaves float range. N = 1 is always within the bound, and at n = 0 the
    bound is 2^0 = 1.
    """
    if count < 1:
        raise UsageError("cover counts must be >= 1")
    q = box_site_count(n)
    return count == 1 or q > 1 and math.log2(math.log2(count)) <= (
        1 + (alpha_hat + float(eps)) * math.log2(q) + math.log2(math.log2(q))
    )
