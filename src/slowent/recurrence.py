"""Recurrence sets R_n(A, x), position decoding, and dimension checks.

For the built construction the recurrence set of a point is always a
product X x Y of per-coordinate offset lists, so pattern identity, counts,
and centroids all run on the two axis lists instead of the full site set.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import cutstack
from .cutstack import PointHandle
from .lattice import Site, UsageError, box_site_count


def recurrence_set(point: PointHandle, n: int) -> frozenset[Site]:
    """Return sites of the point within Q_n; exactly the 1-cells of its name."""
    xs, ys = cutstack.capped_window_axes(point, n)
    return frozenset((x, y) for x in xs for y in ys)


def recurrence_count(point: PointHandle, n: int) -> int:
    """|R_n(A, x)| via interval counting, no site materialization."""
    return cutstack.core_count(point, n)


def recurrence_key(point: PointHandle, n: int) -> bytes:
    """Compact digest identifying the recurrence pattern.

    Distinct digests certify distinct patterns, so a digest count is a
    lower bound on the number of distinct patterns; it is used where the
    matching upper bound (patterns are functions of position) makes the
    count exact.
    """
    xs, ys = cutstack.window_axes(point, n)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((n, xs, ys)).encode())
    return h.digest()


def centroid_decode_axes(count_x: int, mean_x: Fraction, count_y: int, mean_y: Fraction) -> Site:
    """Position encoded by a translate of a zero-sum window X x Y: the negated mean (mean X, mean Y),
    rounded to the nearest integer with exact .5 ties toward zero so contamination stays visible."""
    if count_x == 0 or count_y == 0:
        raise UsageError("cannot decode an empty recurrence pattern")
    return (_round_half_toward_zero(-mean_x), _round_half_toward_zero(-mean_y))


def _round_half_toward_zero(q: Fraction) -> int:
    floor = q.numerator // q.denominator
    rem = q - floor
    if rem > Fraction(1, 2):
        return floor + 1
    if rem < Fraction(1, 2):
        return floor
    return floor + 1 if q < 0 else floor


@dataclass(frozen=True)
class InequalityCell:
    n: int
    cover_count: int
    log2_bound: float
    ok: bool


def rho_alpha_inequality_check(
    cover_values: Sequence[tuple[int, int]],
    alpha_hat: float,
    eps: Fraction | float,
) -> list[InequalityCell]:
    """Check N <= 2^(2 |Q_n|^(alpha_hat + eps) log2 |Q_n|) for each (n, N).

    This is the binomial subset-count bound: patterns of at most
    |Q_n|^(alpha+eps) return sites cannot outnumber the subset count.
    """
    out = []
    for n, count in cover_values:
        if count < 1:
            raise UsageError("cover counts must be >= 1")
        q = box_site_count(n)
        log2_bound = 2.0 * (q ** (alpha_hat + float(eps))) * math.log2(q)
        ok = math.log2(count) <= log2_bound
        out.append(InequalityCell(n, count, log2_bound, ok))
    return out
