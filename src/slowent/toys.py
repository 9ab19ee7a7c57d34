"""Toy Lipschitz actions on the 2-torus used by the Bowen-metric checks.

Exact: a torus coordinate is a Python int in units of 2^-64, reduced mod
2^64 after every operation, so the torus distance of a coordinate
difference d is min(d, 2^64 - d). The sample coordinates are 53-bit
dyadics, the eps thresholds float64 dyadics, which `units` counts exactly,
and M^k is applied in Python ints. Both actions are group endomorphisms,
so d_n(x, y) = d_n(x - y, 0): a pair distance is one orbit of one
difference. The separation first fit (`covernum`) runs on Python-int
bitmasks: `close_masks` marks the pairs below eps at u = 0, and a pair
distance callback d_n(i, j) gives the orbit maximum for the pairs inside a
mask only. T^0 is the identity for both actions and d_n >= d_0, so a pair
outside the mask is eps-separated at every n.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from . import covernum, rng

UNIT = 1 << 64
MASK = UNIT - 1
HALF = 1 << 63


def units(x: float) -> int:
    """x in units of 2^-64, rounded up.

    Exact for a float64 of at least 2^-11, such as eps; and an integer
    distance d is below x exactly when it is below units(x).
    """
    return math.ceil(Fraction(x) * UNIT)


def torus_dist_rows(dx: int, dy: int) -> int:
    """Sup norm on the 2-torus of one difference (dx, dy), in units of 2^-64.

    Each coordinate reduces mod 2^64, and its distance to 0 is the shorter
    way round.
    """
    dx, dy = dx & MASK, dy & MASK
    return max(min(dx, UNIT - dx), min(dy, UNIT - dy))


def sample_torus_points(count: int, seed: int) -> list[tuple[int, int]]:
    """count points (x, y) of the torus in units of 2^-64, each coordinate the top 53 bits of one keyed word."""
    return [tuple(rng.stream_u64(seed, tag, i) >> 11 << 11 for tag in ("torus-x", "torus-y")) for i in range(count)]


def arc_masks(coords: list[int], cut: int) -> list[int]:
    """Per coordinate c, the bitmask of the indices whose coordinate lies in
    the arc [c - cut + 1, c + cut) mod 2^64, that is, at distance < cut.

    The coordinates are sorted once, with prefix OR-masks in that order; an
    arc is then one or two index ranges, each the XOR of two prefix masks.
    """
    if 2 * cut > UNIT:
        return [(1 << len(coords)) - 1] * len(coords)
    if cut <= 0:
        return [0] * len(coords)
    length = 2 * cut - 1
    order = sorted(range(len(coords)), key=coords.__getitem__)
    ordered = [coords[i] for i in order]
    prefix = [0]
    for i in order:
        prefix.append(prefix[-1] | 1 << i)
    out = []
    for c in coords:
        lo = (c - cut + 1) & MASK
        hi = lo + length
        mask = prefix[bisect_left(ordered, min(hi, UNIT))] ^ prefix[bisect_left(ordered, lo)]
        if hi > UNIT:
            mask |= prefix[bisect_left(ordered, hi - UNIT)]
        out.append(mask)
    return out


def close_masks(points: list[tuple[int, int]], eps: float) -> list[int]:
    """Per point, the bitmask of the points at torus distance < eps from it, itself included.

    The sup-metric ball is a product of two arcs, so each mask is the AND of
    the point's two `arc_masks`.
    """
    cut = units(eps)
    return [a & b for a, b in zip(arc_masks([x for x, _ in points], cut), arc_masks([y for _, y in points], cut))]


def bowen_separations(action, points: list[tuple[int, int]], close: dict[float, list[int]], n_list):
    """(n, eps, sep(points, d_n, eps)) by first fit, for each n in n_list and each eps of `close`.

    close[eps] must be `close_masks(points, eps)`: only the pairs inside it
    get an orbit maximum.
    """
    for n in n_list:
        dn = action.pair_bowen(points, n)
        for eps, masks in close.items():
            cut = units(eps)
            yield n, eps, covernum.bowen_first_fit_separated(masks, lambda i, j: dn(i, j) >= cut)


@dataclass(frozen=True)
class TranslationAction:
    """Commuting pair of torus translations; every T^u is an isometry.

    A translation fixes every difference x - y mod 1, so d_n = d_0 whatever
    the two translation vectors are.
    """

    def pair_bowen(self, points: list[tuple[int, int]], n: int):
        """d_n(i, j): the torus norm of x_i - x_j, for every n."""

        def dn(i, j):
            (xi, yi), (xj, yj) = points[i], points[j]
            return torus_dist_rows(xi - xj, yi - yj)

        return dn


@dataclass(frozen=True)
class ToralEndoAction:
    """Commuting hyperbolic pair T^(a,b) = M^(a + 2b) mod 1 for M = [[2,1],[1,1]].

    Per-generator Lipschitz constants are the sup-norm operator norms of
    M, M^2 and their inverses (the torus metric lifts locally isometrically,
    so linear operator norms bound the Lipschitz constants).
    """

    def matrix_power(self, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """M^k in Python ints, for every integer k; M^-1 = [[1, -1], [-1, 2]]."""
        (a, b), (c, d) = ((2, 1), (1, 1)) if k >= 0 else ((1, -1), (-1, 2))
        out = ((1, 0), (0, 1))
        for _ in range(abs(k)):
            out = tuple((p * a + q * c, p * b + q * d) for p, q in out)
        return out

    @property
    def generator_lipschitz(self) -> int:
        return max(abs(p) + abs(q) for k in (-2, -1, 1, 2) for p, q in self.matrix_power(k))

    def orbit_lipschitz(self, n: int) -> int:
        """C = max over |k| <= 3n of ||M^k||, so d_n(x, y) <= C d(x, y) over the orbit box |a|, |b| <= n."""
        return max(abs(p) + abs(q) for k in range(-3 * n, 3 * n + 1) for p, q in self.matrix_power(k))

    def pair_bowen(self, points: list[tuple[int, int]], n: int):
        """d_n(i, j): the largest torus norm of M^k (x_i - x_j) over |k| <= 3n.

        a + 2b over |a|, |b| <= n is every k in [-3n, 3n]. One loop steps M
        on (x, y) and M^-1 on (u, v), both starting at the difference and
        reduced mod 2^64 at every step, and folds the norm inline: taking it
        with min and max calls per step ran about 2x slower.
        """

        def dn(i, j):
            (xi, yi), (xj, yj) = points[i], points[j]
            x, y = u, v = (xi - xj) & MASK, (yi - yj) & MASK
            best = torus_dist_rows(x, y)
            for _ in range(3 * n):
                x, y, u, v = (2 * x + y) & MASK, (x + y) & MASK, (u - v) & MASK, (2 * v - u) & MASK
                for c in (x, y, u, v):
                    if c > HALF:
                        c = UNIT - c
                    if c > best:
                        best = c
            return best

        return dn
