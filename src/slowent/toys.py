"""Toy Lipschitz actions on the 2-torus used by the Bowen-metric checks.

Exact: a torus coordinate is a uint64 in units of 2^-64, so uint64
wrap-around is reduction mod 1 and the torus distance of a coordinate
difference d is min(d, -d). The sample points, the translation vectors and
the eps thresholds are float64 dyadics, which `units` counts exactly, and
M^k is computed in Python ints and reduced mod 2^64. The separation first
fit (`covernum`) runs on Python-int bitmasks: `close_masks` marks the pairs
below eps at u = 0, and a pair distance callback d_n(i, j) gives the orbit
maximum for the pairs inside a mask only. T^0 is the identity for both
actions and d_n >= d_0, so a pair outside the mask is eps-separated at
every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import covernum, rng

UNIT = 1 << 64


def units(x: float) -> int:
    """x in units of 2^-64, rounded up.

    Exact for a float64 of at least 2^-11, such as V1, V2 or eps; and an
    integer distance d is below x exactly when it is below units(x).
    """
    return math.ceil(Fraction(x) * UNIT)


def torus_dist_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sup metric on the 2-torus in units of 2^-64, row by row along the last axis.

    Both arguments are uint64, so a coordinate difference d wraps mod 2^64
    and its distance to 0 is min(d, -d).
    """
    d = xs - ys
    return np.minimum(d, -d).max(axis=-1)


def sample_torus_points(count: int, seed: int) -> np.ndarray:
    """count points of the torus as uint64 units, each coordinate the top 53 bits of one keyed word."""
    coords = [rng.stream_u64(seed, tag, i) >> 11 << 11 for i in range(count) for tag in ("torus-x", "torus-y")]
    return np.array(coords, dtype=np.uint64).reshape(count, 2)


def close_masks(points: np.ndarray, eps: float) -> list[int]:
    """Per point, the bitmask of the points at torus distance < eps from it, itself included.

    One all-pairs pass in row blocks of about 2^14 pairs, so each uint64
    temporary stays near 256 KiB however large the sample is.
    """
    cut = units(eps)
    rows = max(1, (1 << 14) // max(len(points), 1))
    out: list[int] = []
    for lo in range(0, len(points), rows):
        near = torus_dist_rows(points[lo : lo + rows, None, :], points) < cut
        out += [int.from_bytes(row.tobytes(), "little") for row in np.packbits(near, axis=1, bitorder="little")]
    return out


def bowen_separations(action, points: np.ndarray, close: dict[float, list[int]], n_list):
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
    """Commuting pair of torus translations; every T^u is an isometry."""

    V1 = (0.41421356237309515, 0.7320508075688772)
    V2 = (0.23606797749978969, 0.6180339887498949)

    def pair_bowen(self, points: np.ndarray, n: int):
        """d_n(i, j): the maximum of the sup metric over the orbit box, for two indices or two index arrays."""
        grid = range(-n, n + 1)
        steps = [(units(x), units(y)) for x, y in zip(self.V1, self.V2)]
        # a V1 + b V2 mod 1 per site (a, b), a-major
        offs = np.array([[(a * x + b * y) % UNIT for x, y in steps] for a in grid for b in grid], dtype=np.uint64)

        def dn(i, j):
            return torus_dist_rows(points[i, ..., None, :] + offs, points[j, ..., None, :] + offs).max(axis=-1)

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

    def pair_bowen(self, points: np.ndarray, n: int):
        # a + 2b over |a|, |b| <= n is every k in [-3n, 3n]
        powers = [[[e % UNIT for e in row] for row in self.matrix_power(k)] for k in range(-3 * n, 3 * n + 1)]
        orbits = np.stack([points @ np.array(mk, dtype=np.uint64).T for mk in powers], axis=1)

        def dn(i, j):
            return torus_dist_rows(orbits[i], orbits[j]).max(axis=-1)

        return dn

    def diagonal_bowen(self, points: np.ndarray, n: int, step: int) -> list[int]:
        """d_n(x, x + step (1, 1)) for each point x, step and distances in units of 2^-64."""
        pairs = np.concatenate([points, points + np.uint64(step)])
        return self.pair_bowen(pairs, n)(range(len(points)), range(len(points), len(pairs))).tolist()
