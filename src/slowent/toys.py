"""Toy Lipschitz actions on the 2-torus used by the Bowen-metric checks.

Floats by design: these are geometric sanity checks, not part of the exact
combinatorial pipeline. The separation first fit (`covernum`) runs on
Python-int bitmasks: `close_masks` marks the pairs below eps at u = 0, and
a pair distance callback d_n(i, j) gives the orbit maximum for the pairs
inside a mask only. T^0 is the identity for both actions and d_n >= d_0,
so a pair outside the mask is eps-separated at every n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .lattice import UsageError


def torus_dist_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sup metric on the 2-torus, row by row along the last axis."""
    d = np.abs(xs - ys) % 1.0
    return np.minimum(d, 1.0 - d).max(axis=-1)


def sample_torus_points(count: int, seed: int) -> np.ndarray:
    pts = np.empty((count, 2))
    for i in range(count):
        pts[i, 0] = rng.uniform_float(seed, "torus-x", i)
        pts[i, 1] = rng.uniform_float(seed, "torus-y", i)
    return pts


def close_masks(points: np.ndarray, eps: float) -> list[int]:
    """Per point, the bitmask of the points at torus distance < eps from it, itself included.

    One all-pairs pass in row blocks of about 2^14 pairs, so each float
    temporary stays near 256 KiB however large the sample is.
    """
    rows = max(1, (1 << 14) // max(len(points), 1))
    out: list[int] = []
    for lo in range(0, len(points), rows):
        near = torus_dist_rows(points[lo : lo + rows, None, :], points) < eps
        out += [int.from_bytes(row.tobytes(), "little") for row in np.packbits(near, axis=1, bitorder="little")]
    return out


@dataclass(frozen=True)
class TranslationAction:
    """Commuting pair of torus translations; every T^u is an isometry."""

    V1 = (0.41421356237309515, 0.7320508075688772)
    V2 = (0.23606797749978969, 0.6180339887498949)

    def orbit_offsets(self, n: int) -> np.ndarray:
        grid = np.arange(-n, n + 1)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        return a.reshape(-1, 1) * np.array(self.V1) + b.reshape(-1, 1) * np.array(self.V2)

    def pair_bowen(self, points: np.ndarray, n: int):
        """d_n(i, j): the maximum of the sup metric over the orbit box, for two indices or two index arrays."""
        offs = self.orbit_offsets(n)

        def dn(i, j):
            xs, ys = (points[i, ..., None, :] + offs) % 1.0, (points[j, ..., None, :] + offs) % 1.0
            return torus_dist_rows(xs, ys).max(axis=-1)

        return dn


@dataclass(frozen=True)
class ToralEndoAction:
    """Commuting hyperbolic pair T^(a,b) = M^(a + 2b) mod 1 for M = [[2,1],[1,1]].

    Per-generator Lipschitz constants are the sup-norm operator norms of
    M, M^2 and their inverses (the torus metric lifts locally isometrically,
    so linear operator norms bound the Lipschitz constants).
    """

    def matrix_power(self, k: int) -> np.ndarray:
        """M^k as int64; raises UsageError once an entry reaches 2^26.

        Orbit points are x @ M^k.T % 1.0 with x in [0, 1)^2, so an entry of
        2^26 or more leaves fewer than 26 of float64's 53 bits for the
        fractional part of a coordinate. |k| <= 19 stays below the bound.
        """
        m = np.array([[2, 1], [1, 1]], dtype=np.int64)
        minv = np.array([[1, -1], [-1, 2]], dtype=np.int64)
        out = np.eye(2, dtype=np.int64)
        base = m if k >= 0 else minv
        for _ in range(abs(k)):
            out = out @ base
            if np.abs(out).max() >= 1 << 26:
                raise UsageError(f"M^{k} has an entry >= 2^26; orbit coordinates would lose their fractional bits")
        return out

    @property
    def generator_lipschitz(self) -> float:
        return max(
            float(np.abs(self.matrix_power(k)).sum(axis=1).max()) for k in (-2, -1, 1, 2)
        )

    @property
    def lipschitz(self) -> float:
        # single-constant form lip T^u <= C^||u||_inf for the Z^2 action
        return self.generator_lipschitz**2

    def pair_bowen(self, points: np.ndarray, n: int):
        ks = sorted({a + 2 * b for a in range(-n, n + 1) for b in range(-n, n + 1)})
        orbits = np.stack([(points @ self.matrix_power(k).T) % 1.0 for k in ks], axis=1)

        def dn(i, j):
            return torus_dist_rows(orbits[i], orbits[j]).max(axis=-1)

        return dn
