"""Toy Lipschitz actions on the 2-torus used by the Bowen-metric checks.

Floats by design: these are geometric sanity checks, not part of the exact
combinatorial pipeline. Pair distance callbacks take one point against one
point or against an index array of points, plus an optional cap. Against
an array they evaluate the u = 0 orbit term for every pair in one
broadcast, scan the rest of the orbit only for the pairs still below the
cap, and stop at the first pair that stays below it. The orbit maximum does
not depend on scan order, so no >= cap decision changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .lattice import UsageError

def torus_dist(x: np.ndarray, y: np.ndarray) -> float:
    """Sup metric on the 2-torus."""
    return float(torus_dist_rows(x, y))


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


def _bowen_dn(at0: np.ndarray, orbit_max):
    """The pair distance callback d_n(i, j, cap=None) of a toy action.

    at0 holds every point at u = 0 and orbit_max(i, j) is the maximum of the
    base distance over the whole orbit box. For one point j the result is
    that maximum. For an index array j it is an array: the u = 0 terms,
    then the full maximum for the pairs below cap, in order, until one stays
    below cap. So no entry exceeds its true distance, and every entry is
    >= cap exactly when every true distance is.
    """

    def dn(i: int, j, cap: float | None = None):
        js = np.atleast_1d(j)
        out = torus_dist_rows(at0[i], at0[js])
        for k in range(len(js)) if cap is None else np.flatnonzero(out < cap):
            out[k] = orbit_max(i, js[k])
            if cap is not None and out[k] < cap:
                break
        return float(out[0]) if np.ndim(j) == 0 else out

    return dn


@dataclass(frozen=True)
class TranslationAction:
    """Commuting pair of torus translations; every T^u is an isometry."""

    v1: tuple[float, float] = (0.41421356237309515, 0.7320508075688772)
    v2: tuple[float, float] = (0.23606797749978969, 0.6180339887498949)

    lipschitz: float = 1.0

    def apply(self, u: tuple[int, int], x: np.ndarray) -> np.ndarray:
        off = np.array(self.v1) * u[0] + np.array(self.v2) * u[1]
        return (x + off) % 1.0

    def orbit_offsets(self, n: int) -> np.ndarray:
        grid = np.arange(-n, n + 1)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        return a.reshape(-1, 1) * np.array(self.v1) + b.reshape(-1, 1) * np.array(self.v2)

    def pair_bowen(self, points: np.ndarray, n: int):
        """d_n(i, j, cap=None) over the full orbit box, u = 0 first (see `_bowen_dn`)."""
        offs = self.orbit_offsets(n)

        def orbit_max(i: int, j: int) -> float:
            return float(torus_dist_rows((points[i] + offs) % 1.0, (points[j] + offs) % 1.0).max())

        return _bowen_dn((points + offs[len(offs) // 2]) % 1.0, orbit_max)


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

    def apply(self, u: tuple[int, int], x: np.ndarray) -> np.ndarray:
        mat = self.matrix_power(u[0] + 2 * u[1])
        return (x @ mat.T) % 1.0

    def pair_bowen(self, points: np.ndarray, n: int):
        ks = sorted({a + 2 * b for a in range(-n, n + 1) for b in range(-n, n + 1)})
        orbits = np.stack([(points @ self.matrix_power(k).T) % 1.0 for k in ks], axis=1)

        def orbit_max(i: int, j: int) -> float:
            return float(torus_dist_rows(orbits[i], orbits[j]).max())

        return _bowen_dn(orbits[:, ks.index(0)], orbit_max)
