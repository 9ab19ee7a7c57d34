"""Toy Lipschitz actions on the 2-torus used by the Bowen-metric checks.

Floats by design: these are geometric sanity checks, not part of the exact
combinatorial pipeline. Pair distance callbacks accept an optional cap and
stop scanning orbit sites once the running maximum reaches it, which keeps
large orbit boxes affordable without changing any >= eps decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng

_CHUNK = 512


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


def _capped_max(per_site: np.ndarray, cap: float | None) -> float:
    if cap is None:
        return float(per_site.max())
    best = 0.0
    for start in range(0, len(per_site), _CHUNK):
        best = max(best, float(per_site[start : start + _CHUNK].max()))
        if best >= cap:
            return best
    return best


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
        """d_n(i, j, cap=None) over the full orbit box, with early exit at cap.

        Orbit chunks are materialized lazily: far pairs certify >= cap on
        the first chunk, so large boxes cost a single chunk per far pair.
        """
        offs = self.orbit_offsets(n)

        def dn(i: int, j: int, cap: float | None = None) -> float:
            best = 0.0
            for start in range(0, len(offs), _CHUNK):
                block_offs = offs[start : start + _CHUNK]
                xi = (points[i] + block_offs) % 1.0
                yj = (points[j] + block_offs) % 1.0
                best = max(best, float(torus_dist_rows(xi, yj).max()))
                if cap is not None and best >= cap:
                    return best
            return best

        return dn


@dataclass(frozen=True)
class ToralEndoAction:
    """Commuting hyperbolic pair T^(a,b) = M^(a + 2b) mod 1 for M = [[2,1],[1,1]].

    Per-generator Lipschitz constants are the sup-norm operator norms of
    M, M^2 and their inverses (the torus metric lifts locally isometrically,
    so linear operator norms bound the Lipschitz constants).
    """

    def matrix_power(self, k: int) -> np.ndarray:
        m = np.array([[2, 1], [1, 1]], dtype=np.int64)
        minv = np.array([[1, -1], [-1, 2]], dtype=np.int64)
        out = np.eye(2, dtype=np.int64)
        base = m if k >= 0 else minv
        for _ in range(abs(k)):
            out = out @ base
        return out

    @property
    def generator_lipschitz(self) -> float:
        return max(
            float(np.abs(self.matrix_power(k)).sum(axis=1).max()) for k in (-2, -1, 1, 2)
        )

    @property
    def lipschitz(self) -> float:
        # single-constant form lip T^u <= C^||u||_inf for the rank-2 action
        return self.generator_lipschitz**2

    def apply(self, u: tuple[int, int], x: np.ndarray) -> np.ndarray:
        mat = self.matrix_power(u[0] + 2 * u[1])
        return (x @ mat.T) % 1.0

    def pair_bowen(self, points: np.ndarray, n: int):
        ks = sorted({a + 2 * b for a in range(-n, n + 1) for b in range(-n, n + 1)})
        orbits = np.stack([(points @ self.matrix_power(k).T) % 1.0 for k in ks], axis=1)

        def dn(i: int, j: int, cap: float | None = None) -> float:
            return _capped_max(torus_dist_rows(orbits[i], orbits[j]), cap)

        return dn
