"""Integer-lattice geometry: sites, centered boxes, sparse patterns, sumsets.

Sites are integer pairs in Z^2. A Pattern is a sparse coloring of a box
Q_n = {u : ||u||_inf <= n}: only cells that differ from the default symbol
are stored, because in the infinite-measure setting the default symbol
occupies all but a vanishing fraction of sites. All distances are exact
rationals; floats never enter this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Site = tuple[int, ...]


class UsageError(ValueError):
    """Caller violated an operation's precondition."""


def site_add(u: Site, v: Site) -> Site:
    return tuple(a + b for a, b in zip(u, v))


def sup_norm(u: Site) -> int:
    return max(abs(a) for a in u)


def box_site_count(n: int) -> int:
    """Number of lattice sites in Q_n, exactly (2n+1)^2."""
    if n < 0:
        raise UsageError(f"box radius must be >= 0, got {n}")
    return (2 * n + 1) ** 2


def box_sites(n: int) -> Iterator[Site]:
    """Iterate all sites of Q_n in lexicographic order."""
    if n < 0:
        raise UsageError(f"box radius must be >= 0, got {n}")
    return itertools.product(range(-n, n + 1), repeat=2)


@dataclass(frozen=True)
class Box:
    """Centered box Q_n in Z^2."""

    radius: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise UsageError(f"invalid box radius {self.radius}")

    def sites(self) -> Iterator[Site]:
        return box_sites(self.radius)


@dataclass
class Pattern:
    """Sparse coloring of a box; cells holds only the non-default sites.

    The constructor checks each cell in one pass: a site (x, y) inside the
    box on both axes, carrying a symbol other than the default.
    Pattern.product builds the two-color name over a product X x Y and
    checks the box per axis instead, in |X| + |Y| steps.
    """

    box: Box
    default_symbol: int
    cells: dict[Site, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        r, default = self.box.radius, self.default_symbol
        lo = -r
        for u, sym in self.cells.items():
            if len(u) != 2 or not (lo <= u[0] <= r and lo <= u[1] <= r):
                raise UsageError(f"cell {u} outside box Q_{r}")
            if sym == default:
                raise UsageError(f"cell {u} stores the default symbol (not canonical)")

    @classmethod
    def product(cls, box: Box, xs: Sequence[int], ys: Sequence[int]) -> Pattern:
        """The pattern with symbol 1 on xs x ys and default 0."""
        r = box.radius
        for axis in (xs, ys):
            if axis and (min(axis) < -r or max(axis) > r):
                raise UsageError(f"axis values {min(axis)}..{max(axis)} outside box Q_{r}")
        pattern = cls.__new__(cls)
        pattern.box, pattern.default_symbol, pattern.cells = box, 0, dict.fromkeys(itertools.product(xs, ys), 1)
        return pattern


def pattern_distance(a: Pattern, b: Pattern) -> Fraction:
    """Relative Hamming distance between two patterns over the same box.

    Counts disagreeing sites, normalized by the number of sites where either
    pattern is non-default, with the convention 0/0 = 0. Always in [0, 1],
    and a true metric on patterns over a fixed box.

    Both counts come from the cell dicts' set views. Cells never store the
    default symbol, so the union has |A| + |B| - |keys(A) & keys(B)| sites,
    and a site differs unless both patterns store the same symbol there:
    differing = union - |items(A) & items(B)|.
    """
    if a.box != b.box:
        raise UsageError("patterns live on different boxes")
    if a.default_symbol != b.default_symbol:
        raise UsageError("patterns have different default symbols")
    ca, cb = a.cells, b.cells
    union = len(ca) + len(cb) - len(ca.keys() & cb.keys())
    if not union:
        return Fraction(0)
    return Fraction(union - len(ca.items() & cb.items()), union)


# ---------------------------------------------------------------------------
# Lattice sets: the per-coordinate sumset of arithmetic grids.


class AxisSumset:
    """Per-coordinate sumset G_1 + ... + G_J of grids G_j = m_j Z ∩ [-s_j, s_j].

    Levels are given as (spacing, radius) pairs, finest first. Every spacing
    must exceed twice the reach s_1 + ... + s_{j-1} of the finer levels, so
    each value has exactly one decomposition into per-level offsets. count_sum
    and values both read _copies, and only a window's partial end copies recurse.
    """

    def __init__(self, levels: Iterable[tuple[int, int]]) -> None:
        self._levels: list[tuple[int, int, int]] = []  # (m, s // m, reach of the finer levels)
        self._reach = [0]  # reach of levels[:t]
        self._size = [1]  # number of values of levels[:t]
        for m, s in levels:
            if m <= 2 * self._reach[-1]:
                raise UsageError(
                    f"spacing {m} does not dominate remaining reach {self._reach[-1]}; "
                    "sumset would lose unique decomposition"
                )
            self._levels.append((m, s // m, self._reach[-1]))
            self._reach.append(self._reach[-1] + s)
            self._size.append(self._size[-1] * (2 * (s // m) + 1))
        # the peel walks the levels coarsest first: (m, m // 2, s // m) per level
        self._peel_levels = tuple((m, m // 2, k) for m, k, _ in reversed(self._levels))
        #: each level's reach of the finer levels, coarsest first: the slacks of a unique decomposition
        self.reaches = tuple(reach for _, _, reach in reversed(self._levels))

    def peel(self, a: int, slacks: Sequence[int]) -> tuple[list[int], int]:
        """Peel a top-down through the levels, while each level has an offset.

        slacks[t] is the slack of the t-th level from the top (coarsest
        first, as the peel walks, like reaches). Level t's offset g is the
        multiple of its spacing nearest to the remainder, kept when
        |remainder - g| <= slacks[t]; it is the only candidate because
        callers keep slack below half the spacing. One divmod per level
        gives both the quotient and the signed rest. Returns the offsets
        peeled (coarsest first) and the remainder.
        """
        offsets: list[int] = []
        for (m, h, k), room in zip(self._peel_levels, slacks):
            q, rest = divmod(a + h, m)
            rest -= h
            if not (-k <= q <= k and -room <= rest <= room):
                break
            offsets.append(a - rest)
            a = rest
        return offsets, a

    def count_sum(self, lo: int, hi: int) -> tuple[int, int]:
        """Count and sum of the values in [lo, hi]."""
        return self._count_sum(len(self._levels), lo, hi)

    def _count_sum(self, top: int, lo: int, hi: int) -> tuple[int, int]:
        if lo <= -self._reach[top] and hi >= self._reach[top]:
            return self._size[top], 0  # the window covers the whole, symmetric set
        if top == 0:
            return 0, 0
        m, qa, qb, fa, fb = self._copies(top, lo, hi)
        size, whole = self._size[top - 1], fb - fa + 1
        count, total = whole * size, size * m * (fa + fb) * whole // 2
        for q in (*range(qa, fa), *range(fb + 1, qb + 1)):
            c, s = self._count_sum(top - 1, lo - q * m, hi - q * m)
            count, total = count + c, total + s + q * m * c
        return count, total

    def _copies(self, top: int, lo: int, hi: int) -> tuple[int, int, int, int, int]:
        """(m, qa, qb, fa, fb): level top's spacing; its copies q*m + (levels[:top - 1] sumset)
        that meet [lo, hi] are qa..qb, and those inside it fa..fb (qb + 1..qb when none)."""
        m, k, reach = self._levels[top - 1]
        qa, qb = max(-((reach - lo) // m), -k), min((hi + reach) // m, k)
        fa, fb = max(qa, -((-lo - reach) // m)), min(qb, (hi - reach) // m)
        return (m, qa, qb, fa, fb) if fa <= fb else (m, qa, qb, qb + 1, qb)

    def _runs(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """The values in [lo, hi] as increasing runs (first, last, step) of the finest level."""
        runs: list[tuple[int, int, int]] = []
        if self._levels:
            self._walk_runs(runs, {}, len(self._levels), 0, lo, hi)
        elif lo <= 0 <= hi:
            runs.append((0, 0, 1))
        return runs

    def _walk_runs(self, runs: list, full: dict[int, list], top: int, base: int, lo: int, hi: int) -> None:
        """Append the finest-level runs of base + (levels[:top] sumset) in base + [lo, hi] to runs.

        full[t] holds the runs of the whole levels[:t] sumset, built once per _runs call.
        """
        m, qa, qb, fa, fb = self._copies(top, lo, hi)
        if top == 1:
            if qa <= qb:
                runs.append((base + qa * m, base + qb * m, m))
            return
        if fa <= fb and top - 1 not in full:
            self._walk_runs(full.setdefault(top - 1, []), full, top - 1, 0, -self._reach[top - 1], self._reach[top - 1])
        for q in range(qa, qb + 1):
            d = base + q * m
            if fa <= q <= fb:
                runs.extend([(first + d, last + d, step) for first, last, step in full[top - 1]])
            else:
                self._walk_runs(runs, full, top - 1, d, lo - q * m, hi - q * m)

    def values(self, lo: int, hi: int, origin: int = 0) -> list[int]:
        """Sorted values in [lo, hi], as offsets from origin."""
        out: list[int] = []
        for first, last, m in self._runs(lo, hi):
            out.extend(range(first - origin, last - origin + 1, m))
        return out


# ---------------------------------------------------------------------------
# Symbol names and pattern text format.

#: Symbol ids and their names: 0/1 for the two-color construction, a/b for overlay bits.
SYMBOL_NAMES = {0: "0", 1: "1", 2: "a", 3: "b"}


def _symbol_name(sym: int) -> str:
    try:
        return SYMBOL_NAMES[sym]
    except KeyError:
        raise UsageError(f"symbol id {sym} not registered") from None


def pattern_to_text(p: Pattern) -> str:
    """Canonical text form: header line, then one sorted line per non-default cell."""
    lines = [f"box {p.box.radius} default {_symbol_name(p.default_symbol)}"]
    for (x, y), sym in sorted(p.cells.items()):
        lines.append(f"{x} {y} {_symbol_name(sym)}")
    return "\n".join(lines) + "\n"
