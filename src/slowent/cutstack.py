"""Rank-one cutting-and-tiling engine and its arithmetic-lattice construction.

The construction is driven by a Schedule of radii r(1) < r(2) < ... with
derived step sizes s(i) = r(i+1) - r(i) and spacings m(i) = s(i)^theta.
Stage i >= 2 holds an arrangement of cells over Q_{r(i)}; the 1-colored
(core) cells sit exactly at the sumset Gamma*_{i-1} = Gamma_1 + ... +
Gamma_{i-1} where Gamma_j = Q_{s(j)} intersect m(j)Z^2. Because m(j) >
2 r(j), every core site has a unique representation as a sum of per-level
offsets, and all window statistics factor per coordinate. Every peel,
count and traversal below runs on the per-coordinate kernel
lattice.AxisSumset; nothing enumerates sites when an interval computation
suffices.

Points are addresses (gamma_1, ..., gamma_{i-1}): the interval structure of
the underlying arrangement is quotiented away since every computable
observable depends only on positions and widths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import rng
from .lattice import AxisSumset, Box, Pattern, Site, UsageError, box_site_count, site_add, sup_norm


class StageCapError(RuntimeError):
    """A window evaluation needed more construction stages than are built."""


#: Most decimal digits a schedule radius may have. Every schedule that
#: passes can be written to text and read back (Python converts ints of at
#: most 4300 digits), and the exact root checks stay cheap. The radii grow
#: at least quadratically, so the bound also caps the stage count.
MAX_RADIUS_DIGITS = 4300
_RADIUS_BOUND = 10**MAX_RADIUS_DIGITS


def _radius_too_large(i: int) -> UsageError:
    return UsageError(f"r({i}) has more than {MAX_RADIUS_DIGITS} decimal digits; use fewer stages")


# ---------------------------------------------------------------------------
# Schedules


@dataclass(frozen=True)
class Schedule:
    """Radii prefix with derived steps s(i) and spacings m(i).

    Invariants: s(i) = r(i+1) - r(i), m(i)^(1/theta) = s(i) exactly, and
    m(i) > c * r(i) with c >= 2 (uniqueness of address decomposition needs
    m(i) > 2 r(i)).
    """

    radii: tuple[int, ...]
    theta: Fraction
    c: Fraction
    _levels: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _sumsets: tuple[AxisSumset, ...] = field(init=False, repr=False, compare=False)
    _arrangement_slacks: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.radii) < 1 or self.radii[0] < 1:
            raise UsageError("schedule needs at least one radius with r(1) >= 1")
        if not (0 < self.theta < 1) or Fraction(1) / self.theta != int(Fraction(1) / self.theta):
            raise UsageError(f"theta must be a reciprocal integer in (0,1), got {self.theta}")
        if self.c < 2:
            raise UsageError(f"spacing factor c must be >= 2, got {self.c}")
        inv = int(Fraction(1) / self.theta)
        prev = 0
        for i, r in enumerate(self.radii, start=1):
            if r <= prev:
                raise UsageError(f"radii must be strictly increasing, r({i}) = {r}")
            if r >= _RADIUS_BOUND:
                raise _radius_too_large(i)
            prev = r
        levels = []
        for i in range(1, len(self.radii)):
            s = self.radii[i] - self.radii[i - 1]
            m = _int_root(s, inv)
            if m is None:
                raise UsageError(f"s({i}) = {s} is not a perfect {inv}-th power")
            # with c >= 2 this gives m > 2 r, which unique decomposition needs
            if m <= self.c * self.radii[i - 1]:
                raise UsageError(f"m({i}) = {m} violates m > c*r = {self.c * self.radii[i - 1]}")
            levels.append((m, s))
        object.__setattr__(self, "_levels", tuple(levels))
        object.__setattr__(self, "_sumsets", tuple(AxisSumset(levels[:i]) for i in range(len(self.radii))))
        # locate_site's peel slacks at each stage, coarsest level first: the
        # stage-l arrangement radius, which is r(1) plus the finer reach above level 1
        slacks = tuple(tuple(self.arrangement_radius(l) for l in range(i - 1, 0, -1)) for i in range(1, len(self.radii) + 1))
        object.__setattr__(self, "_arrangement_slacks", slacks)

    @property
    def stages(self) -> int:
        return len(self.radii)

    def r(self, i: int) -> int:
        """Schedule radius r(i), 1-based."""
        if not 1 <= i <= self.stages:
            raise UsageError(f"r({i}) out of range 1..{self.stages}")
        return self.radii[i - 1]

    def arrangement_radius(self, i: int) -> int:
        """Radius of the stage-i arrangement: 0 at stage 1, r(i) afterwards."""
        return 0 if i == 1 else self.r(i)

    def s(self, i: int) -> int:
        """Step s(i) = r(i+1) - r(i); defined for 1 <= i < stages."""
        return self.r(i + 1) - self.r(i)

    def m(self, i: int) -> int:
        """Spacing m(i) = s(i)^theta; defined for 1 <= i < stages."""
        if not 1 <= i < self.stages:
            raise UsageError(f"m({i}) out of range 1..{self.stages - 1}")
        return self._levels[i - 1][0]

    def levels_1d(self, upto: int) -> list[tuple[int, int]]:
        """(m(j), s(j)) for j = 1..upto, the per-coordinate level data."""
        if not 0 <= upto < self.stages:
            raise UsageError(f"levels_1d({upto}) out of range 0..{self.stages - 1}")
        return list(self._levels[:upto])

    def sumset(self, stage: int) -> AxisSumset:
        """Per-coordinate core sumset G_1 + ... + G_{stage-1} of the stage-`stage` arrangement."""
        if not 1 <= stage <= self.stages:
            raise UsageError(f"stage {stage} out of range 1..{self.stages}")
        return self._sumsets[stage - 1]

    def prod_r_exponent(self, i: int) -> float:
        """Diagnostic log(prod_{j<=i} r(j)) / log r(i); 1 + o(1) only for fast growth."""
        if self.r(i) == 1:
            return float("nan")
        acc = sum(math.log(self.r(j)) for j in range(1, i + 1))
        return acc / math.log(self.r(i))


def _int_root(value: int, k: int) -> int | None:
    """Exact integer k-th root of value, or None. Pure-integer Newton iteration."""
    if value < 1:
        return None
    if value.bit_length() <= k:  # value < 2^k, so only 1 can have an integer root
        return 1 if value == 1 else None
    x = 1 << -(-value.bit_length() // k)
    while True:
        y = ((k - 1) * x + value // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == value else None


def build_schedule(stages: int, theta: Fraction, c: Fraction | int, r1: int) -> Schedule:
    """Greedy minimal schedule: m(i) is the smallest integer > c * r(i)."""
    if stages < 1:
        raise UsageError(f"stage count must be >= 1, got {stages}")
    c = Fraction(c)
    if not (0 < theta < 1) or (Fraction(1) / theta).denominator != 1:
        raise UsageError(f"theta must be a reciprocal integer in (0,1), got {theta}")
    inv = int(Fraction(1) / theta)
    radii = [r1]
    for i in range(2, stages + 1):
        r = radii[-1]
        m = int(c * r) + 1 if (c * r) == int(c * r) else math.ceil(c * r)
        # m**inv >= 2^((bits(m) - 1) inv): refuse before forming a power past the bound
        if (m.bit_length() - 1) * inv >= _RADIUS_BOUND.bit_length():
            raise _radius_too_large(i)
        radii.append(r + m**inv)
        if radii[-1] >= _RADIUS_BOUND:
            raise _radius_too_large(i)
    return Schedule(tuple(radii), Fraction(theta), c)


def schedule_to_text(sched: Schedule) -> str:
    lines = [f"theta {sched.theta.numerator}/{sched.theta.denominator}", f"c {sched.c}"]
    for i in range(1, sched.stages + 1):
        lines.append(f"r {i} {sched.r(i)}")
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str) -> Schedule:
    theta: Fraction | None = None
    c: Fraction | None = None
    radii: dict[int, int] = {}
    for ln in text.splitlines():
        parts = ln.split()
        if not parts:
            continue
        try:
            if parts[0] == "theta" and len(parts) == 2:
                theta = Fraction(parts[1])
            elif parts[0] == "c" and len(parts) == 2:
                c = Fraction(parts[1])
            elif parts[0] == "r" and len(parts) == 3:
                radii[int(parts[1])] = int(parts[2])
            else:
                raise ValueError
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad schedule line: {ln!r}") from None
    if theta is None or c is None or not radii:
        raise UsageError("schedule file needs theta, c, and r lines")
    if sorted(radii) != list(range(1, len(radii) + 1)):
        raise UsageError("schedule r indices must be 1..K without gaps")
    return Schedule(tuple(radii[i] for i in sorted(radii)), theta, c)


# ---------------------------------------------------------------------------
# Gamma levels, addresses, decomposition


def gamma_size(sched: Schedule, i: int) -> int:
    """|Gamma_i| = (2 s(i)/m(i) + 1)^2; m(i) divides s(i) = m(i)^(1/theta)."""
    return (2 * (sched.s(i) // sched.m(i)) + 1) ** 2


def gamma_star_size(stage: int, sched: Schedule) -> int:
    """|Gamma*_{stage-1}| = product of level sizes below the stage; 1 at stage 1."""
    return math.prod(gamma_size(sched, j) for j in range(1, stage))


@dataclass(frozen=True)
class Address:
    """Per-level offsets (gamma_1, ..., gamma_{stage-1}) identifying a core column."""

    levels: tuple[Site, ...]


def _check_levels(levels: Sequence[Site], sched: Schedule) -> None:
    """Raise unless every g_j is a pair in Gamma_j = Q_{s(j)} intersect m(j)Z^2.

    Gamma_j is one axis grid taken twice, so each coordinate of g_j must be
    a multiple of m(j) with |a| <= s(j).
    """
    if len(levels) >= sched.stages:
        raise UsageError(f"address has {len(levels)} levels; the schedule builds {sched.stages - 1}")
    for j, ((m, s), g) in enumerate(zip(sched._levels, levels), start=1):
        if len(g) != 2 or g[0] % m or g[1] % m or abs(g[0]) > s or abs(g[1]) > s:
            raise UsageError(f"level-{j} offset {g} outside Gamma_{j}")


def _peel(w: Site, axis: AxisSumset, slacks: Sequence[int]) -> tuple[list[Site], Site]:
    """Peel level offsets from w top-down, from axis's top level, while every coordinate peels.

    slacks holds one slack per level of axis, coarsest first. Level l's
    offset is the unique multiple of m(l) within its slack of the
    remainder; m(l) > 2 r(l) >= 2 slack rules out a second candidate.
    The offsets of one coordinate never depend on the other, so each
    coordinate is peeled through the levels on its own (one
    AxisSumset.peel per coordinate), and the levels both coordinates
    peeled are kept. Returns the peeled offsets (coarsest first) and the
    remainder.
    """
    xs, x = axis.peel(w[0], slacks)
    ys, y = axis.peel(w[1], slacks)
    depth = min(len(xs), len(ys))
    return list(zip(xs, ys)), (x + sum(xs[depth:]), y + sum(ys[depth:]))


def decompose(v: Site, stage: int, sched: Schedule) -> Address | None:
    """Unique representation of v over Gamma_{stage-1} + ... + Gamma_1, or None.

    _peel under the stage's AxisSumset reaches: at level j the remainder
    stays within the reach r(j) - r(1) of the finer levels, and m(j) > 2 r(j)
    leaves one candidate per coordinate, so nothing backtracks.
    """
    axis = sched.sumset(stage)
    peeled, rest = _peel(v, axis, axis.reaches)
    if len(peeled) < stage - 1 or any(rest):
        return None
    return Address(tuple(reversed(peeled)))


def compose(levels: Sequence[Site], sched: Schedule) -> Site:
    """The site g_1 + ... + g_{stage-1} of an address.

    Each |g_j| <= s(j) per coordinate, so the site lies in Q_{r(stage) - r(1)}.
    """
    _check_levels(levels, sched)
    return (sum(g[0] for g in levels), sum(g[1] for g in levels))


# ---------------------------------------------------------------------------
# Points


@dataclass
class PointHandle:
    """A core point, identified by its address; a sampled point grows lazily.

    Level offsets at already-computed stages never change; extension draws
    come from counter-based streams keyed by (seed, level), so identical
    (seed, schedule) pairs reproduce identical extensions regardless of the
    order in which windows are evaluated. The arrangement positions are
    kept as prefix sums of the levels, grown with them.
    """

    schedule: Schedule
    seed: int
    levels: list[Site]
    _positions: list[Site] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x = y = 0
        self._positions = [(0, 0)]
        for gx, gy in self.levels:
            x += gx
            y += gy
            self._positions.append((x, y))

    @functools.cached_property
    def overlay_seed(self) -> int:
        """Seed of the point's overlay bits, derived on first read."""
        return rng.derive_seed(self.seed, "overlay-seed")

    def extend_to(self, stage: int) -> None:
        """Grow the address so the point lives in the stage-`stage` arrangement."""
        if stage > self.schedule.stages:
            raise StageCapError(
                f"stage {stage} exceeds built schedule ({self.schedule.stages} stages); "
                f"max feasible window shrinks accordingly"
            )
        x, y = self._positions[-1]
        for j in range(len(self.levels) + 1, stage):
            m, s = self.schedule._levels[j - 1]
            k = s // m
            qx = rng.uniform_int(self.seed, "gamma-x", j, lo=-k, hi=k)
            qy = rng.uniform_int(self.seed, "gamma-y", j, lo=-k, hi=k)
            g = (qx * m, qy * m)
            self.levels.append(g)
            x += g[0]
            y += g[1]
            self._positions.append((x, y))

    def position_at(self, stage: int) -> Site:
        """Position of the point in the stage-`stage` arrangement."""
        self.extend_to(stage)
        return self._positions[stage - 1]

    def determining_stage(self, n: int) -> int:
        """Smallest stage whose arrangement pins every color in the window Q_n.

        Stage 1 pins Q_0, the point's own core cell, whatever the point's
        levels. A wider window uses the conservative slack rule
        n + r(stage-1) <= r(stage) - ||u||, which leaves room for a full
        lower-stage copy around the window.
        """
        if n < 0:
            raise UsageError(f"window radius must be >= 0, got {n}")
        if n == 0:
            return 1
        radii = self.schedule.radii
        for j in range(2, len(radii) + 1):
            if j > len(self._positions):
                self.extend_to(j)
            x, y = self._positions[j - 1]
            if n + radii[j - 2] + max(abs(x), abs(y)) <= radii[j - 1]:
                return j
        raise StageCapError(
            f"window Q_{n} not determined within {self.schedule.stages} built stages"
        )


def sample_point(sched: Schedule, stage: int, seed: int) -> PointHandle:
    """Draw a stage-`stage` point with independent uniform per-level offsets."""
    if stage < 1:
        raise UsageError(f"stage must be >= 1, got {stage}")
    p = PointHandle(sched, seed, [])
    p.extend_to(stage)
    return p


def point_from_address(sched: Schedule, levels: Sequence[Site]) -> PointHandle:
    """Point with pinned low-level offsets, stored with zeros up to the top
    built level (the canonical embedding), so it never draws."""
    _check_levels(levels, sched)
    return PointHandle(sched, 0, list(levels) + [(0, 0)] * (sched.stages - 1 - len(levels)))


# ---------------------------------------------------------------------------
# Window evaluation


def color01_at(point: PointHandle, v: Site) -> int:
    """Color of the site at offset v from the point: 1 on the core sumset, else 0."""
    j = point.determining_stage(sup_norm(v))
    w = site_add(point.position_at(j), v)
    return 1 if decompose(w, j, point.schedule) is not None else 0


def _window(point: PointHandle, n: int) -> tuple[AxisSumset, Site]:
    """The per-coordinate core sumset of the stage that pins Q_n, and the point's position there."""
    j = point.determining_stage(n)
    return point.schedule.sumset(j), point.position_at(j)


def _count(axis: AxisSumset, u: Site, n: int) -> int:
    """|(axis x axis) intersect (u + Q_n)|, one interval count per coordinate."""
    return axis.count_sum(u[0] - n, u[0] + n)[0] * axis.count_sum(u[1] - n, u[1] + n)[0]


def _axes(axis: AxisSumset, u: Site, n: int) -> tuple[list[int], list[int]]:
    return axis.values(u[0] - n, u[0] + n, u[0]), axis.values(u[1] - n, u[1] + n, u[1])


def window_axes(point: PointHandle, n: int) -> tuple[list[int], list[int]]:
    """Per-coordinate offsets of the 1-cells in Q_n around the point.

    The window's 1-cell set is always a product X x Y because the core
    sumset is a product of identical per-coordinate sumsets.
    """
    return _axes(*_window(point, n), n)


GENERIC_CELL_CAP = 5_000_000


def capped_window_axes(point: PointHandle, n: int) -> tuple[list[int], list[int]]:
    """window_axes for callers whose result stands for the X x Y product (names, recurrence sets).

    Raises UsageError, before anything is materialized, when the window
    holds more than GENERIC_CELL_CAP 1-cells. The cells are counted only
    when the box itself holds more than the cap. The window's stage and
    position are resolved once, for both the count and the axes.
    """
    axis, u = _window(point, n)
    if box_site_count(n) > GENERIC_CELL_CAP and (count := _count(axis, u, n)) > GENERIC_CELL_CAP:
        raise UsageError(f"window Q_{n} holds {count} core cells, above the cap of {GENERIC_CELL_CAP}")
    return _axes(axis, u, n)


def name01(point: PointHandle, n: int) -> Pattern:
    """The two-color name of radius n: sparse pattern with default 0, 1 on X x Y."""
    xs, ys = capped_window_axes(point, n)
    return Pattern.product(Box(n), xs, ys)


def core_count(point: PointHandle, n: int) -> int:
    """|{v in Q_n : color = 1}| without materializing the window."""
    return _count(*_window(point, n), n)


def core_centroid(point: PointHandle, n: int) -> tuple[int, Fraction, Fraction]:
    """Count and exact mean offset of the window's 1-cells."""
    axis, u = _window(point, n)
    cx, sx = axis.count_sum(u[0] - n, u[0] + n)
    cy, sy = axis.count_sum(u[1] - n, u[1] + n)
    if cx == 0 or cy == 0:
        raise UsageError("empty window core")
    # mean over the product set factors into per-axis means
    return cx * cy, Fraction(sx, cx) - u[0], Fraction(sy, cy) - u[1]


def count_provenance_leq(point: PointHandle, n: int, prov_stage: int) -> int:
    """Number of sites in Q_n around the point whose cell was created at a stage <= prov_stage.

    In the stage-j arrangement those sites are the copies v + Q_{r(p)} of
    the stage-p arrangement (p = prov_stage, radius 0 at p = 1) over the
    sumset G_p + ... + G_{j-1}. Per axis the copies are pairwise disjoint:
    m(p) > 2 r(p), and m(t) > 2 r(t) = 2 (r(p) + s(p) + ... + s(t-1)) for
    t > p. So the thickened axis set is itself an AxisSumset, with the
    interval [-r(p), r(p)] as its finest level (spacing 1), and its
    constructor's dominance check verifies exactly this disjointness. The
    count is then one interval count per axis, O(levels).
    """
    j = point.determining_stage(n)
    if prov_stage >= j:
        return (2 * n + 1) ** 2
    u = point.position_at(j)
    levels = [(1, point.schedule.arrangement_radius(prov_stage)), *point.schedule.levels_1d(j - 1)[prov_stage - 1 :]]
    return _count(AxisSumset(levels), u, n)


def locate_site(point: PointHandle, v: Site) -> tuple[int, Site]:
    """Creation stage of the cell at offset v, plus its position in that stage's arrangement.

    Peels level offsets top-down; the remainder after peeling level l must
    lie inside the stage-l arrangement (radius r(l), or 0 at stage 1).
    """
    j = point.determining_stage(sup_norm(v))
    sched = point.schedule
    peeled, rest = _peel(site_add(point.position_at(j), v), sched.sumset(j), sched._arrangement_slacks[j - 1])
    return j - len(peeled), rest


# ---------------------------------------------------------------------------
# Mass ledger


@dataclass(frozen=True)
class MassLedger:
    """Exact per-stage measure bookkeeping."""

    widths: tuple[Fraction, ...]
    stage_masses: tuple[Fraction, ...]
    new_masses: tuple[Fraction, ...]
    core_masses: tuple[Fraction, ...]

    def new_mass(self, i: int) -> Fraction:
        return self.new_masses[i - 1]

    def mu_core(self, i: int) -> Fraction:
        return self.core_masses[i - 1]


def mass_ledger(sched: Schedule, stage: int) -> MassLedger:
    """Widths, total stage masses, per-stage new mass, and the core mass mu(A).

    The core mass is |Gamma*_{i-1}| * w(i) and equals 1 at every stage: the
    core never gains cells, it is only cut into thinner copies.
    """
    widths = [Fraction(1)]
    for j in range(1, stage):
        widths.append(widths[-1] / gamma_size(sched, j))
    totals, news, cores = [], [], []
    for i in range(1, stage + 1):
        side = 2 * sched.arrangement_radius(i) + 1
        total = side * side * widths[i - 1]
        totals.append(total)
        news.append(total - totals[i - 2] if i >= 2 else total)
        cores.append(gamma_star_size(i, sched) * widths[i - 1])
    return MassLedger(tuple(widths), tuple(totals), tuple(news), tuple(cores))
