"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates sites or subsets directly and stays deliberately
separate from the library's counting and search paths.
"""

import hashlib
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import numpy as np

from slowent import rng, toys
from slowent.cutstack import Schedule
from slowent.lattice import (
    SYMBOL_NAMES,
    AxisSumset,
    Box,
    Pattern,
    UsageError,
    box_sites,
    pattern_distance,
    site_add,
    sup_norm,
)


def in_box(u: tuple[int, ...], box: Box) -> bool:
    """Whether u is a site of the box: two coordinates, each within the radius."""
    r = box.radius
    return len(u) == 2 and -r <= u[0] <= r and -r <= u[1] <= r


def symbol_at(p: Pattern, u: tuple[int, int]) -> int:
    """The symbol of pattern p at site u of its box; the default where no cell is stored."""
    assert in_box(u, p.box), (u, p.box)
    return p.cells.get(u, p.default_symbol)


def restricted(p: Pattern, radius: int) -> Pattern:
    """Restriction of pattern p to the smaller box Q_radius."""
    assert radius <= p.box.radius
    sub = Box(radius)
    return Pattern(sub, p.default_symbol, {u: s for u, s in p.cells.items() if in_box(u, sub)})


def dense_pattern_distance(a: Pattern, b: Pattern) -> Fraction:
    """Pattern distance by scanning every site of the box (no sparsity)."""
    assert a.box == b.box
    differing = 0
    core = 0
    for u in a.box.sites():
        sa, sb = symbol_at(a, u), symbol_at(b, u)
        if sa != sb:
            differing += 1
        if sa != a.default_symbol or sb != b.default_symbol:
            core += 1
    return Fraction(differing, core) if core else Fraction(0)


def brute_gamma(spacing: int, radius: int) -> set[tuple[int, int]]:
    return {
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if x % spacing == 0 and y % spacing == 0
    }


def gamma_axis(sched, j: int) -> list[int]:
    """The axis of Gamma_j = Q_{s(j)} ∩ m(j)Z^2: the multiples of m(j) in [-s(j), s(j)]."""
    return list(range(-sched.s(j), sched.s(j) + 1, sched.m(j)))


def in_gamma(g, sched, j: int) -> bool:
    """Membership of g in Gamma_j, coordinate by coordinate (Gamma_j for j >= 2 is too large to list)."""
    return len(g) == 2 and all(a % sched.m(j) == 0 and abs(a) <= sched.s(j) for a in g)


def brute_axis_sumset(levels: list[tuple[int, int]]) -> list[int]:
    """Every value of G_1 + ... + G_J, G_j = m_j Z ∩ [-s_j, s_j], one per offset choice."""
    values = [0]
    for m, s in levels:
        values = [v + g for v in values for g in range(-s, s + 1) if g % m == 0]
    return values


def maximal_chains(values: list[int], step: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted values split wherever two neighbours are not one step apart, as (first, last, step)."""
    chains: list[list[int]] = []
    for v in values:
        if chains and v - chains[-1][-1] == step:
            chains[-1].append(v)
        else:
            chains.append([v])
    return tuple((chain[0], chain[-1], step) for chain in chains)


def brute_gamma_star_member(v: tuple[int, int], levels: list[tuple[int, int]]) -> bool:
    """Membership of v in Gamma_1 + ... + Gamma_J by local enumeration.

    Enumerates candidate offsets of the top level near v and recurses.
    """
    if not levels:
        return v == (0, 0)
    m, s = levels[-1]
    rest = levels[:-1]
    reach = sum(t[1] for t in rest)
    for qx in range(-(s // m), s // m + 1):
        gx = qx * m
        if abs(v[0] - gx) > reach:
            continue
        for qy in range(-(s // m), s // m + 1):
            gy = qy * m
            if abs(v[1] - gy) > reach:
                continue
            if brute_gamma_star_member((v[0] - gx, v[1] - gy), rest):
                return True
    return False


def level_peel(a: int, sched, l: int, slack: int) -> int | None:
    """The level-l offset within slack of a, or None.

    Tries both multiples of m(l) around a by floor division, and keeps
    those in Q_{s(l)} within slack of a; at most one survives while slack
    stays below m(l) / 2. No AxisSumset involved.
    """
    m, k = sched.m(l), sched.s(l) // sched.m(l)
    fits = [q * m for q in (a // m, a // m + 1) if -k <= q <= k and abs(a - q * m) <= slack]
    assert len(fits) <= 1
    return fits[0] if fits else None


def axis_peel(a: int, stage: int, sched, slack) -> tuple[list[int], int]:
    """Peel a top-down from level stage-1 with level_peel, while each level peels.

    Returns the peeled offsets (coarsest first) and the remainder.
    """
    peeled = []
    for l in range(stage - 1, 0, -1):
        g = level_peel(a, sched, l, slack(l))
        if g is None:
            break
        peeled.append(g)
        a -= g
    return peeled, a


def axis_decompose(a: int, stage: int, sched) -> tuple[int, ...] | None:
    """Per-axis offsets (g_1, ..., g_{stage-1}) summing to a, or None.

    Every level must peel within the reach r(l) - r(1) of the finer levels,
    leaving remainder 0.
    """
    peeled, rest = axis_peel(a, stage, sched, lambda l: sched.r(l) - sched.r(1))
    return tuple(reversed(peeled)) if len(peeled) == stage - 1 and rest == 0 else None


def peel_2d(w, stage: int, sched, slack) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """Peel level offsets from w top-down, both coordinates together, while both peel.

    Level by level, from level stage-1: each coordinate's offset is the one
    level_peel finds within slack(l) of the remainder, and the loop stops
    at the first level where either coordinate has none. Returns the peeled
    offsets (coarsest first) and the remainder.
    """
    peeled = []
    for l in range(stage - 1, 0, -1):
        g = tuple(level_peel(a, sched, l, slack(l)) for a in w)
        if None in g:
            break
        peeled.append(g)
        w = tuple(a - b for a, b in zip(w, g))
    return peeled, w


def axis_extremes(sched: Schedule, stage: int) -> list[tuple[int, ...]]:
    """Per-axis offsets (g_1, ..., g_{stage-1}) with every level quotient in {-k, -k+1, 0, k-1, k}.

    k = s(j)/m(j) at level j, and the 5^(stage-1) combinations come in
    itertools.product order. decompose peels each coordinate on its own,
    and a level-l peel can only go wrong where the finer remainder reaches
    the slack r(l) - r(1), which only all-(+-k) finer quotients do; so
    these offsets test every margin a peel has.
    """
    choices = []
    for j in range(1, stage):
        m, k = sched.m(j), sched.s(j) // sched.m(j)
        choices.append([q * m for q in (-k, -k + 1, 0, k - 1, k)])
    return list(product(*choices))


def brute_exact_cover(masses: list[Fraction], dist: list[list[Fraction]], eps_diam: Fraction, eps_mass: Fraction) -> int:
    """Minimal partial cover by enumerating all diameter-feasible subsets."""
    n = len(masses)
    total = sum(masses, Fraction(0))
    target = (Fraction(1) - eps_mass) * total
    if target <= 0:
        return 0
    feasible = []
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if all(dist[i][j] <= eps_diam for i, j in combinations(combo, 2)):
                feasible.append(frozenset(combo))
    for count in range(1, n + 1):
        for chosen in combinations(feasible, count):
            covered = set().union(*chosen)
            if sum((masses[i] for i in covered), Fraction(0)) >= target:
                return count
    raise AssertionError("uncoverable instance")


def fraction_greedy_cover(
    masses: list[Fraction], dist: list[list[Fraction]], eps_diam: Fraction, eps_mass: Fraction
) -> int:
    """Greedy ball cover on Fraction masses.

    Balls of radius eps_diam/2, the one with the most uncovered mass first,
    ties to the smaller center, until the covered mass reaches the target.
    """
    n = len(masses)
    target = (Fraction(1) - eps_mass) * sum(masses, Fraction(0))
    balls = [{j for j in range(n) if dist[i][j] <= eps_diam / 2} for i in range(n)]
    covered: set[int] = set()
    count = 0
    while sum((masses[j] for j in covered), Fraction(0)) < target:
        gains = [sum((masses[j] for j in ball - covered), Fraction(0)) for ball in balls]
        best = max(range(n), key=lambda i: (gains[i], -i))
        if gains[best] <= 0:
            break
        covered |= balls[best]
        count += 1
    return count


def fraction_within(dist: list[list[Fraction]], radius: Fraction) -> list[int]:
    """Per point, the bitmask of the points within radius of it, each distance
    compared with the radius as a Fraction: the reference for covernum._within."""
    return [sum(1 << j for j, d in enumerate(row) if d <= radius) for row in dist]


def fraction_cover_bracket(
    masses: list[Fraction], dist: list[list[Fraction]], eps_diam: Fraction, eps_mass: Fraction
) -> tuple[int, int, int]:
    """covernum.cover_bracket on Fractions, from its definition.

    Without mass slack the lower end is the first fit, by index, over the
    positive-mass points, on fraction_within masks; with slack it is 1 while
    any mass must be covered. The exact and upper ends are brute_exact_cover
    and fraction_greedy_cover.
    """
    if eps_mass == 0:
        close = fraction_within(dist, eps_diam)
        kept: list[int] = []
        for i, mass in enumerate(masses):
            if mass > 0 and not any(close[i] >> j & 1 for j in kept):
                kept.append(i)
        lower = len(kept)
    else:
        lower = 1 if (1 - eps_mass) * sum(masses, Fraction(0)) > 0 else 0
    return lower, brute_exact_cover(masses, dist, eps_diam, eps_mass), fraction_greedy_cover(masses, dist, eps_diam, eps_mass)


def brute_strict_first_fit(dist: list[list[Fraction]], eps: Fraction) -> int:
    """First-fit separated-set size by index, keeping a point when it is at distance > eps from every kept point."""
    kept: list[int] = []
    for i in range(len(dist)):
        if all(dist[i][j] > eps for j in kept):
            kept.append(i)
    return len(kept)


def brute_separated_words(min_distance: int, words) -> int:
    """First-fit family size by comparing each word against every kept word."""
    kept: list[int] = []
    for w in words:
        if all(bin(w ^ k).count("1") >= min_distance for k in kept):
            kept.append(w)
    return len(kept)


@dataclass
class BruteArrangement:
    """Explicit arrangement over Q_radius; arrays are indexed [x + radius, y + radius]."""

    radius: int
    width: Fraction
    color: np.ndarray
    prov: np.ndarray  # stage that created the cell
    origin: np.ndarray  # [..., axis]: the cell's position in the arrangement of its creation stage

    def at(self, site: tuple[int, int]) -> tuple[int, int, tuple[int, int]]:
        i = (site[0] + self.radius, site[1] + self.radius)
        return int(self.color[i]), int(self.prov[i]), tuple(self.origin[i].tolist())


def brute_arrangement(sched, stage: int) -> BruteArrangement:
    """The stage-`stage` arrangement of the two-color construction, cell by cell.

    Stage 1 is one 1-colored cell. Stage i + 1 cuts the stage-i arrangement
    into |Gamma_i| copies, pastes one at every offset of Gamma_i, and
    fills the rest of Q_{r(i+1)} with 0-colored cells created at stage i + 1.
    """
    color, prov = np.ones((1, 1), np.int8), np.ones((1, 1), np.int8)
    origin = np.zeros((1, 1, 2), np.int32)
    width = Fraction(1)
    for i in range(1, stage):
        r, big = sched.arrangement_radius(i), sched.r(i + 1)
        offsets = gamma_axis(sched, i)
        k, side = len(offsets), 2 * big + 1
        # one index run per offset along each axis; Gamma_i is a product of
        # one axis with itself, so copies overlap exactly when two runs do
        idx = (np.array(offsets)[:, None] + np.arange(-r, r + 1)).ravel() + big
        assert len(np.unique(idx)) == len(idx), "copies overlap"
        assert idx.min() >= 0 and idx.max() < side, "a copy escapes Q_{r(i+1)}"
        grid = np.arange(-big, big + 1, dtype=np.int32)
        new_color, new_prov = np.zeros((side, side), np.int8), np.full((side, side), i + 1, np.int8)
        new_origin = np.empty((side, side, 2), np.int32)
        new_origin[..., 0], new_origin[..., 1] = grid[:, None], grid[None, :]
        cut = np.ix_(idx, idx)
        new_color[cut], new_prov[cut] = np.tile(color, (k, k)), np.tile(prov, (k, k))
        new_origin[cut] = np.tile(origin, (k, k, 1))
        color, prov, origin = new_color, new_prov, new_origin
        width /= k * k
    return BruteArrangement(sched.arrangement_radius(stage), width, color, prov, origin)


def brute_window_ones(point, n: int) -> set[tuple[int, int]]:
    """Per-site window colors via the single-site color path (no axis counting)."""
    from slowent.cutstack import color01_at

    return {(x, y) for (x, y) in box_sites(n) if color01_at(point, (x, y)) == 1}


def recurrence_site_set(point, n: int) -> frozenset[tuple[int, int]]:
    """The return sites of the point within Q_n as one 2-D site set, the product of its capped axes.

    The reference for recurrence.recurrence_set, which keeps the two factors.
    """
    from slowent.cutstack import capped_window_axes

    xs, ys = capped_window_axes(point, n)
    return frozenset(product(xs, ys))


def site_set_metric(rx, ry) -> Fraction:
    """Symmetric difference over union of two return-site sets, 0/0 = 0, from the sets themselves.

    The reference for partitions.recurrence_metric, which counts on axis factors.
    """
    union = len(rx | ry)
    if not union:
        return Fraction(0)
    return Fraction(len(rx ^ ry), union)


def position_from_levels(levels, stage: int) -> tuple[int, int]:
    """The point's position in the stage-`stage` arrangement: the sum of its first stage-1 offsets."""
    return (sum(g[0] for g in levels[: stage - 1]), sum(g[1] for g in levels[: stage - 1]))


def determining_stage_by_loop(point, n: int) -> int:
    """PointHandle.determining_stage as a loop that grows the point and re-sums its levels at every stage.

    Stage 1 pins Q_0; stage j pins Q_n when n + r(j-1) <= r(j) - ||u_j||,
    with u_j the stage-j position.
    """
    from slowent.cutstack import StageCapError

    if n == 0:
        return 1  # stage 1 pins the point's own core cell
    sched = point.schedule
    for j in range(2, sched.stages + 1):
        point.extend_to(j)
        if n + sched.r(j - 1) <= sched.r(j) - sup_norm(position_from_levels(point.levels, j)):
            return j
    raise StageCapError(f"window Q_{n} not determined within {sched.stages} built stages")


def pinned_point(sched, levels, seed: int):
    """The pinned point of `point_from_address(sched, levels)` under a chosen seed (its overlay bits follow the seed)."""
    from slowent.cutstack import PointHandle, point_from_address

    return PointHandle(sched, seed, point_from_address(sched, levels).levels)


def covered(axis: AxisSumset, halfwidth: int, lo: int, hi: int) -> int:
    """|(values + [-halfwidth, halfwidth]) ∩ [lo, hi]|.

    Copies can abut or overlap when the spacing is tight, so the union is
    merged interval by interval rather than multiplied out.
    """
    if lo > hi:
        return 0
    h = halfwidth
    total, cur_lo, cur_hi = 0, lo, lo - 1
    for first, last, m in axis._runs(lo - h, hi + h):
        if first < last and m > 2 * h + 1:
            # disjoint copies; all but the first and last lie inside [lo, hi]
            total += ((last - first) // m - 1) * (2 * h + 1)
            pieces: tuple[tuple[int, int], ...] = ((first - h, first + h), (last - h, last + h))
        else:
            pieces = ((first - h, last + h),)
        for a, b in pieces:
            a, b = max(a, lo), min(b, hi)
            if a > cur_hi + 1:
                total += cur_hi - cur_lo + 1
                cur_lo = a
            cur_hi = max(cur_hi, b)
    return total + cur_hi - cur_lo + 1


def merged_provenance_count(point, n: int, prov_stage: int, halfwidth: int | None = None) -> int:
    """count_provenance_leq by merging the window's runs of the finest level (covered).

    The copies of the stage-`prov_stage` arrangement have the given
    halfwidth, r(prov_stage) (0 at stage 1) when None. O(n): one merge step
    per run of the sumset G_{prov_stage} + ... + G_{j-1} in the window.
    """
    j = point.determining_stage(n)
    if prov_stage >= j:
        return (2 * n + 1) ** 2
    u = point.position_at(j)
    if halfwidth is None:
        halfwidth = point.schedule.arrangement_radius(prov_stage)
    axis = AxisSumset(point.schedule.levels_1d(j - 1)[prov_stage - 1 :])
    return covered(axis, halfwidth, u[0] - n, u[0] + n) * covered(axis, halfwidth, u[1] - n, u[1] + n)


def nearest(q: Fraction) -> int:
    """The integer nearest to q, exact .5 ties toward zero, by Fraction arithmetic."""
    return math.trunc(q) if q - math.floor(q) == Fraction(1, 2) else math.floor(q + Fraction(1, 2))


def centroid_decode(sites: frozenset[tuple[int, int]]) -> tuple[int, int]:
    """The position encoded by a translate of a zero-sum site set, from the sites themselves.

    Each coordinate is the nearest integer to the negated site mean, with
    exact .5 ties rounded toward zero: the reference for
    recurrence.centroid_decode_axes, which decodes factorized windows.
    """
    if not sites:
        raise UsageError("cannot decode an empty recurrence pattern")
    return tuple(nearest(Fraction(-sum(u[k] for u in sites), len(sites))) for k in (0, 1))


def refine_by_offsets(base: Pattern, offsets) -> Pattern:
    """The orbit refinement P^F of a 0/1 name, site by site.

    The refined symbol at v lists the base symbols at v + f for the offsets
    f in sorted order, read as a binary number, so the all-0 tuple is the
    default 0. A base name over Q_n gives a refined name over Q_{n - reach},
    reach the largest sup norm of an offset.
    """
    assert base.default_symbol == 0 and set(base.cells.values()) <= {1}
    offsets = sorted(offsets)
    box = Box(base.box.radius - max(sup_norm(f) for f in offsets))
    cells = {}
    for v in box.sites():
        sym = 0
        for f in offsets:
            sym = 2 * sym + symbol_at(base, site_add(v, f))
        if sym:
            cells[v] = sym
    return Pattern(box, 0, cells)


def overlay_pattern(xs, ys, letters: bytes, n: int) -> Pattern:
    """The {0, a, b} pattern on Q_n of a factored overlay name (xs, ys, letters):
    letters[k] on the k-th site of xs x ys, x-major, and 0 on every other site.

    Built by the checked constructor, so a site outside Q_n or a stored 0 is refused.
    """
    sites = list(product(xs, ys))
    assert len(sites) == len(letters), (len(sites), len(letters))
    return Pattern(Box(n), 0, dict(zip(sites, letters)))


def pattern_from_text(text: str) -> Pattern:
    """Read the text form that lattice.pattern_to_text writes (and `slowent names` prints)."""
    symbol_ids = {name: sym for sym, name in SYMBOL_NAMES.items()}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    assert len(head) == 4 and head[0] == "box" and head[2] == "default", lines[0]
    cells = {}
    for ln in lines[1:]:
        x, y, name = ln.split()
        assert (int(x), int(y)) not in cells, ln
        cells[int(x), int(y)] = symbol_ids[name]
    return Pattern(Box(int(head[1])), symbol_ids[head[3]], cells)


def brute_stage2_census(sched, n: int) -> dict:
    """Stage-2 census over every 2-D position of Gamma_1, one window per position.

    Each position gets its own point, pattern key and centroid, so nothing
    here uses the per-axis factorization of expcli.stage2_recurrence_census.
    """
    from slowent.cutstack import core_centroid, point_from_address
    from slowent.recurrence import recurrence_key

    positions = list(product(gamma_axis(sched, 1), repeat=2))
    keys = set()
    decode_hits = 0
    for g in positions:
        p = point_from_address(sched, [g])
        keys.add(recurrence_key(p, n))
        _, mean_x, mean_y = core_centroid(p, n)
        if (nearest(-mean_x), nearest(-mean_y)) == g:
            decode_hits += 1
    return {"positions": len(positions), "distinct_patterns": len(keys), "decode_hits": decode_hits, "window": n}


def value_list_stage2_census(sched, n: int) -> dict:
    """Stage-2 census over the x-axis of Gamma_1, keyed by each window's list of values.

    The reference for expcli.stage2_recurrence_census, which keys a window
    by its maximal runs and decodes from integer counts: here each position
    lists its window's x values (`window_axes`) and decodes its Fraction
    mean (`core_centroid`) by Fraction rounding.
    """
    from slowent.cutstack import core_centroid, point_from_address, window_axes

    axis = gamma_axis(sched, 1)
    patterns = set()
    decode_hits = 0
    for a in axis:
        p = point_from_address(sched, [(a, 0)])
        patterns.add(tuple(window_axes(p, n)[0]))
        _, mean_x, _ = core_centroid(p, n)
        if nearest(-mean_x) == a:
            decode_hits += 1
    return {"positions": len(axis) ** 2, "distinct_patterns": len(patterns) ** 2, "decode_hits": decode_hits**2, "window": n}


#: The translation pair of the reference toy, as float64 dyadics. The
#: library's translation distances do not depend on them: a translation
#: fixes every difference, so `toys.TranslationAction` never reads them.
V1 = (0.41421356237309515, 0.7320508075688772)
V2 = (0.23606797749978969, 0.6180339887498949)


def act(action, u: tuple[int, int], x: np.ndarray) -> np.ndarray:
    """T^u x for the float toy, from its definition: x is a point of [0, 1)^2 as floats.

    TranslationAction moves by u_1 V1 + u_2 V2; ToralEndoAction applies
    M^(u_1 + 2 u_2). Both are taken mod 1. The float toy is a sound
    reference while every M^k entry stays below 2^26 (n <= 6), so that
    x M^k keeps 26 fractional bits.
    """
    if isinstance(action, toys.TranslationAction):
        return (x + (np.array(V1) * u[0] + np.array(V2) * u[1])) % 1.0
    assert isinstance(action, toys.ToralEndoAction)
    return (x @ np.array(action.matrix_power(u[0] + 2 * u[1]), dtype=float).T) % 1.0


def torus_dist(x: np.ndarray, y: np.ndarray) -> float:
    """Sup metric on the 2-torus between two float points."""
    d = np.abs(x - y) % 1.0
    return float(np.minimum(d, 1.0 - d).max())


def float_points(points: list[tuple[int, int]]) -> np.ndarray:
    """Sample points in units of 2^-64 as floats in [0, 1): exact, since each has 53 bits."""
    return np.array(points, dtype=float).reshape(-1, 2) / 2.0**64


TORUS = 2**64


@cache
def endo_power(k: int) -> tuple[tuple[int, int], ...]:
    """M^k in Python ints by repeated multiplication, M = [[2, 1], [1, 1]] and M^-1 = [[1, -1], [-1, 2]]."""
    step = ((2, 1), (1, 1)) if k >= 0 else ((1, -1), (-1, 2))
    out = ((1, 0), (0, 1))
    for _ in range(abs(k)):
        out = tuple(tuple(sum(out[r][t] * step[t][c] for t in range(2)) for c in range(2)) for r in range(2))
    return out


@cache
def dyadic_units(x: float) -> int:
    """A float64 as an exact count of 2^-64 units; it must be a multiple of 2^-64."""
    q = Fraction(x) * TORUS
    assert q.denominator == 1, x
    return q.numerator


def exact_act(action, u: tuple[int, int], x: tuple[int, int]) -> tuple[int, int]:
    """T^u x in Python ints, x a point in units of 2^-64, reduced mod 2^64 by `%`.

    Translations add u_1 V1 + u_2 V2 with V1 and V2 read as exact dyadics;
    the endomorphism applies M^(u_1 + 2 u_2).
    """
    if isinstance(action, toys.TranslationAction):
        return tuple(
            (c + u[0] * dyadic_units(v1) + u[1] * dyadic_units(v2)) % TORUS for c, v1, v2 in zip(x, V1, V2)
        )
    assert isinstance(action, toys.ToralEndoAction)
    m = endo_power(u[0] + 2 * u[1])
    return tuple(sum(m[r][c] * x[c] for c in range(2)) % TORUS for r in range(2))


def exact_torus_dist(x: tuple[int, int], y: tuple[int, int]) -> int:
    """Sup metric on the 2-torus in units of 2^-64: per coordinate the shorter way round."""
    return max(min((a - b) % TORUS, (b - a) % TORUS) for a, b in zip(x, y))


def bowen_distance(move, base_metric, n: int, x, y):
    """sup over ||u||_inf <= n of base_metric(move(u, x), move(u, y)), one orbit site at a time.

    move is `act` (the float toy) or `exact_act` (units), bound to an action.
    """
    return max(base_metric(move(u, x), move(u, y)) for u in product(range(-n, n + 1), repeat=2))


def brute_bowen_first_fit(move, base_metric, n: int, points, eps_list) -> list[int]:
    """First-fit separated-set size per eps, each candidate against each kept point over its whole orbit.

    Same sup as `bowen_distance`, with T^u applied once per site to each point.
    """
    moved = [[move(u, p) for p in points] for u in product(range(-n, n + 1), repeat=2)]
    dist: dict[tuple[int, int], float] = {}
    sizes = []
    for eps in eps_list:
        kept: list[int] = []
        for i in range(len(points)):
            for j in kept:
                if (i, j) not in dist:
                    dist[i, j] = max(base_metric(at[i], at[j]) for at in moved)
            if all(dist[i, j] >= eps for j in kept):
                kept.append(i)
        sizes.append(len(kept))
    return sizes


def brute_uniform_int(seed: int, tag: str, *indices: int, lo: int, hi: int) -> int:
    """rng.uniform_int word by word: one stream_u64 per 64-bit word, word 0 most significant."""
    span = hi - lo + 1
    words = max(1, -(-span.bit_length() // 64))
    width = 64 * words
    limit = (1 << width) - ((1 << width) % span)
    counter = 0
    while True:
        u = 0
        for w in range(words):
            u = (u << 64) | rng.stream_u64(seed, tag, *indices, counter, w)
        if u < limit:
            return lo + (u % span)
        counter += 1


def fair_bit(seed: int, tag: str, x: int, y: int) -> int:
    """rng.fair_bits at one site, from a fresh keyed 64-byte digest of its own:
    the low bit of byte (y + 32) mod 64 of the digest of (tag, x, (y + 32) div 64)."""
    block, byte = divmod(y + 32, 64)
    key = (seed % 2**64).to_bytes(8, "little")
    digest = hashlib.blake2b(tag.encode("utf-8") + struct.pack("<qq", x, block), digest_size=64, key=key).digest()
    return digest[byte] & 1


def random_pattern(seed: int, tag: str, index: int, box_radius: int = 2, max_cells: int = 4) -> Pattern:
    """A seeded pattern on Q_box_radius with symbols {1, 2} and at most max_cells cells."""
    side = 2 * box_radius + 1
    count = rng.uniform_int(seed, tag + "-count", index, lo=0, hi=max_cells)
    cells: dict = {}
    attempt = 0
    while len(cells) < count:
        flat = rng.uniform_int(seed, tag + "-site", index, len(cells), attempt, lo=0, hi=side * side - 1)
        site = (flat // side - box_radius, flat % side - box_radius)
        attempt += 1
        if site not in cells:
            cells[site] = 1 + rng.uniform_int(seed, tag + "-sym", index, len(cells), lo=0, hi=1)
    return Pattern(Box(box_radius), 0, cells)


def random_axiom_violations(seed: int, triples: int) -> dict:
    """Metric axiom violations over seeded random triples of patterns."""
    out = {"symmetry": 0, "identity": 0, "triangle": 0}
    for i in range(triples):
        a, b, c = (random_pattern(seed, tag, i) for tag in ("mp-a", "mp-b", "mp-c"))
        d_ab, d_bc, d_ac = pattern_distance(a, b), pattern_distance(b, c), pattern_distance(a, c)
        out["symmetry"] += d_ab != pattern_distance(b, a)
        out["identity"] += (d_ab == 0) != (a == b)
        out["triangle"] += d_ac > d_ab + d_bc
    return out


def recursive_site_type_counts(site_types, max_cells: int):
    """Count vectors over site_types giving each pattern at most max_cells cells.

    One generator per type, nested: the count of type k runs up from 0 while
    every pattern's load stays within max_cells, so the vectors come out in
    lexicographic order.
    """

    def extend(k: int, loads: tuple[int, ...]):
        if k == len(site_types):
            yield ()
            return
        count = 0
        while max(loads) <= max_cells:
            for rest in extend(k + 1, loads):
                yield (count,) + rest
            count += 1
            loads = tuple(load + (x != 0) for load, x in zip(loads, site_types[k]))

    yield from extend(0, (0,) * len(site_types[0]))


def census_triple(counts) -> tuple[Pattern, Pattern, Pattern]:
    """The three patterns of a count vector on the census box Q_2, its sites laid out in box order."""
    from slowent.expcli import CENSUS_BOX, CENSUS_SITES, SITE_TYPES

    if sum(counts) > len(CENSUS_SITES):
        raise UsageError(f"{sum(counts)} sites do not fit in Q_{CENSUS_BOX.radius}")
    cells: tuple[dict, dict, dict] = ({}, {}, {})
    end = 0
    for t, count in zip(SITE_TYPES, counts):
        for u in CENSUS_SITES[end : end + count]:
            for p, sym in enumerate(t):
                if sym:
                    cells[p][u] = sym
        end += count
    return Pattern(CENSUS_BOX, 0, cells[0]), Pattern(CENSUS_BOX, 0, cells[1]), Pattern(CENSUS_BOX, 0, cells[2])


def pair_type_key(p: Pattern, q: Pattern) -> int:
    """The pair type key of two patterns, counted site by site over the union of their supports."""
    from slowent.expcli import PAIR_TYPES

    key = 0
    for u in p.cells.keys() | q.cells.keys():
        key += 1 << 4 * PAIR_TYPES.index((p.cells.get(u, 0), q.cells.get(u, 0)))
    return key


def census_violations_by_triple() -> dict:
    """The census half of metric_axiom_suite, one fresh triple and four distances per count vector.

    Reads slowent.lattice.pattern_distance when it runs, so a metric planted
    there reaches it, and compares the distances as Fractions.
    """
    from slowent import lattice
    from slowent.expcli import SITE_TYPES

    distance = lattice.pattern_distance
    sym_viol = ident_viol = tri_viol = triples = 0
    for counts in recursive_site_type_counts(SITE_TYPES, 4):
        a, b, c = census_triple(counts)
        d_ab, d_bc, d_ac = distance(a, b), distance(b, c), distance(a, c)
        triples += 1
        sym_viol += d_ab != distance(b, a)
        ident_viol += (d_ab == 0) != (a == b)
        tri_viol += d_ac > d_ab + d_bc
    return {
        "census_triples": triples,
        "symmetry_violations": sym_viol,
        "identity_violations": ident_viol,
        "triangle_violations": tri_viol,
    }


def q1_block() -> list[Pattern]:
    """The 130 one-symbol patterns on Q_1 with at most 3 cells."""
    sites = list(box_sites(1))
    return [Pattern(Box(1), 0, dict.fromkeys(combo, 1)) for k in range(4) for combo in combinations(sites, k)]


def q1_triangle_violations_by_block() -> int:
    """Ordered triples (a, b, c) of the Q_1 block with d(a, c) > d(a, b) + d(b, c).

    The reference for metric_axiom_suite's weighted one-symbol census. It
    measures all 130 x 130 ordered pairs, so d(b, a) is read and never
    mirrored from d(a, b), and compares the distances over a common
    denominator, one row a at a time. Reads slowent.lattice.pattern_distance
    when it runs, so a metric planted there reaches it.
    """
    from slowent import lattice

    pats = q1_block()
    dist = [[lattice.pattern_distance(p, q) for q in pats] for p in pats]
    unit = math.lcm(*(d.denominator for row in dist for d in row))
    m = np.array([[d.numerator * (unit // d.denominator) for d in row] for row in dist], dtype=np.int64)
    # row a: [b, c] -> d(a, c) > d(a, b) + d(b, c)
    return int(sum(np.count_nonzero(m[a][None, :] > m[a][:, None] + m) for a in range(len(pats))))


def q1_count_vector_weights(site_types) -> dict[tuple[int, ...], int]:
    """How many ordered triples of the Q_1 block have each count vector over
    site_types, counted triple by triple on site bitmasks."""
    sites = list(box_sites(1))
    full = (1 << len(sites)) - 1
    masks = np.array([sum(1 << sites.index(u) for u in p.cells) for p in q1_block()], dtype=np.int64)
    pick = {1: masks, 0: full ^ masks}  # the sites where a pattern has symbol 1, or 0
    found = np.zeros(4 ** len(site_types), dtype=np.int64)
    for a in range(len(masks)):
        code = np.zeros((len(masks), len(masks)), dtype=np.int64)  # [b, c], base 4: each type fits 3 sites at most
        for t, (x, y, z) in enumerate(site_types):
            both = pick[x][a] & pick[y][:, None] & pick[z][None, :]
            code += np.bitwise_count(both).astype(np.int64) << 2 * t
        found += np.bincount(code.ravel(), minlength=found.size)
    return {
        tuple(int(code) >> 2 * t & 3 for t in range(len(site_types))): int(found[code]) for code in np.flatnonzero(found)
    }
