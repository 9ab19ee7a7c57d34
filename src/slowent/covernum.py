"""Covering and separation numbers with mass slack, plus growth-exponent fits.

The exact oracle searches point-subset covers only: over a finite weighted
sample, arbitrary measurable cover sets can be replaced by their traces on
the sample, so point subsets are fully general. Feasible sets are subsets
of maximal cliques of the diameter graph, which keeps branch-and-bound
small. Point sets are Python-int bitmasks. Everything combinatorial is
exact integer arithmetic. A sample reads each rational distance once, as
its (numerator, denominator) pair; a threshold p/q is split into its pair
once per call, and a distance a/b lies within it when a q <= p b. The
matrix gets no common denominator, whose lcm would grow with the sample.
The cover searches compare masses and their coverage target as integers
over one common denominator of the masses. Only the
growth fits and the Bowen bound's logarithms use floats. The Bowen orbits
and closeness masks live in `toys`, in exact integer units of 2^-64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .lattice import UsageError, box_site_count


class CoverTooLarge(RuntimeError):
    """Instance exceeds the exact oracle's brute-force limit; use the bounds."""


EXACT_COVER_LIMIT = 20


@dataclass
class MetricSample:
    """Finite weighted point set with an exact pairwise distance matrix.

    Masses and distances are Fractions or ints. Each distance is read once
    into `_ratios` as its (numerator, denominator) pair, denominator
    positive, and the checks compare those integers.
    """

    masses: tuple[Fraction, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    _ratios: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.masses)
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise UsageError("sample shape mismatch")
        try:
            negative = any(m.numerator < 0 for m in self.masses)
            ratios = self._ratios = tuple(tuple((d.numerator, d.denominator) for d in row) for row in self.dist)
        except AttributeError:
            raise UsageError("masses and distances must be exact rationals (Fraction or int)") from None
        if negative:
            raise UsageError("negative mass")
        for i in range(n):
            if ratios[i][i][0]:
                raise UsageError(f"nonzero diagonal at {i}")
            for j in range(i + 1, n):
                if ratios[i][j] != ratios[j][i]:
                    raise UsageError(f"asymmetric distances at ({i},{j})")
                if ratios[i][j][0] < 0:
                    raise UsageError(f"negative distance at ({i},{j})")

    def __len__(self) -> int:
        return len(self.masses)

    def total_mass(self) -> Fraction:
        return sum(self.masses, Fraction(0))


def sample_from_points(ids: Sequence, masses: Sequence[Fraction], metric) -> MetricSample:
    """Assemble a sample by evaluating `metric(id_i, id_j)`, an exact rational, on all pairs."""
    n = len(ids)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = metric(ids[i], ids[j])
    return MetricSample(tuple(Fraction(m) for m in masses), tuple(tuple(r) for r in rows))


def _within(sample: MetricSample, radius: Fraction, points: Sequence[int]) -> list[int]:
    """Per point of `points`, the bitmask of the points of `points` within `radius` of it
    (itself included), bit k standing for points[k]. With radius p/q, a distance a/b is
    within it when a q <= p b."""
    p, q = radius.numerator, radius.denominator
    masks = []
    for i in points:
        ratios = map(sample._ratios[i].__getitem__, points)
        masks.append(sum(1 << k for k, (a, b) in enumerate(ratios) if a * q <= p * b))
    return masks


def _mass_units(sample: MetricSample, eps_mass: Fraction) -> tuple[list[int], int]:
    """The masses and the coverage target (1 - eps_mass) * total, as integers.

    Both are scaled by the least common denominator of the masses and the
    target, so every sum and comparison of the cover searches is exact
    integer arithmetic with the same outcome as on the fractions.
    """
    target = (1 - Fraction(eps_mass)) * sample.total_mass()
    unit = math.lcm(target.denominator, *(m.denominator for m in sample.masses))
    masses = [m.numerator * (unit // m.denominator) for m in sample.masses]
    return masses, target.numerator * (unit // target.denominator)


def _mask_mass(masses: Sequence[int], mask: int) -> int:
    """Total mass of the points in a bitmask."""
    out = 0
    while mask:
        v = (mask & -mask).bit_length() - 1
        out += masses[v]
        mask &= mask - 1
    return out


def _maximal_cliques(adj: list[int], n: int) -> list[int]:
    """Bitmask maximal cliques of the diameter-feasibility graph (Bron-Kerbosch)."""
    cliques: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            cliques.append(r)
            return
        pivot_candidates = p | x
        pivot = (pivot_candidates & -pivot_candidates).bit_length() - 1
        best = pivot
        best_deg = -1
        pc = pivot_candidates
        while pc:
            v = (pc & -pc).bit_length() - 1
            deg = bin(adj[v] & p).count("1")
            if deg > best_deg:
                best, best_deg = v, deg
            pc &= pc - 1
        ext = p & ~adj[best]
        while ext:
            v = (ext & -ext).bit_length() - 1
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit
            ext &= ~bit
        return

    expand(0, (1 << n) - 1, 0)
    return cliques


def exact_cover_number(sample: MetricSample, eps_diam: Fraction, eps_mass: Fraction) -> int:
    """Minimal number of diameter <= eps_diam subsets covering mass >= (1 - eps_mass) * total."""
    n = len(sample)
    if n > EXACT_COVER_LIMIT:
        raise CoverTooLarge(f"{n} points exceeds exact limit {EXACT_COVER_LIMIT}; use the greedy/separation bounds")
    masses, target = _mass_units(sample, eps_mass)
    if target <= 0:
        return 0
    adj = [mask & ~(1 << i) for i, mask in enumerate(_within(sample, eps_diam, range(n)))]
    cliques = _maximal_cliques(adj, n)
    clique_mass = [(_mask_mass(masses, c), c) for c in cliques]
    clique_mass.sort(key=lambda t: (-t[0], t[1]))
    best_single = clique_mass[0][0] if clique_mass else 0

    def feasible(depth_left: int, covered: int, covered_mass: int, seen: dict[int, int]) -> bool:
        if covered_mass >= target:
            return True
        if depth_left == 0:
            return False
        # prune only when this mask was reached before with at least as much depth
        if seen.get(covered, -1) >= depth_left:
            return False
        seen[covered] = depth_left
        if covered_mass + depth_left * best_single < target:
            return False
        for cmass, c in clique_mass:
            gain = c & ~covered
            if gain == 0:
                continue
            if covered_mass + depth_left * cmass < target:
                break
            if feasible(depth_left - 1, covered | c, covered_mass + _mask_mass(masses, gain), seen):
                return True
        return False

    for count in range(0, n + 1):
        if feasible(count, 0, 0, {}):
            return count
    raise AssertionError("cover search failed to terminate")


def greedy_cover_upper(sample: MetricSample, eps_diam: Fraction, eps_mass: Fraction) -> int:
    """Greedy ball cover: radius eps_diam/2 balls certify diameter <= eps_diam.

    Repeatedly takes the ball covering the most uncovered mass (ties to the
    smallest center index); the result is a valid cover, hence an upper
    bound on the exact count.
    """
    masses, target = _mass_units(sample, eps_mass)
    if target <= 0:
        return 0
    balls = _within(sample, Fraction(eps_diam) / 2, range(len(sample)))
    covered = covered_mass = count = 0
    while covered_mass < target:
        best_i, best_gain = -1, -1
        for i, ball in enumerate(balls):
            gain = _mask_mass(masses, ball & ~covered)
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_gain <= 0:
            break
        covered |= balls[best_i]
        covered_mass += best_gain
        count += 1
    return count


def max_separated_lower(sample: MetricSample, eps: Fraction) -> int:
    """First-fit maximal subset of the positive-mass points at pairwise
    distance > eps, scanning by point index.

    Any full-coverage cover by sets of diameter <= eps must reach every
    positive-mass point and holds at most one selected point per set, so
    the size lower-bounds it. A zero-mass point needs no cover and is never
    selected. The `_within` masks are exact, so no chosen point inside one
    is still separated.
    """
    positive = [i for i, m in enumerate(sample.masses) if m.numerator > 0]
    return bowen_first_fit_separated(_within(sample, eps, positive), lambda i, j: False)


def cover_bracket(sample: MetricSample, eps_diam: Fraction, eps_mass: Fraction) -> tuple[int, int, int]:
    """(lower, exact, upper) for the cover number at diameter eps_diam and mass slack eps_mass.

    The separation count only bounds full-coverage covers, so with mass
    slack the lower bound degrades to the trivial one. Nothing here checks
    lower <= exact <= upper: that is the cover-sandwich verdict's to judge.
    """
    if eps_mass == 0:
        lower = max_separated_lower(sample, eps_diam)
    else:
        lower = 1 if (1 - eps_mass) * sample.total_mass() > 0 else 0
    return lower, exact_cover_number(sample, eps_diam, eps_mass), greedy_cover_upper(sample, eps_diam, eps_mass)


# ---------------------------------------------------------------------------
# Growth fitting


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares exponent over all the samples plus a limsup surrogate.

    The surrogate is the maximum over all suffix windows (of >= 2 samples
    for regression scales, >= 1 for pointwise scales) and is always
    reported with the window that attained it.
    """

    scale: str
    samples: tuple[tuple[int, float], ...]
    exponent: float | None
    residual: float
    limsup_exponent: float
    limsup_window: tuple[int, ...]


def _least_squares(xs: list[float], ys: list[float]) -> tuple[float, float]:
    n = len(xs)
    try:
        mx = sum(xs) / n
        my = sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        if sxx == 0:
            raise UsageError("degenerate fit: coincident abscissae")
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
        intercept = my - slope * mx
        resid = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    except OverflowError:
        slope = resid = math.inf
    if not (math.isfinite(slope) and math.isfinite(resid)):
        raise UsageError("fit leaves float range")
    return slope, resid


def growth_fit(samples: Sequence[tuple[int, float]], scale: str) -> GrowthFit:
    """Fit a growth exponent on the stated scale.

    slow: log log value against log n (the exponent alpha in value ~ 2^(n^alpha)).
    exp:  log2 value against n (the rate in value ~ 2^(rate n)).
    """
    if scale not in ("slow", "exp"):
        raise UsageError(f"unknown scale {scale!r}")
    pts = list(samples)
    if any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
        raise UsageError("sample abscissae must be strictly increasing")
    if not all(math.isfinite(v) for _, v in pts):
        raise UsageError("fit values must be finite")
    if scale == "slow":
        if any(v <= 1 for _, v in pts):
            raise UsageError("slow scale needs values > 1")
        if any(n <= 1 for n, _ in pts):
            raise UsageError("slow scale needs n > 1")
        xs = [math.log(n) for n, _ in pts]
        ys = [math.log(math.log(v)) for _, v in pts]
    else:
        if any(v <= 0 for _, v in pts):
            raise UsageError("exp scale needs positive values")
        try:
            xs = [float(n) for n, _ in pts]
        except OverflowError:
            raise UsageError("exp scale needs every n within float range") from None
        ys = [math.log2(v) for _, v in pts]
    if len(pts) < 2:
        raise UsageError("need at least 2 samples to fit")
    slope, resid = _least_squares(xs, ys)
    best, best_win = -math.inf, ()
    for start in range(len(pts) - 1):
        s, _ = _least_squares(xs[start:], ys[start:])
        if s > best:
            best, best_win = s, tuple(n for n, _ in pts[start:])
    return GrowthFit(
        scale=scale,
        samples=tuple((n, float(v)) for n, v in pts),
        exponent=slope,
        residual=resid,
        limsup_exponent=best,
        limsup_window=best_win,
    )


def alpha_fit(counts: Sequence[tuple[int, int]]) -> GrowthFit:
    """Recurrence-dimension surrogate from |R_n| counts.

    Pointwise values log|R_n| / log|Q_n| stand in for the limsup (their max
    is reported as the limsup surrogate); the regression slope of log|R_n|
    against log|Q_n| is the fitted exponent, None from a single sample. The
    samples keep the counts as exact ints, and every log is taken from them,
    so no scale leaves float range.
    """
    pts = list(counts)
    if any(c < 1 for _, c in pts):
        raise UsageError("recurrence counts must be >= 1")
    if any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
        raise UsageError("sample abscissae must be strictly increasing")
    xs = [math.log(box_site_count(n)) for n, _ in pts]
    ys = [math.log(c) for _, c in pts]
    slope, resid = _least_squares(xs, ys) if len(pts) >= 2 else (None, 0.0)
    pointwise = [(n, ys[i] / xs[i]) for i, (n, _) in enumerate(pts) if xs[i] > 0]
    if not pointwise:
        raise UsageError("need at least one n >= 1 sample")
    best_n, best = max(pointwise, key=lambda t: (t[1], -t[0]))
    return GrowthFit(
        scale="alpha",
        samples=tuple((n, c) for n, c in pts),
        exponent=slope,
        residual=resid,
        limsup_exponent=best,
        limsup_window=(best_n,),
    )


def alpha_pointwise(r_count: int, n: int) -> float:
    """log |R_n| / log |Q_n| for a single scale."""
    if n < 1:
        raise UsageError("pointwise alpha needs n >= 1")
    if r_count < 1:
        raise UsageError("empty recurrence set")
    return math.log(r_count) / math.log(box_site_count(n))


# ---------------------------------------------------------------------------
# Separation first fit and the Bowen bound for Lipschitz toy actions


def bowen_first_fit_separated(close: Sequence[int], separated: Callable[[int, int], bool]) -> int:
    """First-fit separated-set size over bitmasks, scanning by index.

    Shared by `max_separated_lower` (exact sample masks) and the Bowen
    checks (u = 0 masks, refined by orbit distances).

    close[i] is the bitmask of the points that may lie too near point i: it
    must hold every point that is. Candidate i joins unless some chosen
    point j in close[i] fails separated(i, j). The chosen j are tried in
    ascending order, and the first failure rejects the candidate.
    """
    chosen = size = 0
    for i, near in enumerate(close):
        near &= chosen
        while near:
            low = near & -near
            if not separated(i, low.bit_length() - 1):
                break
            near ^= low
        else:
            chosen |= 1 << i
            size += 1
    return size


def bowen_bound_log2(n: int, eps: float, lip_generator: float, sep_prefactor: float) -> float:
    """log2 of the exponential separation bound C^n / eps^C for Lipschitz actions.

    With lip T^u <= C1^(2n) for ||u|| <= n in Z^2 and sep(Omega, d, eps) <=
    C2 / eps^C2, a separated set under d_n is (eps / C1^(2n))-separated
    under d, so sep <= C2 (C1^(2n) / eps)^C2. Computed in log space; the
    combined single constant is C = max(C2, C1^(2 C2), 2).
    """
    c1, c2 = lip_generator, sep_prefactor
    c = max(c2, c1 ** (2 * c2), 2.0)
    return n * math.log2(c) + c * math.log2(1.0 / eps)
