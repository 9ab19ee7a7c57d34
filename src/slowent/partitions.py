"""Co-finite partitions and the name metrics built on them.

A co-finite partition has one infinite-measure atom; the remaining atoms
form the core. Names are sparse Patterns whose default symbol is the
infinite atom, so the name metric is the pattern metric evaluated on
core-visit sites. The rescaled metric compares windows holding a matched
number of core visits instead of windows of equal radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Protocol

from .lattice import Box, Pattern, Site, UsageError, pattern_distance, site_add, sup_norm


@dataclass(frozen=True)
class CoFinitePartition:
    """Finite partition with exactly one designated infinite atom."""

    labels: tuple[int, ...]
    infinite_atom: int

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise UsageError("duplicate partition labels")
        if self.infinite_atom not in self.labels:
            raise UsageError(f"infinite atom {self.infinite_atom} not among labels")

    @property
    def core_labels(self) -> tuple[int, ...]:
        return tuple(l for l in self.labels if l != self.infinite_atom)


#: The two-atom partition {core, complement} used throughout the construction.
TWO_ATOM = CoFinitePartition(labels=(0, 1), infinite_atom=0)


class NameProvider(Protocol):
    """Source of names: (point handle, radius) -> Pattern.

    Names must be window-consistent: the radius-n name is the restriction
    of any larger-radius name.
    """

    def name(self, point, n: int) -> Pattern: ...

    def core_count(self, point, n: int) -> int: ...


class ConstructionNames:
    """Names of the two-color cutting construction, via the fast counting paths."""

    partition = TWO_ATOM

    def name(self, point, n: int) -> Pattern:
        from . import cutstack

        return cutstack.name01(point, n)

    def core_count(self, point, n: int) -> int:
        from . import cutstack

        return cutstack.core_count(point, n)


class TableNames:
    """Synthetic provider backed by one full pattern per point id (tests, toys)."""

    def __init__(self, table: dict[object, Pattern]):
        self.table = table

    def name(self, point, n: int) -> Pattern:
        return self.table[point].restricted(n)

    def core_count(self, point, n: int) -> int:
        return len(self.name(point, n).cells)


def name_metric(x_name: Pattern, y_name: Pattern, partition: CoFinitePartition) -> Fraction:
    """Distance between names: differing atoms over core visits, 0/0 = 0.

    Names must identify the infinite atom with their default symbol and use
    only partition labels; the value is then the plain pattern distance.
    """
    for nm in (x_name, y_name):
        if nm.default_symbol != partition.infinite_atom:
            raise UsageError("name default symbol must be the partition's infinite atom")
        bad = nm.symbols() - set(partition.labels)
        if bad:
            raise UsageError(f"symbols {sorted(bad)} not in partition")
    return pattern_distance(x_name, y_name)


def recurrence_metric(rx: set[Site] | frozenset[Site], ry: set[Site] | frozenset[Site]) -> Fraction:
    """Symmetric difference over union of two return-site sets, 0/0 = 0."""
    rx, ry = set(rx), set(ry)
    union = rx | ry
    if not union:
        return Fraction(0)
    return Fraction(len(rx ^ ry), len(union))


# ---------------------------------------------------------------------------
# Orbit refinement


class OrbitRefinement:
    """The refinement of P along a finite site set F containing the origin.

    The refined name at u is the tuple of P-names at {u + f : f in F};
    composite tuples get fresh symbol ids with the all-infinite tuple as
    the new infinite atom.
    """

    MAX_LABELS = 4096

    def __init__(self, partition: CoFinitePartition, offsets: tuple[Site, ...], provider: NameProvider):
        if all(any(c != 0 for c in f) for f in offsets):
            raise UsageError("orbit refinement requires 0 in F")
        self.base = partition
        self.offsets = tuple(sorted(offsets))
        self.provider = provider
        combos = list(product(partition.labels, repeat=len(self.offsets)))
        if len(combos) > self.MAX_LABELS:
            raise UsageError(f"refined partition would have {len(combos)} labels")
        self.tuple_to_id = {c: i for i, c in enumerate(combos)}
        infinite = tuple(partition.infinite_atom for _ in self.offsets)
        self.partition = CoFinitePartition(tuple(range(len(combos))), self.tuple_to_id[infinite])
        self.reach = max(sup_norm(f) for f in self.offsets)

    def refine_pattern(self, base_name: Pattern) -> Pattern:
        """Refined name over Q_{n - reach} from a base name over Q_n."""
        n = base_name.box.radius - self.reach
        if n < 0:
            raise UsageError("base name too small for the refinement window")
        inf = self.partition.infinite_atom
        cells: dict[Site, int] = {}
        candidates: set[Site] = set()
        out_box = Box(n)
        for u in base_name.support():
            for f in self.offsets:
                v = tuple(a - b for a, b in zip(u, f))
                if v in out_box:
                    candidates.add(v)
        for v in candidates:
            combo = tuple(base_name.symbol_at(site_add(v, f)) for f in self.offsets)
            sym = self.tuple_to_id[combo]
            if sym != inf:
                cells[v] = sym
        return Pattern(out_box, inf, cells)

    def name(self, point, n: int) -> Pattern:
        return self.refine_pattern(self.provider.name(point, n + self.reach))

    def core_count(self, point, n: int) -> int:
        return len(self.name(point, n).cells)


# ---------------------------------------------------------------------------
# Partition distance on measured cell labelings


def partition_delta(
    p_labels: dict[object, int],
    r_labels: dict[object, int],
    masses: dict[object, Fraction],
    p_partition: CoFinitePartition,
    r_partition: CoFinitePartition,
) -> Fraction:
    """Distance between two cell-measurable partitions of the same cell family.

    Numerator: mass of the union of the per-label symmetric differences,
    which at cell granularity is the set of cells whose labels disagree.
    Denominator: mass of the union of both cores.
    """
    if len(p_partition.labels) != len(r_partition.labels):
        raise UsageError("partitions must have equal label counts")
    if set(p_labels) != set(r_labels) or set(p_labels) != set(masses):
        raise UsageError("cell families disagree")
    num = Fraction(0)
    den = Fraction(0)
    for cell, mass in masses.items():
        lp, lr = p_labels[cell], r_labels[cell]
        if lp != lr:
            num += mass
        if lp != p_partition.infinite_atom or lr != r_partition.infinite_atom:
            den += mass
    if den == 0:
        return Fraction(0)
    return num / den


# ---------------------------------------------------------------------------
# Rescaled metric


def rescale_radius(point, n: int, provider: NameProvider, search_cap: int | None = 1 << 22) -> int:
    """Smallest m with at least |Q_n| core visits in Q_m.

    Doubles m until the target is met, then bisects. Counts come from the
    provider's counting path, never from site enumeration. The cap bounds
    the search for points whose windows are too small at the built stage.
    """
    target = (2 * n + 1) ** 2
    if provider.core_count(point, n) >= target:
        return n
    lo = n
    hi = max(2 * n, 1)
    while provider.core_count(point, hi) < target:
        lo = hi
        hi *= 2
        if search_cap is not None and hi > search_cap:
            raise UsageError(f"core-visit search exceeded cap {search_cap} (window too small)")
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if provider.core_count(point, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def rescaled_metric(x, y, n: int, provider: NameProvider, partition: CoFinitePartition) -> Fraction:
    """Sum of name distances at the two points' own rescaled radii; range [0, 2]."""
    mx = rescale_radius(x, n, provider)
    my = rescale_radius(y, n, provider)
    out = name_metric(provider.name(x, mx), provider.name(y, mx), partition)
    out += name_metric(provider.name(x, my), provider.name(y, my), partition)
    return out
