from fractions import Fraction

import pytest

from slowent import cutstack as cs
from slowent import rng
from slowent.lattice import Box, Pattern, UsageError, box_sites
from slowent.partitions import (
    TWO_ATOM,
    CoFinitePartition,
    ConstructionNames,
    OrbitRefinement,
    TableNames,
    name_metric,
    partition_delta,
    recurrence_metric,
    rescale_radius,
    rescaled_metric,
)

from oracles import brute_arrangement

THREE_ATOM = CoFinitePartition(labels=(0, 1, 2), infinite_atom=0)


def test_partition_validation():
    with pytest.raises(UsageError):
        CoFinitePartition(labels=(0, 0, 1), infinite_atom=0)
    with pytest.raises(UsageError):
        CoFinitePartition(labels=(0, 1), infinite_atom=7)
    assert TWO_ATOM.core_labels == (1,)


def test_name_metric_examples():
    a = Pattern(Box(1), 0, {(0, 0): 1, (1, 0): 1})
    b = Pattern(Box(1), 0, {(0, 0): 1})
    assert name_metric(a, a, TWO_ATOM) == 0
    # disjoint singleton cores: 2 differing sites over 2 core sites
    c = Pattern(Box(1), 0, {(0, 1): 1})
    assert name_metric(b, c, TWO_ATOM) == 1
    assert name_metric(a, b, TWO_ATOM) == Fraction(1, 2)


def test_name_metric_requires_partition_symbols():
    bad = Pattern(Box(1), 0, {(0, 0): 9})
    good = Pattern(Box(1), 0, {})
    with pytest.raises(UsageError):
        name_metric(bad, good, TWO_ATOM)
    wrong_default = Pattern(Box(1), 1, {})
    with pytest.raises(UsageError):
        name_metric(wrong_default, wrong_default, TWO_ATOM)


def test_recurrence_metric_examples():
    assert recurrence_metric({(0, 0)}, {(0, 0)}) == 0
    assert recurrence_metric({(0, 0), (3, 0)}, {(0, 0)}) == Fraction(1, 2)
    assert recurrence_metric({(0, 0)}, {(1, 1)}) == 1
    assert recurrence_metric(set(), set()) == 0


def test_recurrence_metric_equals_two_atom_name_metric():
    for i in range(300):
        def draw(tag):
            sites = set()
            for k in range(rng.uniform_int(13, tag + "n", i, lo=0, hi=5)):
                x = rng.uniform_int(13, tag + "x", i, k, lo=-3, hi=3)
                y = rng.uniform_int(13, tag + "y", i, k, lo=-3, hi=3)
                sites.add((x, y))
            return sites

        rx, ry = draw("a"), draw("b")
        nx = Pattern(Box(3), 0, {u: 1 for u in rx})
        ny = Pattern(Box(3), 0, {u: 1 for u in ry})
        assert recurrence_metric(rx, ry) == name_metric(nx, ny, TWO_ATOM)


def _random_three_atom_name(seed, tag, i, radius=3, max_cells=8):
    cells = {}
    count = rng.uniform_int(seed, tag + "n", i, lo=0, hi=max_cells)
    k = attempt = 0
    while k < count:
        x = rng.uniform_int(seed, tag + "x", i, k, attempt, lo=-radius, hi=radius)
        y = rng.uniform_int(seed, tag + "y", i, k, attempt, lo=-radius, hi=radius)
        attempt += 1
        if (x, y) in cells:
            continue
        cells[(x, y)] = 1 + rng.uniform_int(seed, tag + "s", i, k, lo=0, hi=1)
        k += 1
    return Pattern(Box(radius), 0, cells)


def coarsen(name: Pattern) -> Pattern:
    """Merge core labels 1 and 2 into label 1 (refinement in reverse)."""
    return Pattern(name.box, 0, {u: 1 for u in name.cells})


def test_refining_partition_monotonicity():
    # if R refines P then d_P <= d_R, pointwise on names
    for i in range(500):
        x = _random_three_atom_name(17, "x", i)
        y = _random_three_atom_name(17, "y", i)
        d_fine = name_metric(x, y, THREE_ATOM)
        d_coarse = name_metric(coarsen(x), coarsen(y), TWO_ATOM)
        assert d_coarse <= d_fine


def test_orbit_refinement_identity():
    provider = TableNames({})
    ref = OrbitRefinement(TWO_ATOM, ((0, 0),), provider)
    x = Pattern(Box(2), 0, {(0, 0): 1, (1, 1): 1})
    refined = ref.refine_pattern(x)
    assert refined.support() == x.support()
    assert len(ref.partition.labels) == 2


def test_orbit_refinement_requires_origin():
    with pytest.raises(UsageError):
        OrbitRefinement(TWO_ATOM, ((1, 0),), TableNames({}))


def test_orbit_refinement_core_rule():
    # core of P^F at u iff u or u + (1,0) lies in the core of P
    ref = OrbitRefinement(TWO_ATOM, ((0, 0), (1, 0)), TableNames({}))
    x = Pattern(Box(3), 0, {(0, 0): 1, (2, 2): 1})
    refined = ref.refine_pattern(x)
    expected = {
        u
        for u in Box(2).sites()
        if x.symbol_at(u) == 1 or x.symbol_at((u[0] + 1, u[1])) == 1
    }
    assert refined.support() == expected


def _margin_agreeing_pair(seed, i, radius, inner):
    """Names over Q_radius whose disagreements stay inside Q_inner.

    The refinement bound's counting argument is exact in this regime; pairs
    differing only on the margin ring can violate the naive same-window
    inequality through pure boundary effects.
    """
    x = coarsen(_random_three_atom_name(seed, f"x{i}", i, radius=radius))
    cells = dict(x.cells)
    flips = rng.uniform_int(seed, "flips", i, lo=0, hi=4)
    for k in range(flips):
        fx = rng.uniform_int(seed, "fx", i, k, lo=-inner, hi=inner)
        fy = rng.uniform_int(seed, "fy", i, k, lo=-inner, hi=inner)
        if (fx, fy) in cells:
            del cells[(fx, fy)]
        else:
            cells[(fx, fy)] = 1
    return x, Pattern(Box(radius), 0, cells)


def test_orbit_refinement_bound():
    # d_{P^F, n} <= |F| * d_{P, n} pointwise, for pairs disagreeing inside Q_n
    ref = OrbitRefinement(TWO_ATOM, ((0, 0), (1, 0)), TableNames({}))
    for i in range(400):
        x, y = _margin_agreeing_pair(23, i, radius=3, inner=2)
        rx, ry = ref.refine_pattern(x), ref.refine_pattern(y)
        d_ref = name_metric(rx, ry, ref.partition)
        d_base = name_metric(x.restricted(2), y.restricted(2), TWO_ATOM)
        assert d_ref <= 2 * d_base


def test_orbit_refinement_construction_count(sched_default):
    # core count of the F-refined name over Q_24 equals |(G ∪ (G - (3,0))) ∩ Q_24|
    # where G is the local core grid of the centered point
    provider = ConstructionNames()
    ref = OrbitRefinement(TWO_ATOM, ((0, 0), (3, 0)), provider)
    p = cs.point_from_address(sched_default, [(0, 0)])
    refined = ref.name(p, 24)
    base = cs.name01(p, 27)
    expected = {
        u
        for u in Box(24).sites()
        if base.symbol_at(u) == 1 or base.symbol_at((u[0] + 3, u[1])) == 1
    }
    assert refined.support() == expected
    assert len(refined.cells) == 289


def test_partition_delta_examples():
    cells = ["a", "b", "c", "d"]
    masses = {c: Fraction(1, 4) for c in cells}
    p_labels = {"a": 1, "b": 1, "c": 0, "d": 0}
    assert partition_delta(p_labels, dict(p_labels), masses, TWO_ATOM, TWO_ATOM) == 0
    # swap labels of two disjoint core atoms of equal mass m; core mass M -> 2m/M
    p3 = {"a": 1, "b": 2, "c": 0, "d": 0}
    r3 = {"a": 2, "b": 1, "c": 0, "d": 0}
    assert partition_delta(p3, r3, masses, THREE_ATOM, THREE_ATOM) == Fraction(2, 4) / Fraction(2, 4) * 1


def test_partition_delta_stage2_recolor(sched_default):
    # one core cell of mass 1/361 recolored to the infinite atom; the union of
    # the per-label symmetric differences is that single cell
    arr = brute_arrangement(sched_default, 2)
    sites = list(box_sites(arr.radius))
    masses = {u: arr.width for u in sites}
    p_labels = {u: arr.at(u)[0] for u in sites}
    r_labels = dict(p_labels)
    r_labels[(0, 0)] = 0
    delta = partition_delta(p_labels, r_labels, masses, TWO_ATOM, TWO_ATOM)
    assert delta == Fraction(1, 361)


def test_partition_delta_label_count_mismatch():
    with pytest.raises(UsageError):
        partition_delta({"a": 0}, {"a": 0}, {"a": Fraction(1)}, TWO_ATOM, THREE_ATOM)


class AllCoreNames:
    """Toy provider: every site is core."""

    def name(self, point, n):
        return Pattern(Box(n), 0, {u: 1 for u in Box(n).sites()})

    def core_count(self, point, n):
        return (2 * n + 1) ** 2


def test_rescale_radius_all_core():
    provider = AllCoreNames()
    assert rescale_radius(None, 5, provider) == 5
    assert rescale_radius(None, 0, provider) == 0


def test_rescale_radius_construction(sched_default):
    provider = ConstructionNames()
    p = cs.point_from_address(sched_default, [(0, 0)])
    assert rescale_radius(p, 0, provider) == 0
    # need >= 9 core sites; the local core grid reaches 9 first at m = 3
    assert rescale_radius(p, 1, provider) == 3


def test_rescaled_metric_construction(sched_default):
    provider = ConstructionNames()
    x = cs.point_from_address(sched_default, [(0, 0)])
    y = cs.point_from_address(sched_default, [(3, 0)])
    assert rescaled_metric(x, x, 1, provider, TWO_ATOM) == 0
    value = rescaled_metric(x, y, 1, provider, TWO_ATOM)
    # brute-force oracle: evaluate both windows directly
    mx = rescale_radius(x, 1, provider)
    my = rescale_radius(y, 1, provider)
    expect = name_metric(provider.name(x, mx), provider.name(y, mx), TWO_ATOM) + name_metric(
        provider.name(x, my), provider.name(y, my), TWO_ATOM
    )
    assert value == expect
    assert 0 <= value <= 2


def test_rescaled_metric_symmetry(sched_default):
    provider = ConstructionNames()
    x = cs.sample_point(sched_default, 3, seed=5)
    y = cs.sample_point(sched_default, 3, seed=6)
    assert rescaled_metric(x, y, 1, provider, TWO_ATOM) == rescaled_metric(y, x, 1, provider, TWO_ATOM)
