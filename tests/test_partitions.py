from fractions import Fraction

from slowent import cutstack as cs
from slowent import rng
from slowent.lattice import Box, Pattern, pattern_distance
from slowent.partitions import recurrence_metric

from oracles import refine_by_offsets, restricted, symbol_at


def test_name_metric_examples():
    # the name metric d_{P,n} of the two-atom partition is the pattern metric on 0/1 names
    a = Pattern(Box(1), 0, {(0, 0): 1, (1, 0): 1})
    b = Pattern(Box(1), 0, {(0, 0): 1})
    assert pattern_distance(a, a) == 0
    # disjoint singleton cores: 2 differing sites over 2 core sites
    c = Pattern(Box(1), 0, {(0, 1): 1})
    assert pattern_distance(b, c) == 1
    assert pattern_distance(a, b) == Fraction(1, 2)


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
        assert recurrence_metric(rx, ry) == pattern_distance(nx, ny)


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
        d_fine = pattern_distance(x, y)
        d_coarse = pattern_distance(coarsen(x), coarsen(y))
        assert d_coarse <= d_fine


def test_orbit_refinement_identity():
    x = Pattern(Box(2), 0, {(0, 0): 1, (1, 1): 1})
    assert refine_by_offsets(x, ((0, 0),)) == x


def test_orbit_refinement_core_rule():
    # core of P^F at u iff u or u + (1,0) lies in the core of P
    x = Pattern(Box(3), 0, {(0, 0): 1, (2, 2): 1})
    refined = refine_by_offsets(x, ((0, 0), (1, 0)))
    expected = {
        u
        for u in Box(2).sites()
        if symbol_at(x, u) == 1 or symbol_at(x, (u[0] + 1, u[1])) == 1
    }
    assert set(refined.cells) == expected


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
    offsets = ((0, 0), (1, 0))
    for i in range(400):
        x, y = _margin_agreeing_pair(23, i, radius=3, inner=2)
        d_ref = pattern_distance(refine_by_offsets(x, offsets), refine_by_offsets(y, offsets))
        d_base = pattern_distance(restricted(x, 2), restricted(y, 2))
        assert d_ref <= 2 * d_base


def test_orbit_refinement_construction_count(sched_default):
    # core count of the F-refined name over Q_24 equals |(G ∪ (G - (3,0))) ∩ Q_24|
    # where G is the local core grid of the centered point
    p = cs.point_from_address(sched_default, [(0, 0)])
    base = cs.name01(p, 27)
    refined = refine_by_offsets(base, ((0, 0), (3, 0)))
    expected = {
        u
        for u in Box(24).sites()
        if symbol_at(base, u) == 1 or symbol_at(base, (u[0] + 3, u[1])) == 1
    }
    assert set(refined.cells) == expected
    assert len(refined.cells) == 289
