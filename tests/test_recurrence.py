import math
from fractions import Fraction
from itertools import product

import pytest

from slowent import cutstack as cs
from slowent import expcli, rng
from slowent.lattice import UsageError, box_site_count, pattern_distance
from slowent.partitions import recurrence_metric
from slowent.recurrence import (
    centroid_decode_axes,
    recurrence_key,
    recurrence_set,
    rho_alpha_bound_holds,
)
from slowent.symbolic import overlay_name

from oracles import brute_gamma, centroid_decode, recurrence_site_set, site_set_metric


def test_recurrence_set_examples(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)])
    assert recurrence_site_set(p, 0) == {(0, 0)}
    assert recurrence_set(p, 0) == ({0}, {0})
    r3 = recurrence_site_set(p, 3)
    assert r3 == {(x, y) for x in (-3, 0, 3) for y in (-3, 0, 3)}
    assert recurrence_set(p, 3) == ({-3, 0, 3}, {-3, 0, 3})
    r27 = recurrence_site_set(p, 27)
    assert len(r27) == 361
    xs, ys = recurrence_set(p, 27)
    assert len(xs) * len(ys) == 361


def test_recurrence_set_is_name_support(sched_default):
    for i in range(4):
        p = cs.sample_point(sched_default, 3, seed=rng.derive_seed(3, "rs", i))
        assert recurrence_site_set(p, 9) == set(cs.name01(p, 9).cells)
        xs, ys = recurrence_set(p, 9)
        assert set(product(xs, ys)) == set(cs.name01(p, 9).cells)
        assert cs.core_count(p, 9) == len(cs.name01(p, 9).cells)


def test_recurrence_size_monotone(sched_default):
    p = cs.sample_point(sched_default, 3, seed=12)
    counts = [cs.core_count(p, n) for n in (0, 1, 3, 9, 27, 56)]
    assert counts == sorted(counts)


def test_recurrence_metric_identity_with_names(sched_default):
    x = cs.sample_point(sched_default, 3, seed=21)
    y = cs.sample_point(sched_default, 3, seed=22)
    for n in (3, 9, 27):
        rhs = pattern_distance(cs.name01(x, n), cs.name01(y, n))
        assert site_set_metric(recurrence_site_set(x, n), recurrence_site_set(y, n)) == rhs
        assert recurrence_metric(recurrence_set(x, n), recurrence_set(y, n)) == rhs


def test_centroid_decode_examples():
    sym = frozenset((x, y) for x in (-3, 0, 3) for y in (-3, 0, 3))
    assert centroid_decode(sym) == (0, 0)
    shifted = frozenset((x - 3, y) for x in (-3, 0, 3) for y in (-3, 0, 3))
    assert centroid_decode(shifted) == (3, 0)
    with pytest.raises(UsageError):
        centroid_decode(frozenset())


def test_centroid_decode_tie_rounding():
    # mean -0.5: ties round toward zero
    p = frozenset(((0, 0), (1, 0)))
    assert centroid_decode(p) == (0, 0)
    q = frozenset(((-1, 0), (0, 0)))
    assert centroid_decode(q) == (0, 0)


def test_centroid_decode_axes_agrees(sched_c5):
    n = 2 * sched_c5.r(2)
    for g in [(0, 0), (6, -12), (216, 216), (-216, 6)]:
        p = cs.point_from_address(sched_c5, [g])
        full = centroid_decode(recurrence_site_set(p, n))
        _, mx, my = cs.core_centroid(p, n)
        fast = centroid_decode_axes(mx, my)
        assert full == fast == g


def test_distinct_pattern_count_basics(sched_default):
    pts = [cs.point_from_address(sched_default, [(0, 0)]) for _ in range(4)]
    assert len({recurrence_key(p, 27) for p in pts}) == 1
    mixed = [cs.point_from_address(sched_default, [g]) for g in [(0, 0), (3, 0), (27, 0)]]
    # full-grid degeneracy of minimal spacing: every window looks the same
    assert len({recurrence_key(p, 56) for p in mixed}) == 1


def test_distinct_pattern_count_c5(sched_c5):
    gs = [(0, 0), (6, 0), (0, 6), (216, -216), (12, 6)]
    pts = [cs.point_from_address(sched_c5, [g]) for g in gs]
    assert len({recurrence_key(p, 2 * sched_c5.r(2)) for p in pts}) == len(gs)


def test_recurrence_key_separates(sched_c5):
    a = cs.point_from_address(sched_c5, [(0, 0)])
    b = cs.point_from_address(sched_c5, [(6, 0)])
    n = 2 * sched_c5.r(2)
    assert recurrence_key(a, n) != recurrence_key(b, n)
    assert recurrence_key(a, n) == recurrence_key(a, n)


def test_rho_alpha_inequality_check():
    assert all(rho_alpha_bound_holds(n, 1, 0.0, Fraction(1, 20)) for n in (4, 8))
    # synthetic violation: N = 2^|Q_n| with alpha 0 must be flagged
    n = 20
    q = (2 * n + 1) ** 2
    assert not rho_alpha_bound_holds(n, 2**q, 0.0, Fraction(1, 20))
    with pytest.raises(UsageError):
        rho_alpha_bound_holds(4, 0, 0.0, Fraction(1, 20))


def test_rho_alpha_log_space_matches_the_float_bound():
    # the float form log2 N <= 2 |Q_n|^(alpha+eps) log2 |Q_n| wherever it stays in range, counts on both sides of it
    eps = Fraction(1, 20)
    checked = 0
    for n in (0, 1, 2, 4, 27, 56, 300):
        q = (2 * n + 1) ** 2
        for alpha in (0.0, 0.5, 0.73, 1.0):
            log2_bound = 2.0 * q ** (alpha + float(eps)) * math.log2(q)
            if log2_bound > 50_000:
                continue
            k = math.floor(log2_bound)
            for count in {1, 2, 3, 2**k, 2**k + 1, 2 ** (k + 1)}:
                assert rho_alpha_bound_holds(n, count, alpha, eps) == (math.log2(count) <= log2_bound), (n, alpha, count)
                checked += 1
    assert checked > 100
    # far past float range the check still answers
    assert rho_alpha_bound_holds(10**200, 10**400, 0.5, eps)
    assert not rho_alpha_bound_holds(2, 2**100, 0.5, eps)


def test_construction_counts_pass_inequality(sched_default):
    positions = sorted(brute_gamma(sched_default.m(1), sched_default.s(1)))
    pts = [cs.point_from_address(sched_default, [g]) for g in positions[:50]]
    n = 2 * sched_default.r(2)
    count = len({recurrence_key(p, n) for p in pts})
    alpha_hat = math.log(cs.core_count(pts[0], n)) / math.log((2 * n + 1) ** 2)
    assert rho_alpha_bound_holds(n, count, alpha_hat, Fraction(1, 20))


def test_distinct_patterns_sampled_stage3(sched_default):
    pts = [cs.sample_point(sched_default, 3, seed=rng.derive_seed(71, "dp", i)) for i in range(100)]
    count = len({recurrence_key(p, 27) for p in pts})
    assert count <= cs.gamma_star_size(2, sched_default)


def test_recurrence_metric_axioms_direct(sched_default):
    points = [cs.sample_point(sched_default, 3, seed=rng.derive_seed(72, "ax", i)) for i in range(12)]
    for metric, build in ((site_set_metric, recurrence_site_set), (recurrence_metric, recurrence_set)):
        sets = [build(p, 6) for p in points]
        for a in sets:
            for b in sets:
                assert metric(a, b) == metric(b, a)
                assert (metric(a, b) == 0) == (a == b)
                for c in sets:
                    assert metric(a, c) <= metric(a, b) + metric(b, c)


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_factor_metric_and_key_match_the_site_set_oracle(spec):
    # every ordered pair of 10 stage-3 points, at windows of 1 to about 21,000 return sites
    sched = expcli.schedule_from_spec(spec)
    points = expcli.sample_points(sched, 3, 10, 7)
    equal_sets = set()
    for n in (3, 27, 56, 217):
        sets = [recurrence_site_set(p, n) for p in points]
        factors = [recurrence_set(p, n) for p in points]
        keys = [recurrence_key(p, n) for p in points]
        for i, (xs, ys) in enumerate(factors):
            # the point itself returns, so neither factor is empty
            assert 0 in xs and 0 in ys
            assert keys[i] == (n, tuple(sorted(xs)), tuple(sorted(ys)))
            for j in range(len(points)):
                assert recurrence_metric(factors[i], factors[j]) == site_set_metric(sets[i], sets[j])
                assert (keys[i] == keys[j]) == (sets[i] == sets[j])
                equal_sets.add(sets[i] == sets[j])
    # tight spacing tiles, so its stage-3 points share every window; gapped spacing separates some
    assert equal_sets == ({True} if spec["c"] == "2" else {True, False})


def test_window_cap_refuses_oversized_products(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)])
    count = cs.core_count(p, 10_000)
    assert count > cs.GENERIC_CELL_CAP
    with pytest.raises(UsageError):
        cs.name01(p, 10_000)
    with pytest.raises(UsageError):
        recurrence_set(p, 10_000)
    # the axes themselves are not capped: they hold only |X| + |Y| values
    xs, ys = cs.window_axes(p, 10_000)
    assert len(xs) * len(ys) == count


def test_window_cap_counts_cells_only_past_the_box_bound(monkeypatch):
    # a window of (2n+1)^2 <= GENERIC_CELL_CAP sites cannot hold more 1-cells
    # than the cap, so no capped reader counts them; past that bound the
    # count runs, and it still refuses a window over the cap
    counted = []
    real = cs._count
    monkeypatch.setattr(cs, "_count", lambda axis, u, n: counted.append(n) or real(axis, u, n))
    largest = (math.isqrt(cs.GENERIC_CELL_CAP) - 1) // 2
    assert box_site_count(largest) <= cs.GENERIC_CELL_CAP < box_site_count(largest + 1)
    for i, spec in enumerate(expcli.DEFAULT_VARIANTS):
        sched = expcli.schedule_from_spec(spec)
        p = cs.sample_point(sched, 3, seed=rng.derive_seed(80, "box", i))
        for n in (0, 1, 27, 200):
            cs.name01(p, n)
            overlay_name(p, n)
            recurrence_set(p, n)
        recurrence_set(p, largest)
    assert counted == []
    p = cs.point_from_address(expcli.schedule_from_spec(expcli.DEFAULT_VARIANTS[0]), [(0, 0)])
    xs, ys = recurrence_set(p, largest + 1)
    assert counted == [largest + 1] and len(xs) * len(ys) <= cs.GENERIC_CELL_CAP
    with pytest.raises(UsageError, match="window Q_10000 holds"):
        overlay_name(p, 10_000)
    assert counted == [largest + 1, 10_000]
