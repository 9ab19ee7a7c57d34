import math
from fractions import Fraction

import pytest

from slowent import cutstack as cs
from slowent import rng
from slowent.lattice import UsageError, pattern_distance
from slowent.partitions import recurrence_metric
from slowent.recurrence import (
    centroid_decode_axes,
    recurrence_count,
    recurrence_key,
    recurrence_set,
    rho_alpha_inequality_check,
)

from oracles import brute_gamma, centroid_decode


def test_recurrence_set_examples(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)])
    assert recurrence_set(p, 0) == {(0, 0)}
    r3 = recurrence_set(p, 3)
    assert r3 == {(x, y) for x in (-3, 0, 3) for y in (-3, 0, 3)}
    r27 = recurrence_set(p, 27)
    assert len(r27) == 361


def test_recurrence_set_is_name_support(sched_default):
    for i in range(4):
        p = cs.sample_point(sched_default, 3, seed=rng.derive_seed(3, "rs", i))
        assert recurrence_set(p, 9) == set(cs.name01(p, 9).cells)
        assert recurrence_count(p, 9) == len(cs.name01(p, 9).cells)


def test_recurrence_size_monotone(sched_default):
    p = cs.sample_point(sched_default, 3, seed=12)
    counts = [recurrence_count(p, n) for n in (0, 1, 3, 9, 27, 56)]
    assert counts == sorted(counts)


def test_recurrence_metric_identity_with_names(sched_default):
    x = cs.sample_point(sched_default, 3, seed=21)
    y = cs.sample_point(sched_default, 3, seed=22)
    for n in (3, 9, 27):
        rx, ry = recurrence_set(x, n), recurrence_set(y, n)
        lhs = recurrence_metric(rx, ry)
        rhs = pattern_distance(cs.name01(x, n), cs.name01(y, n))
        assert lhs == rhs


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
        full = centroid_decode(recurrence_set(p, n))
        cnt, mx, my = cs.core_centroid(p, n)
        fast = centroid_decode_axes(cnt, mx, cnt, my)
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
    cells = rho_alpha_inequality_check([(4, 1), (8, 1)], 0.0, Fraction(1, 20))
    assert all(c.ok for c in cells)
    # synthetic violation: N = 2^|Q_n| with alpha 0 must be flagged
    n = 20
    q = (2 * n + 1) ** 2
    bad = rho_alpha_inequality_check([(n, 2**q)], 0.0, Fraction(1, 20))
    assert not bad[0].ok
    with pytest.raises(UsageError):
        rho_alpha_inequality_check([(4, 0)], 0.0, Fraction(1, 20))


def test_construction_counts_pass_inequality(sched_default):
    positions = sorted(brute_gamma(sched_default.m(1), sched_default.s(1)))
    pts = [cs.point_from_address(sched_default, [g]) for g in positions[:50]]
    n = 2 * sched_default.r(2)
    count = len({recurrence_key(p, n) for p in pts})
    alpha_hat = math.log(recurrence_count(pts[0], n)) / math.log((2 * n + 1) ** 2)
    cells = rho_alpha_inequality_check([(n, count)], alpha_hat, Fraction(1, 20))
    assert all(c.ok for c in cells)


def test_distinct_patterns_sampled_stage3(sched_default):
    pts = [cs.sample_point(sched_default, 3, seed=rng.derive_seed(71, "dp", i)) for i in range(100)]
    count = len({recurrence_key(p, 27) for p in pts})
    assert count <= cs.gamma_star_size(2, sched_default)


def test_recurrence_metric_axioms_direct(sched_default):
    sets = [recurrence_set(cs.sample_point(sched_default, 3, seed=rng.derive_seed(72, "ax", i)), 6) for i in range(12)]
    for a in sets:
        for b in sets:
            assert recurrence_metric(a, b) == recurrence_metric(b, a)
            assert (recurrence_metric(a, b) == 0) == (a == b)
            for c in sets:
                assert recurrence_metric(a, c) <= recurrence_metric(a, b) + recurrence_metric(b, c)


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
