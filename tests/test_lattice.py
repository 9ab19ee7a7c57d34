import gc
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowent import cutstack as cs
from slowent import expcli, rng
from slowent.lattice import (
    AxisSumset,
    Box,
    Pattern,
    UsageError,
    box_site_count,
    pattern_distance,
    pattern_to_text,
    sup_norm,
)

from oracles import brute_axis_sumset, covered, dense_pattern_distance, maximal_chains, pattern_from_text


def test_box_site_count_examples():
    assert box_site_count(0) == 1
    assert box_site_count(1) == 9
    # direct evaluation (2*27+1)^2
    assert box_site_count(27) == 55 * 55 == 3025


def test_box_site_count_matches_enumeration():
    b = Box(3)
    assert sum(1 for _ in b.sites()) == box_site_count(3)


def test_box_rejects_bad_arguments():
    with pytest.raises(UsageError):
        box_site_count(-1)


def test_sup_norm():
    assert sup_norm((3, -5)) == 5
    assert sup_norm((0, 0)) == 0


def test_pattern_canonical_sparsity():
    with pytest.raises(UsageError, match="stores the default symbol"):
        Pattern(Box(1), 0, {(0, 0): 0})
    with pytest.raises(UsageError, match="stores the default symbol"):
        Pattern(Box(1), 3, {(0, 0): 1, (1, 1): 3})
    # a site must be a pair inside the box on both axes, on either side
    for u in ((0,), (0, 0, 0), (2, 0), (-2, 0), (0, 2), (0, -2), (2, -2)):
        with pytest.raises(UsageError, match=re.escape(f"cell {u} outside box Q_1")):
            Pattern(Box(1), 0, {(0, 0): 1, u: 1})
    # cells are checked in order: the first bad cell names the error
    with pytest.raises(UsageError, match="outside box"):
        Pattern(Box(1), 0, {(5, 5): 0, (0, 0): 0})
    with pytest.raises(UsageError, match="default symbol"):
        Pattern(Box(1), 0, {(0, 0): 0, (5, 5): 1})
    assert Pattern(Box(1), 0, {(-1, 1): 2, (1, -1): 3}).cells == {(-1, 1): 2, (1, -1): 3}


def test_pattern_distance_examples():
    a = Pattern(Box(1), 0, {(0, 0): 1, (1, 0): 1})
    b = Pattern(Box(1), 0, {(0, 0): 1})
    assert pattern_distance(a, a) == 0
    one_cell = Pattern(Box(1), 0, {(0, 0): 1})
    empty = Pattern(Box(1), 0, {})
    assert pattern_distance(one_cell, empty) == 1
    # 1 differing site over 2 core sites
    assert pattern_distance(a, b) == Fraction(1, 2)
    assert pattern_distance(empty, empty) == 0


def test_pattern_distance_mismatch_errors():
    a = Pattern(Box(1), 0, {})
    with pytest.raises(UsageError):
        pattern_distance(a, Pattern(Box(2), 0, {}))
    with pytest.raises(UsageError):
        pattern_distance(a, Pattern(Box(1), 7, {}))


def _random_pattern(seed, tag, i):
    cells = {}
    count = rng.uniform_int(seed, tag + "n", i, lo=0, hi=4)
    k = 0
    attempt = 0
    while k < count:
        x = rng.uniform_int(seed, tag + "x", i, k, attempt, lo=-2, hi=2)
        y = rng.uniform_int(seed, tag + "y", i, k, attempt, lo=-2, hi=2)
        attempt += 1
        if (x, y) in cells:
            continue
        cells[(x, y)] = 1 + rng.uniform_int(seed, tag + "s", i, k, lo=0, hi=1)
        k += 1
    return Pattern(Box(2), 0, cells)


def test_pattern_distance_matches_dense_oracle():
    for i in range(300):
        a = _random_pattern(5, "a", i)
        b = _random_pattern(5, "b", i)
        assert pattern_distance(a, b) == dense_pattern_distance(a, b)


# patterns on Q_2 with symbols {1, 2, 3}; drawing sites from Q_1 makes supports overlap
SMALL_PATTERNS = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)), st.integers(1, 3), max_size=9
).map(lambda cells: Pattern(Box(2), 0, cells))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(a=SMALL_PATTERNS, b=SMALL_PATTERNS)
def test_pattern_distance_matches_dense_oracle_on_overlapping_supports(a, b):
    assert pattern_distance(a, b) == dense_pattern_distance(a, b)


def test_pattern_distance_metric_axioms_random():
    for i in range(500):
        a, b, c = (_random_pattern(9, t, i) for t in "abc")
        d_ab, d_bc, d_ac = pattern_distance(a, b), pattern_distance(b, c), pattern_distance(a, c)
        assert 0 <= d_ab <= 1
        assert d_ab == pattern_distance(b, a)
        assert (d_ab == 0) == (a == b)
        assert d_ac <= d_ab + d_bc


@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_pattern_distance_invariant_under_site_permutation_and_swaps(data):
    # the metric-axiom census in expcli rests on this: a triple matters only
    # through how many sites carry each joint symbol type
    box = Box(2)
    sites = list(box.sites())
    cells = st.dictionaries(st.sampled_from(sites), st.sampled_from((1, 2)), max_size=8)
    a, b = Pattern(box, 0, data.draw(cells)), Pattern(box, 0, data.draw(cells))
    target = dict(zip(sites, data.draw(st.permutations(sites))))
    swapped = data.draw(st.sets(st.sampled_from(sites)))

    def moved(p):
        return Pattern(box, 0, {target[u]: 3 - s if u in swapped else s for u, s in p.cells.items()})

    assert pattern_distance(moved(a), moved(b)) == pattern_distance(a, b)


def test_sumset_descriptor_requires_dominance():
    with pytest.raises(UsageError):
        AxisSumset([(3, 27), (5, 25)])


@st.composite
def dominating_levels(draw):
    """Up to four (spacing, radius) levels, finest first; each spacing exceeds twice the finer reach."""
    levels, reach = [], 0
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.integers(2 * reach + 1, 2 * reach + 8))
        s = draw(st.integers(0, 4 * m))
        levels.append((m, s))
        reach += s
    return levels


@settings(derandomize=True, deadline=None)
@given(levels=dominating_levels(), data=st.data())
def test_axis_sumset_matches_brute(levels, data):
    axis = AxisSumset(levels)
    full = brute_axis_sumset(levels)
    reach = sum(s for _, s in levels)
    lo = data.draw(st.integers(-reach - 8, reach + 8))
    hi = data.draw(st.integers(lo - 2, reach + 8))
    h = data.draw(st.integers(0, 8))
    inside = sorted(x for x in full if lo <= x <= hi)
    assert axis.values(lo, hi, 0) == inside
    assert axis.count_sum(lo, hi) == (len(inside), sum(inside))
    thickened = {y for x in full for y in range(x - h, x + h + 1) if lo <= y <= hi}
    assert covered(axis, h, lo, hi) == len(thickened)
    # the copies x + [-h, h] are pairwise disjoint exactly when the levels
    # still dominate with [-h, h] as the finest level
    if all(m > 2 * (h + sum(s for _, s in levels[:t])) for t, (m, _) in enumerate(levels)):
        assert AxisSumset([(1, h), *levels]).count_sum(lo, hi)[0] == len(thickened)
    else:
        with pytest.raises(UsageError):
            AxisSumset([(1, h), *levels])
    origin = data.draw(st.integers(lo - 8, hi + 8))
    assert axis.values(lo, hi, origin) == [x - origin for x in inside]
    # the maximal runs are the chains of values one finest spacing apart
    step = levels[0][0] if levels else 1
    assert axis.maximal_runs(lo, hi, origin) == maximal_chains([x - origin for x in inside], step)


def test_axis_values_leave_no_garbage(sched_default):
    # with the cyclic collector off, anything a values call leaves in a
    # reference cycle is found by the next collection
    # a window over five level-2 copies of the stage-3 axis, 95 values
    axis, width = sched_default.sumset(3), 2 * sched_default.m(2) + sched_default.r(2)
    gc.disable()
    try:
        gc.collect()
        assert len(axis.values(-width, width, 0)) == 95
        assert gc.collect() == 0
    finally:
        gc.enable()


def _kernel_windows():
    """(stage, axis, lo, hi): windows of radius 0 to 50,000 around sampled
    points, at stages 2-6 of every default variant."""
    for spec in expcli.DEFAULT_VARIANTS:
        sched = expcli.schedule_from_spec(spec)
        for stage in range(2, 7):
            axis = sched.sumset(stage)
            for seed in range(4):
                for u in cs.sample_point(sched, stage, seed).position_at(stage):
                    for n in (0, 1, 7, 60, 500, 4_000, 50_000):
                        yield stage, axis, u - n, u + n


def test_axis_runs_recurse_at_most_three_times_a_level(monkeypatch):
    # whole copies translate one list of the finer sumset's runs and only the
    # partial copies at the window's two ends recurse: per level at most the
    # two ends and one build of the finer sumset, not one call per copy met
    calls = []
    walk = AxisSumset._walk_runs

    def counted(self, *args):
        calls.append(args)
        return walk(self, *args)

    monkeypatch.setattr(AxisSumset, "_walk_runs", counted)
    for stage, axis, lo, hi in _kernel_windows():
        calls.clear()
        axis.values(lo, hi, 0)
        assert len(calls) <= 3 * (stage - 1) + 1, (stage, lo, hi)


def test_axis_kernels_recurse_into_no_whole_copy(monkeypatch):
    # a copy wholly inside its window is counted or translated whole, so
    # neither kernel recurses into one; _walk_runs' one build of the whole
    # finer sumset per level is the exception. Walking a whole copy as a
    # partial one changes no value, only the work done
    whole = []
    count_sum, walk = AxisSumset._count_sum, AxisSumset._walk_runs

    def note_whole(self, top, lo, hi):
        if top < len(self._levels) and lo <= -self._reach[top] and hi >= self._reach[top]:
            whole.append((top, lo, hi))

    def checked_count_sum(self, top, lo, hi):
        note_whole(self, top, lo, hi)
        return count_sum(self, top, lo, hi)

    def checked_walk(self, runs, full, top, base, lo, hi):
        if runs is not full.get(top):
            note_whole(self, top, lo, hi)
        return walk(self, runs, full, top, base, lo, hi)

    monkeypatch.setattr(AxisSumset, "_count_sum", checked_count_sum)
    monkeypatch.setattr(AxisSumset, "_walk_runs", checked_walk)
    for _, axis, lo, hi in _kernel_windows():
        axis.count_sum(lo, hi)
        axis.values(lo, hi, 0)
    assert whole == []


def test_grid_membership(sched_default):
    # Gamma_1 = Q_27 ∩ 3Z^2 on the default schedule, which builds three levels;
    # compose and point_from_address share one membership check
    assert cs.compose([(27, -27)], sched_default) == (27, -27)
    assert cs.point_from_address(sched_default, [(27, -27)]).levels == [(27, -27), (0, 0), (0, 0)]
    for levels in ([(1, 0)], [(30, 0)], [(0, 0, 0)], [(0, 0)] * sched_default.stages):
        with pytest.raises(UsageError):
            cs.compose(levels, sched_default)
        with pytest.raises(UsageError):
            cs.point_from_address(sched_default, levels)


def test_pattern_text_round_trip():
    p = Pattern(Box(3), 0, {(-3, 2): 1, (0, 0): 2, (1, -1): 3})
    text = pattern_to_text(p)
    assert pattern_from_text(text) == p
    assert pattern_to_text(pattern_from_text(text)) == text


def test_pattern_text_is_sorted_and_stable():
    p = Pattern(Box(1), 0, {(1, 0): 1, (-1, 0): 1, (0, 1): 1})
    lines = pattern_to_text(p).splitlines()
    assert lines[0] == "box 1 default 0"
    assert lines[1:] == ["-1 0 1", "0 1 1", "1 0 1"]
