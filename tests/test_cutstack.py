import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowent import cutstack as cs
from slowent import expcli, rng
from slowent.lattice import AxisSumset, Box, Pattern, UsageError
from slowent.symbolic import A_SYMBOL, overlay_name

from oracles import (
    axis_decompose,
    axis_extremes,
    axis_peel,
    brute_arrangement,
    brute_gamma,
    brute_gamma_star_member,
    brute_window_ones,
    determining_stage_by_loop,
    gamma_axis,
    in_gamma,
    merged_provenance_count,
    overlay_pattern,
    peel_2d,
    pinned_point,
    position_from_levels,
    restricted,
)


# ---------------------------------------------------------------------------
# Schedules


def test_build_schedule_default():
    s = cs.build_schedule(3, Fraction(1, 3), 2, 1)
    assert s.radii == (1, 28, 185221)
    assert (s.m(1), s.m(2)) == (3, 57)
    assert (s.s(1), s.s(2)) == (27, 185193)


def test_build_schedule_quarter():
    s = cs.build_schedule(2, Fraction(1, 4), 2, 1)
    assert s.m(1) == 3 and s.s(1) == 81 and s.r(2) == 82


def test_build_schedule_c5():
    s = cs.build_schedule(2, Fraction(1, 3), 5, 1)
    assert s.m(1) == 6 and s.s(1) == 216 and s.r(2) == 217


def test_schedule_rejects_bad_parameters():
    with pytest.raises(UsageError):
        cs.build_schedule(2, Fraction(2, 5), 2, 1)  # 1/theta not an integer
    with pytest.raises(UsageError):
        cs.build_schedule(2, Fraction(1, 3), 1, 1)  # c < 2
    with pytest.raises(UsageError):
        cs.Schedule((1, 28, 185222), Fraction(1, 3), Fraction(2))  # s(2) not a cube


def test_schedule_text_round_trip(sched_default):
    text = cs.schedule_to_text(sched_default)
    back = cs.schedule_from_text(text)
    assert back == sched_default
    assert cs.schedule_to_text(back) == text


@pytest.mark.parametrize("theta, c, stages", [("1/3", 2, 9), ("1/4", 2, 7), ("1/3", 5, 8), ("1/4", 5, 7)])
def test_largest_schedules_round_trip_through_text(theta, c, stages):
    # one more stage would pass the radius digit bound
    sched = cs.build_schedule(stages, Fraction(theta), c, 1)
    assert cs.schedule_from_text(cs.schedule_to_text(sched)) == sched
    with pytest.raises(UsageError):
        cs.build_schedule(stages + 1, Fraction(theta), c, 1)


def test_schedule_refuses_radii_past_the_digit_bound():
    with pytest.raises(UsageError):
        cs.Schedule((1, 10**cs.MAX_RADIUS_DIGITS), Fraction(1, 3), Fraction(2))
    # a tiny theta makes m**(1/theta) astronomically large: refused before the power or root is formed
    with pytest.raises(UsageError):
        cs.build_schedule(2, Fraction(1, 10**9), 2, 1)
    with pytest.raises(UsageError):
        cs.Schedule((1, 3), Fraction(1, 10**9), Fraction(2))


def test_parse_fraction_reads_what_fraction_reads():
    for text in ("1/3", "2", "0.125", "1e-2", "-1/3", "+.5", "5.", "1E3", "-2.5e-3", " 7/14 ", "0.0"):
        assert cs.parse_fraction(text) == Fraction(text), text
    # MAX_RADIUS_DIGITS digits above or below the line pass, one more does not
    assert cs.parse_fraction("1e4299") == 10**4299
    assert cs.parse_fraction("2e-4300") == Fraction(1, 5 * 10**4299)
    assert cs.parse_fraction("9" * 4300 + "/7") == Fraction(int("9" * 4300), 7)
    # a zero is zero whatever its exponent, and is not built as 0 / 10^99999999
    assert cs.parse_fraction("0e-99999999") == 0


@pytest.mark.parametrize(
    "text",
    ["1e4300", "1e-4300", "1e-5000", "1e-3000000", "1e3000000", "1e" + "9" * 5000, "9" * 4301, "1/" + "9" * 4301, "1/0", "abc", "", ".", "1_000", "True"],
    ids=lambda text: text if len(text) < 12 else f"{text[:6]}..{len(text)}",
)
def test_parse_fraction_refuses_past_the_digit_bound_and_bad_text(text):
    with pytest.raises(UsageError, match="bad number"):
        cs.parse_fraction(text)


def test_schedule_text_rejects_gaps():
    with pytest.raises(UsageError):
        cs.schedule_from_text("theta 1/3\nc 2\nr 1 1\nr 3 185221\n")


def test_prod_r_diagnostic_reported(sched_default):
    # greedy growth: the product exponent sits well above 1 + o(1)
    val = sched_default.prod_r_exponent(3)
    assert 1.2 < val < 2.0


# ---------------------------------------------------------------------------
# Gamma levels and sizes


def test_gamma_size_formula_and_enumeration(sched_default):
    assert cs.gamma_size(sched_default, 1) == 361
    assert brute_gamma(3, 27) == {(x, y) for x in gamma_axis(sched_default, 1) for y in gamma_axis(sched_default, 1)}
    assert cs.gamma_size(sched_default, 2) == len(gamma_axis(sched_default, 2)) ** 2 == 6499**2 == 42237001


def test_gamma_star_size(sched_default):
    assert cs.gamma_star_size(1, sched_default) == 1
    assert cs.gamma_star_size(2, sched_default) == 361
    assert cs.gamma_star_size(3, sched_default) == 361 * 42237001 == 15247557361


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_examples(sched_default):
    zero = cs.decompose((0, 0), 3, sched_default)
    assert zero is not None and zero.levels == ((0, 0), (0, 0))
    a = cs.decompose((30, -3), 3, sched_default)
    assert a is not None and a.levels == ((-27, -3), (57, 0))
    assert cs.decompose((29, 0), 3, sched_default) is None


def test_decompose_matches_brute_membership(sched_default):
    levels = sched_default.levels_1d(2)
    for i in range(400):
        x = rng.uniform_int(3, "dx", i, lo=-120, hi=120)
        y = rng.uniform_int(3, "dy", i, lo=-120, hi=120)
        got = cs.decompose((x, y), 3, sched_default) is not None
        assert got == brute_gamma_star_member((x, y), levels)


def test_decompose_compose_round_trip(sched_default):
    for i in range(2000):
        levels = []
        for j in (1, 2):
            k = sched_default.s(j) // sched_default.m(j)
            qx = rng.uniform_int(11, "qx", i, j, lo=-k, hi=k)
            qy = rng.uniform_int(11, "qy", i, j, lo=-k, hi=k)
            levels.append((qx * sched_default.m(j), qy * sched_default.m(j)))
        v = cs.compose(levels, sched_default)
        back = cs.decompose(v, 3, sched_default)
        assert back is not None and back.levels == tuple(levels)


def test_gamma_star_symmetry(sched_default):
    for i in range(200):
        x = rng.uniform_int(4, "sx", i, lo=-100, hi=100)
        y = rng.uniform_int(4, "sy", i, lo=-100, hi=100)
        member = cs.decompose((x, y), 3, sched_default) is not None
        for rx, ry in [(-x, -y), (-x, y), (x, -y), (y, x)]:
            assert (cs.decompose((rx, ry), 3, sched_default) is not None) == member


def test_gamma_star_centroid_zero(sched_default):
    sx = sy = 0
    for x, y in brute_gamma(sched_default.m(1), sched_default.s(1)):
        sx += x
        sy += y
    assert (sx, sy) == (0, 0)


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_compose_meets_the_reach_bound(spec):
    # |g_j| <= s(j) per coordinate bounds a composed site by r(stage) - r(1);
    # the all-(+k) address meets the bound at every stage, and nothing passes it
    sched = expcli.schedule_from_spec(spec)
    for stage in range(1, sched.stages + 1):
        reach = sched.r(stage) - sched.r(1)
        top = [(sched.s(j), sched.s(j)) for j in range(1, stage)]
        assert cs.compose(top, sched) == (reach, reach)
        assert cs.compose([(-a, b) for a, b in top], sched) == (-reach, reach)


def test_address_validation(sched_default):
    with pytest.raises(UsageError):
        cs.compose([(1, 0)], sched_default)  # not a multiple of m(1)


# ---------------------------------------------------------------------------
# Points and windows


def test_sample_point_deterministic(sched_default):
    p1 = cs.sample_point(sched_default, 3, seed=42)
    p2 = cs.sample_point(sched_default, 3, seed=42)
    assert p1.levels == p2.levels
    assert p1.overlay_seed == p2.overlay_seed
    p3 = cs.sample_point(sched_default, 3, seed=43)
    assert p3.levels != p1.levels


def test_lazy_extension_is_stable(sched_default):
    early = cs.sample_point(sched_default, 2, seed=99)
    first = list(early.levels)
    early.extend_to(4)
    assert early.levels[:1] == first
    direct = cs.sample_point(sched_default, 4, seed=99)
    assert early.levels == direct.levels


def test_gamma_draw_uniformity(sched_default):
    counts = {}
    trials = 20000
    for i in range(trials):
        p = cs.sample_point(sched_default, 2, seed=rng.derive_seed(7, "unif", i))
        counts[p.levels[0]] = counts.get(p.levels[0], 0) + 1
    expected = trials / 361
    sigma = math.sqrt(trials * (1 / 361) * (360 / 361))
    worst = max(abs(c - expected) for c in counts.values())
    assert len(counts) == 361
    assert worst <= 5 * sigma


def test_color_and_name_examples(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)])
    assert cs.color01_at(p, (0, 0)) == 1
    assert cs.color01_at(p, (3, 0)) == 1
    assert cs.color01_at(p, (1, 0)) == 0
    name3 = cs.name01(p, 3)
    assert set(name3.cells) == {(x, y) for x in (-3, 0, 3) for y in (-3, 0, 3)}
    assert restricted(cs.name01(p, 27), 3) == name3


def test_name_zero_radius(sched_default):
    p = cs.point_from_address(sched_default, [(3, 0)])
    name0 = cs.name01(p, 0)
    assert set(name0.cells) == {(0, 0)}


def test_window_matches_per_site_oracle(sched_default):
    for i, g in enumerate([(0, 0), (27, 0), (-3, 24), (27, -27)]):
        p = cs.point_from_address(sched_default, [g])
        assert set(cs.name01(p, 8).cells) == brute_window_ones(p, 8)


def test_window_matches_oracle_random_points(sched_default):
    for i in range(5):
        p = cs.sample_point(sched_default, 3, seed=rng.derive_seed(21, "wp", i))
        assert set(cs.name01(p, 6).cells) == brute_window_ones(p, 6)


def test_core_count_matches_name(sched_default):
    for i in range(5):
        p = cs.sample_point(sched_default, 3, seed=rng.derive_seed(22, "cc", i))
        assert cs.core_count(p, 9) == len(cs.name01(p, 9).cells)


def test_shift_equivariance_of_names(sched_default):
    # window at offset u equals the translated restriction of a larger window
    p = cs.sample_point(sched_default, 3, seed=77)
    big = cs.name01(p, 27)
    for u in [(1, 0), (-2, 3), (3, -3), (0, -1)]:
        n = 24
        shifted = {
            (x - u[0], y - u[1])
            for (x, y) in big.cells
            if abs(x - u[0]) <= n and abs(y - u[1]) <= n
        }
        from slowent.cutstack import color01_at

        direct = {
            (x, y)
            for x in range(-n, n + 1)
            for y in range(-n, n + 1)
            if color01_at(p, (x + u[0], y + u[1])) == 1
        }
        assert shifted == direct


def test_stage_cap_error():
    tiny = cs.build_schedule(2, Fraction(1, 3), 2, 1)
    p = cs.sample_point(tiny, 2, seed=1)
    with pytest.raises(cs.StageCapError):
        cs.name01(p, 1000)


def test_determining_stage_slack(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)])
    assert p.determining_stage(27) == 2
    assert p.determining_stage(28) == 3


# ---------------------------------------------------------------------------
# Provenance and mass


def test_locate_site_examples(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)])
    assert cs.locate_site(p, (3, 0)) == (1, (0, 0))
    assert cs.locate_site(p, (1, 0)) == (2, (1, 0))
    # (29,0) sits inside the neighbouring stage-2 copy at (57,0): created at stage 2
    assert cs.locate_site(p, (29, 0)) == (2, (-28, 0))


def test_locate_site_c5(sched_c5):
    p = cs.point_from_address(sched_c5, [(0, 0)])
    assert cs.locate_site(p, (6, 0))[0] == 1
    assert cs.locate_site(p, (1, 0))[0] == 2
    # between copies: created at stage 3 under loose spacing
    between = (sched_c5.r(2) + 218, 0)
    stage, residual = cs.locate_site(p, between)
    assert stage == 3


def test_count_provenance_matches_locate(sched_default):
    # a sampled point, and the corner of the stage-2 arrangement, whose
    # window reaches into stage-3 cells
    n = 6
    for sched in (sched_default, *(expcli.schedule_from_spec(spec) for spec in expcli.DEFAULT_VARIANTS)):
        corner = (sched.s(1), -sched.s(1))
        for p in (cs.sample_point(sched, 3, seed=31), cs.point_from_address(sched, [corner])):
            by_stage = {}
            for x in range(-n, n + 1):
                for y in range(-n, n + 1):
                    st, _ = cs.locate_site(p, (x, y))
                    by_stage[st] = by_stage.get(st, 0) + 1
            assert len(by_stage) >= 2
            for stage in (1, 2, 3):
                expect = sum(c for s, c in by_stage.items() if s <= stage)
                assert cs.count_provenance_leq(p, n, stage) == expect


def test_mass_ledger_values(sched_default):
    ledger = cs.mass_ledger(sched_default, 3)
    assert ledger.widths[:2] == (1, Fraction(1, 361))
    assert ledger.stage_masses[:2] == (1, 9)
    assert ledger.new_mass(2) == 8
    assert all(c == 1 for c in ledger.core_masses)


def test_mass_ledger_c5_strictly_increasing(sched_c5):
    ledger = cs.mass_ledger(sched_c5, 3)
    assert ledger.stage_masses[0] < ledger.stage_masses[1] < ledger.stage_masses[2]
    assert ledger.stage_masses[1] == Fraction(435**2, 5329)
    assert all(c == 1 for c in ledger.core_masses)


# ---------------------------------------------------------------------------
# The lazy construction against the explicit cut-and-tile oracle

BRUTE_CASES = [(expcli.schedule_from_spec(spec), 2) for spec in expcli.DEFAULT_VARIANTS]
BRUTE_CASES.append((cs.build_schedule(4, Fraction(1, 2), 2, 1), 3))  # r = 1, 10, 451: 903^2 cells


@pytest.mark.parametrize(
    "sched, stage",
    BRUTE_CASES,
    ids=["theta1/3-c2-stage2", "theta1/4-c2-stage2", "theta1/3-c5-stage2", "theta1/4-c5-stage2", "theta1/2-c2-stage3"],
)
def test_lazy_construction_matches_brute_arrangement(sched, stage):
    arr = brute_arrangement(sched, stage)
    ledger = cs.mass_ledger(sched, stage)
    assert ledger.widths[stage - 1] == arr.width
    assert ledger.stage_masses[stage - 1] == arr.color.size * arr.width
    assert ledger.new_mass(stage) == np.count_nonzero(arr.prov == stage) * arr.width
    assert ledger.mu_core(stage) == np.count_nonzero(arr.color) * arr.width
    # cutting and tiling conserves the previous stage's mass
    assert ledger.stage_masses[stage - 2] == np.count_nonzero(arr.prov < stage) * arr.width
    # 20 points with zero-filled higher levels, 300 sites of the arrangement each
    sites = np.random.default_rng(stage).integers(-arr.radius, arr.radius + 1, size=(20, 300, 2)).tolist()
    seen = set()
    for seed, draws in enumerate(sites):
        p = cs.point_from_address(sched, cs.sample_point(sched, stage, seed).levels)
        u = p.position_at(stage)
        for w in draws:
            color, prov, origin = arr.at(w)
            v = (w[0] - u[0], w[1] - u[1])
            assert (cs.color01_at(p, v), cs.locate_site(p, v)) == (color, (prov, origin)), (seed, w)
            seen.add(prov)
    assert seen == set(np.unique(arr.prov).tolist())  # the probes reach every creation stage present


def test_windows_reject_negative_radius(sched_default):
    p = cs.sample_point(sched_default, 3, seed=1)
    for window in (p.determining_stage, lambda n: cs.count_provenance_leq(p, n, 3), lambda n: cs.core_count(p, n)):
        with pytest.raises(UsageError):
            window(-2)


def test_sample_point_stage1_empty_address(sched_default):
    p = cs.sample_point(sched_default, 1, seed=4)
    assert p.levels == []
    assert p.position_at(1) == (0, 0)


def test_uniform_int_wide_ranges():
    # spans wider than 64 bits must not bias or hang (stage-4 draws on the
    # quarter-theta schedule need ~93-bit ranges)
    k = 10**28
    seen = set()
    for i in range(50):
        v = rng.uniform_int(1, "wide", i, lo=-k, hi=k)
        assert -k <= v <= k
        seen.add(v)
    assert len(seen) == 50


def test_stage4_sampling_all_schedules():
    for theta_num, c in ((3, 2), (3, 5), (4, 2), (4, 5)):
        sched = cs.build_schedule(4, Fraction(1, theta_num), c, 1)
        p = cs.sample_point(sched, 4, seed=1)
        assert len(p.levels) == 3
        for j, g in enumerate(p.levels, start=1):
            assert in_gamma(g, sched, j)


def test_window_frame_consistency():
    # the window read in the stage-j arrangement equals the read in any
    # deeper arrangement, for every offset
    for theta_num, c in ((3, 2), (3, 5), (4, 2)):
        sched = cs.build_schedule(4, Fraction(1, theta_num), c, 1)
        for seed in range(8):
            p = cs.sample_point(sched, 4, seed=seed)
            n = 5
            frames = []
            for j in range(2, 5):
                u = p.position_at(j)
                if max(abs(u[0]), abs(u[1])) + n <= sched.r(j):
                    axis = AxisSumset(sched.levels_1d(j - 1))
                    xs = tuple(x - u[0] for x in axis.values(u[0] - n, u[0] + n, 0))
                    ys = tuple(y - u[1] for y in axis.values(u[1] - n, u[1] + n, 0))
                    frames.append((xs, ys))
            assert len(frames) >= 2
            assert all(f == frames[0] for f in frames[1:])


# ---------------------------------------------------------------------------
# Properties at every built stage of the default variants

VARIANTS = [expcli.schedule_from_spec(spec) for spec in expcli.DEFAULT_VARIANTS]
exact = settings(derandomize=True, deadline=None)


@st.composite
def addresses(draw, sched, stage):
    """Level offsets (gamma_1, ..., gamma_{stage-1}), any multiple of m(j) in Q_{s(j)}."""
    levels = []
    for j in range(1, stage):
        k = sched.s(j) // sched.m(j)
        levels.append((draw(st.integers(-k, k)) * sched.m(j), draw(st.integers(-k, k)) * sched.m(j)))
    return levels


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
@exact
@given(data=st.data())
def test_decompose_compose_round_trip_every_stage(variant, data):
    sched = VARIANTS[variant]
    levels = data.draw(addresses(sched, sched.stages))
    for stage in range(2, sched.stages + 1):
        back = cs.decompose(cs.compose(levels[: stage - 1], sched), stage, sched)
        assert back is not None and back.levels == tuple(levels[: stage - 1])


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
def test_axis_extremes_hold_each_level_quotient(variant):
    sched = VARIANTS[variant]
    axis = axis_extremes(sched, sched.stages)
    assert len(set(axis)) == len(axis) == 5 ** (sched.stages - 1)
    for j in range(1, sched.stages):
        m, k = sched.m(j), sched.s(j) // sched.m(j)
        assert {xs[j - 1] for xs in axis} == {q * m for q in (-k, -k + 1, 0, k - 1, k)}


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
def test_decompose_is_the_pair_of_axis_peels_on_the_extremes(variant):
    # every core coordinate is a multiple of m(1) >= 3, so one step off a
    # core site leaves the core on that axis alone
    sched = VARIANTS[variant]
    for stage in range(2, sched.stages + 1):
        axis = axis_extremes(sched, stage)
        for xs, ys in zip(axis, reversed(axis)):
            x, y = sum(xs), sum(ys)
            assert (axis_decompose(x, stage, sched), axis_decompose(y, stage, sched)) == (xs, ys)
            assert axis_decompose(x + 1, stage, sched) is None and axis_decompose(y - 1, stage, sched) is None
            assert cs.decompose((x, y), stage, sched).levels == tuple(zip(xs, ys))
            assert cs.decompose((x + 1, y), stage, sched) is None
            assert cs.decompose((x, y - 1), stage, sched) is None


#: the two slack rules _peel runs under, each as the stored slack tuple a
#: stage's peel reads (coarsest level first) and the oracles' rule per level:
#: decompose's reach of the finer levels, and locate_site's arrangement radius
SLACK_RULES = {
    "decompose": (lambda sched, stage: sched.sumset(stage).reaches, lambda sched: lambda j: sched.r(j) - sched.r(1)),
    "locate_site": (lambda sched, stage: sched._arrangement_slacks[stage - 1], lambda sched: sched.arrangement_radius),
}


@pytest.mark.parametrize("rule", SLACK_RULES)
@pytest.mark.parametrize("variant", range(len(VARIANTS)))
def test_stored_slacks_follow_the_slack_rules(variant, rule):
    sched = VARIANTS[variant]
    stored, slack_rule = SLACK_RULES[rule]
    slack = slack_rule(sched)
    for stage in range(1, sched.stages + 1):
        assert stored(sched, stage) == tuple(slack(j) for j in range(stage - 1, 0, -1))


@pytest.mark.parametrize("rule", SLACK_RULES)
@pytest.mark.parametrize("variant", range(len(VARIANTS)))
def test_peel_per_axis_matches_2d_peel_on_the_extremes(variant, rule):
    # one step off a core site stops that coordinate's peel at some level
    # while the other coordinate peels on, so the kept depths differ
    sched = VARIANTS[variant]
    stored, slack_rule = SLACK_RULES[rule]
    slack = slack_rule(sched)
    for stage in range(2, sched.stages + 1):
        sumset, slacks = sched.sumset(stage), stored(sched, stage)
        axis = axis_extremes(sched, stage)
        for xs, ys in zip(axis, reversed(axis)):
            x, y = sum(xs), sum(ys)
            for w in ((x, y), (x + 1, y), (x, y - 1), (x - 1, y + 1)):
                assert cs._peel(w, sumset, slacks) == peel_2d(w, stage, sched, slack)


@pytest.mark.parametrize("rule", SLACK_RULES)
@pytest.mark.parametrize("variant", range(len(VARIANTS)))
def test_axis_peel_matches_the_level_by_level_peel_on_the_extremes(variant, rule):
    # on the sumset at every extreme address, one step off it either side,
    # and one top spacing away, where a top quotient of +-k becomes +-(k + 1)
    sched = VARIANTS[variant]
    stored, slack_rule = SLACK_RULES[rule]
    slack = slack_rule(sched)
    for stage in range(1, sched.stages + 1):
        axis, slacks = sched.sumset(stage), stored(sched, stage)
        top = sched.m(stage - 1) if stage > 1 else 0
        for xs in axis_extremes(sched, stage):
            a = sum(xs)
            for d in (-1, 0, 1, -top, top):
                assert axis.peel(a + d, slacks) == axis_peel(a + d, stage, sched, slack)
            if rule == "decompose":
                assert axis.peel(a, slacks) == (list(reversed(xs)), 0)


@pytest.mark.parametrize("rule", SLACK_RULES)
@pytest.mark.parametrize("variant", range(len(VARIANTS)))
@exact
@given(data=st.data())
def test_axis_peel_matches_the_level_by_level_peel_off_the_sumset(variant, rule, data):
    # anywhere in and around the stage arrangement, and at a level's gap midpoint
    sched = VARIANTS[variant]
    stored, slack_rule = SLACK_RULES[rule]
    stage = data.draw(st.integers(1, sched.stages))
    core = sum(g[0] for g in data.draw(addresses(sched, stage)))
    r = sched.r(stage)
    gaps = [sched.m(j) // 2 for j in range(1, stage)] or [0]
    a = data.draw(st.integers(-r - 2, r + 2) | st.integers(-3, 3).map(lambda d: core + d) | st.sampled_from(gaps).map(lambda h: core + h))
    assert sched.sumset(stage).peel(a, stored(sched, stage)) == axis_peel(a, stage, sched, slack_rule(sched))


@pytest.mark.parametrize("rule", SLACK_RULES)
@pytest.mark.parametrize("variant", range(len(VARIANTS)))
@exact
@given(data=st.data())
def test_peel_per_axis_matches_2d_peel_at_random_sites(variant, rule, data):
    sched = VARIANTS[variant]
    stored, slack_rule = SLACK_RULES[rule]
    stage = data.draw(st.integers(1, sched.stages))
    core = cs.compose(data.draw(addresses(sched, stage)), sched)
    jitter = st.integers(-3, 3) | st.integers(-sched.r(stage), sched.r(stage))
    w = (core[0] + data.draw(jitter), core[1] + data.draw(jitter))
    assert cs._peel(w, sched.sumset(stage), stored(sched, stage)) == peel_2d(w, stage, sched, slack_rule(sched))


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
@settings(exact, max_examples=10)
@given(data=st.data())
def test_product_pattern_equals_checked_pattern(variant, data):
    sched = VARIANTS[variant]
    n = data.draw(st.integers(0, 2 * sched.r(2)))
    p = cs.sample_point(sched, 3, data.draw(st.integers(0, 2**32 - 1)))
    box, values = Box(n), st.lists(st.integers(-n, n), max_size=6)
    for xs, ys in (cs.window_axes(p, n), (data.draw(values), data.draw(values))):
        assert Pattern.product(box, xs, ys) == Pattern(box, 0, {(x, y): 1 for x in xs for y in ys})
        outside = data.draw(st.sampled_from((-n - 1, n + 1)))
        for bad in (([*xs, outside], ys), (xs, [outside, *ys])):
            with pytest.raises(UsageError):
                Pattern.product(box, *bad)


def test_name_checks_its_box_per_axis(monkeypatch):
    # the constructor's cell check is the only per-cell check, and would visit each of the |X| |Y| cells
    calls = []
    check = Pattern.__post_init__
    monkeypatch.setattr(Pattern, "__post_init__", lambda self: calls.append(self) or check(self))
    for sched in VARIANTS:
        name = cs.name01(cs.sample_point(sched, 3, seed=5), 2 * sched.r(2))
        assert (0, 0) in name.cells
    assert not calls


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
@exact
@given(data=st.data())
def test_color_agrees_with_locate(variant, data):
    # offsets aimed at another core site (plus a small jitter) hit the core
    # often; stage-4 addresses put coordinates past 2^53
    sched = VARIANTS[variant]
    stage = data.draw(st.integers(2, 4))
    p = cs.point_from_address(sched, data.draw(addresses(sched, stage)))
    target = cs.compose(data.draw(addresses(sched, stage)), sched)
    jx, jy = data.draw(st.sampled_from([(0, 0), (1, 0), (0, -1)]) | st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    u = p.position_at(stage)
    v = (target[0] - u[0] + jx, target[1] - u[1] + jy)
    assert cs.color01_at(p, v) == (cs.locate_site(p, v)[0] == 1)


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
@exact
@given(data=st.data())
def test_stage2_window_factorizes(variant, data):
    # the window at (gx, gy) is X(gx) x X(gy): the x-axis of (gx, 0) and the
    # x-axis of (gy, 0), with |gy| up to s(1); the census relies on this
    sched = VARIANTS[variant]
    axis = gamma_axis(sched, 1)
    gx, gy = data.draw(st.sampled_from(axis)), data.draw(st.sampled_from(axis))
    n = 2 * sched.r(2)
    p, px, py = (cs.point_from_address(sched, [g]) for g in ((gx, gy), (gx, 0), (gy, 0)))
    assert cs.window_axes(p, n) == (cs.window_axes(px, n)[0], cs.window_axes(py, n)[0])
    _, mean_x, mean_y = cs.core_centroid(p, n)
    assert (mean_x, mean_y) == (cs.core_centroid(px, n)[1], cs.core_centroid(py, n)[1])


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
@settings(exact, max_examples=25)
@given(data=st.data())
def test_name_restriction_is_the_smaller_name(variant, data):
    sched = VARIANTS[variant]
    p = cs.sample_point(sched, 3, data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 2 * sched.r(2)))
    m = data.draw(st.integers(0, n))
    assert restricted(cs.name01(p, n), m) == cs.name01(p, m)


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
@exact
@given(data=st.data())
def test_count_provenance_matches_merged_runs(variant, data):
    # the closed form against the merge of the window's finest-level runs;
    # windows around the corner of an arrangement reach newer cells
    sched = VARIANTS[variant]
    stage = data.draw(st.integers(1, 4))
    corner = [(sched.s(j), -sched.s(j)) for j in range(1, stage)]
    p = cs.point_from_address(sched, data.draw(addresses(sched, stage) | st.just(corner)))
    n = data.draw(st.integers(0, 64) | st.integers(10**3, 10**5))
    j = p.determining_stage(n)
    for prov_stage in range(1, j):
        assert cs.count_provenance_leq(p, n, prov_stage) == merged_provenance_count(p, n, prov_stage)


def test_count_provenance_never_walks_runs(monkeypatch):
    # a walk of the window's runs would take O(n) steps; n here has 90-258 digits
    def walk(self, lo, hi):
        raise AssertionError("count_provenance_leq walked the runs of a window")

    monkeypatch.setattr(AxisSumset, "_runs", walk)
    for sched in VARIANTS:
        n = sched.r(5) // 3
        for p in (cs.point_from_address(sched, []), cs.point_from_address(sched, cs.sample_point(sched, 5, seed=7).levels)):
            counts = [cs.count_provenance_leq(p, n, prov_stage) for prov_stage in range(1, 6)]
            assert counts[0] == cs.core_count(p, n)
            assert counts == sorted(counts) and counts[-1] <= (2 * n + 1) ** 2


# ---------------------------------------------------------------------------
# Point set-up: prefix-sum positions against re-summed levels


def _outcome(window, n):
    try:
        return window(n)
    except cs.StageCapError:
        return "cap"


def _check_point_against_level_sums(p):
    # the oracle runs on a twin, so it never grows the point under test
    twin = cs.PointHandle(p.schedule, p.seed, list(p.levels))
    sched = p.schedule
    windows = {0, 1} | {r + d for r in sched.radii for d in (-1, 0, 1)}
    full = cs.PointHandle(sched, p.seed, list(p.levels))
    full.extend_to(sched.stages)
    for j in range(2, sched.stages + 1):
        # the slack rule's own edges at stage j
        edge = sched.r(j) - sched.r(j - 1) - max(map(abs, position_from_levels(full.levels, j)))
        windows |= {edge - 1, edge, edge + 1}
    for n in sorted(w for w in windows if w >= 0):
        assert _outcome(p.determining_stage, n) == _outcome(lambda n: determining_stage_by_loop(twin, n), n), n
    assert p.levels == twin.levels
    for j in range(1, sched.stages + 1):
        assert p.position_at(j) == position_from_levels(twin.levels, j)
    assert p.levels == twin.levels


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
def test_positions_and_determining_stage_match_the_level_sums(variant):
    sched = VARIANTS[variant]
    corner = [(sched.s(j), -sched.s(j)) for j in range(1, sched.stages)]
    for stage in range(1, sched.stages + 1):
        for seed in range(4):
            _check_point_against_level_sums(cs.sample_point(sched, stage, seed))
            pinned = cs.sample_point(sched, stage, seed + 100).levels
            _check_point_against_level_sums(pinned_point(sched, pinned, seed))
        _check_point_against_level_sums(cs.point_from_address(sched, corner[: stage - 1]))


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
def test_stage_one_pins_the_zero_window_in_any_order(variant):
    # the answer for Q_0 may not depend on how far the point has grown
    sched = VARIANTS[variant]
    points = [cs.point_from_address(sched, []), cs.sample_point(sched, 1, 7), cs.sample_point(sched, 3, 7)]
    for p in points:
        twin = cs.PointHandle(sched, p.seed, list(p.levels))
        assert p.determining_stage(0) == determining_stage_by_loop(twin, 0) == 1
        for stage in range(2, sched.stages + 1):
            p.extend_to(stage)
            assert p.determining_stage(0) == 1
            assert cs.locate_site(p, (0, 0)) == (1, (0, 0))
        p.position_at(3)
        assert p.determining_stage(0) == 1 and cs.core_count(p, 0) == 1


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
def test_out_of_order_extension_keeps_positions(variant):
    sched = VARIANTS[variant]
    top = sched.stages
    for seed in range(6):
        direct = cs.sample_point(sched, top, seed)
        jumped = cs.sample_point(sched, 2, seed)
        jumped.extend_to(top)
        jumped.extend_to(3)
        scattered = cs.sample_point(sched, 1, seed)
        for j in (5, 3, top, 2):
            scattered.position_at(j)
        wide = cs.sample_point(sched, 2, seed)
        _outcome(wide.determining_stage, sched.r(top - 1))
        wide.extend_to(top)
        for p in (jumped, scattered, wide):
            assert p.levels == direct.levels
            for j in range(1, top + 1):
                assert p.position_at(j) == direct.position_at(j) == position_from_levels(direct.levels, j)
        _check_point_against_level_sums(jumped)


def test_point_setup_draws_only_its_offsets(monkeypatch):
    # sample_point(sched, 3, s) draws four level coordinates, and a window
    # query on it draws nothing more; the overlay seed waits for its reader
    calls = dict.fromkeys(("uniform_int", "stream_u64"), 0)
    for name in calls:
        real = getattr(rng, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(rng, name, spy)
    for sched in VARIANTS:
        for seed in (5, 2**70):
            calls.update(uniform_int=0, stream_u64=0)
            p = cs.sample_point(sched, 3, seed)
            cs.core_count(p, 0)
            assert calls == {"uniform_int": 4, "stream_u64": 0}
            name = overlay_pattern(*overlay_name(p, 27), 27)
            assert calls == {"uniform_int": 4, "stream_u64": 1}
            overlay_name(p, 27)
            assert calls["stream_u64"] == 1
            assert p.overlay_seed == rng.derive_seed(seed, "overlay-seed")
            bits = {u: sym - A_SYMBOL for u, sym in name.cells.items()}
            assert bits == {u: rng.fair_bits(p.overlay_seed, "overlay-bit", [u[0]], [u[1]])[0] for u in name.cells}


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
def test_pinned_points_never_draw(monkeypatch, variant):
    # a pinned point stores its given levels and zeros up to the top built
    # level, so no window query on it reaches the draw loop
    sched = VARIANTS[variant]

    def draw(*args, **kwargs):
        raise AssertionError("a pinned point drew a level")

    monkeypatch.setattr(rng, "uniform_int", draw)
    with pytest.raises(AssertionError, match="drew a level"):
        cs.sample_point(sched, 2, 0)
    corner = [(sched.s(j), -sched.s(j)) for j in range(1, sched.stages)]
    for given in range(sched.stages):
        p = cs.point_from_address(sched, corner[:given])
        assert p.levels == corner[:given] + [(0, 0)] * (sched.stages - 1 - given)
        assert p.determining_stage(0) == 1
        assert cs.window_axes(p, 0) == ([0], [0]) and cs.core_centroid(p, 0) == (1, 0, 0)
        # corner levels put the point on the edge of each copy, so Q_1 needs
        # the first stage past them, and none when every level is a corner
        if given == sched.stages - 1:
            with pytest.raises(cs.StageCapError):
                p.determining_stage(1)
            continue
        assert p.determining_stage(1) == given + 2
        xs, ys = cs.window_axes(p, 1)
        count, mean_x, mean_y = cs.core_centroid(p, 1)
        assert count == len(xs) * len(ys)
        assert (mean_x, mean_y) == (Fraction(sum(xs), len(xs)), Fraction(sum(ys), len(ys)))
