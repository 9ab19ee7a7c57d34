import math
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowent import covernum, rng, toys
from slowent.covernum import (
    CoverTooLarge,
    MetricSample,
    alpha_fit,
    alpha_pointwise,
    bowen_bound_log2,
    bowen_first_fit_separated,
    cover_bracket,
    exact_cover_number,
    greedy_cover_upper,
    growth_fit,
    max_separated_lower,
    sample_from_points,
)
from slowent.lattice import UsageError

from oracles import (
    act,
    bowen_distance,
    brute_bowen_first_fit,
    brute_exact_cover,
    brute_strict_first_fit,
    exact_act,
    exact_torus_dist,
    float_points,
    fraction_cover_bracket,
    fraction_greedy_cover,
    fraction_within,
    torus_dist,
)


def four_point_sample():
    d = {(1, 2): Fraction(1, 10)}

    def metric(a, b):
        return d.get((min(a, b), max(a, b)), Fraction(1))

    return sample_from_points([1, 2, 3, 4], [Fraction(1, 4)] * 4, metric)


def test_exact_cover_examples():
    smp = four_point_sample()
    # every point's mass 1/4 > 1/5 forces full coverage; {1,2} merges
    assert exact_cover_number(smp, Fraction(1, 5), Fraction(1, 5)) == 3
    single = sample_from_points([0], [Fraction(1)], lambda a, b: Fraction(0))
    assert exact_cover_number(single, Fraction(1, 2), Fraction(0)) == 1
    assert exact_cover_number(single, Fraction(1, 2), Fraction(1)) == 0
    trio = sample_from_points([0, 1, 2], [Fraction(1, 3)] * 3, lambda a, b: Fraction(1))
    assert exact_cover_number(trio, Fraction(1, 2), Fraction(0)) == 3


def test_exact_cover_refuses_large_instances():
    n = 25
    smp = sample_from_points(list(range(n)), [Fraction(1, n)] * n, lambda a, b: Fraction(1))
    with pytest.raises(CoverTooLarge):
        exact_cover_number(smp, Fraction(1, 2), Fraction(0))


def test_greedy_examples():
    smp = four_point_sample()
    assert greedy_cover_upper(smp, Fraction(1, 5), Fraction(1, 5)) == 3
    trio = sample_from_points([0, 1, 2], [Fraction(1, 3)] * 3, lambda a, b: Fraction(1))
    assert greedy_cover_upper(trio, Fraction(1, 2), Fraction(0)) == 3
    dup = sample_from_points(list(range(7)), [Fraction(1, 7)] * 7, lambda a, b: Fraction(0))
    assert greedy_cover_upper(dup, Fraction(1, 100), Fraction(0)) == 1


def test_max_separated_examples():
    smp = four_point_sample()
    # point 2 rejected (d(1,2) < 1/5), points 1, 3, 4 kept
    assert max_separated_lower(smp, Fraction(1, 5)) == 3
    trio = sample_from_points([0, 1, 2], [Fraction(1, 3)] * 3, lambda a, b: Fraction(1))
    assert max_separated_lower(trio, Fraction(1, 2)) == 3
    # separation is strict: points at distance exactly eps share a diameter-eps set
    assert max_separated_lower(trio, Fraction(1)) == 1
    dup = sample_from_points(list(range(5)), [Fraction(1, 5)] * 5, lambda a, b: Fraction(0))
    assert max_separated_lower(dup, Fraction(1, 100)) == 1


def _random_metric_sample(seed, i, max_points=8):
    count = rng.uniform_int(seed, "count", i, lo=2, hi=max_points)
    coords = [
        (
            Fraction(rng.uniform_int(seed, "x", i, j, lo=0, hi=100), 100),
            Fraction(rng.uniform_int(seed, "y", i, j, lo=0, hi=100), 100),
        )
        for j in range(count)
    ]
    masses = [Fraction(1, count)] * count
    return sample_from_points(coords, masses, lambda a, b: (abs(a[0] - b[0]) + abs(a[1] - b[1])) / 2)


def test_exact_cover_matches_brute_oracle():
    for i in range(40):
        smp = _random_metric_sample(41, i, max_points=7)
        eps = Fraction(1 + rng.uniform_int(41, "eps", i, lo=0, hi=40), 100)
        eps_mass = Fraction(rng.uniform_int(41, "em", i, lo=0, hi=2), 10)
        got = exact_cover_number(smp, eps, eps_mass)
        want = brute_exact_cover(list(smp.masses), [list(r) for r in smp.dist], eps, eps_mass)
        assert got == want


def test_cover_sandwich_random():
    # distances are multiples of 1/200 and eps of 1/100, so many pairs sit at exactly eps
    for i in range(60):
        smp = _random_metric_sample(42, i, max_points=12)
        eps = Fraction(1 + rng.uniform_int(42, "eps", i, lo=0, hi=40), 100)
        lower, exact, upper = cover_bracket(smp, eps, Fraction(0))
        assert lower == max_separated_lower(smp, eps) == brute_strict_first_fit([list(r) for r in smp.dist], eps)
        assert lower <= exact <= upper


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_integer_mass_units_match_fraction_oracles(data):
    # pairwise-coprime mass denominators and an eps_mass over yet another
    # prime, so the common denominator is their full product
    count = data.draw(st.integers(1, 6))
    dens = data.draw(st.permutations(PRIMES))
    masses = [Fraction(data.draw(st.integers(1, 3 * d)), d) for d in dens[:count]]
    eps_mass = Fraction(data.draw(st.integers(0, dens[count] - 1)), dens[count])
    coords = [(data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))) for _ in range(count)]
    smp = sample_from_points(coords, masses, lambda a, b: Fraction(abs(a[0] - b[0]) + abs(a[1] - b[1]), 6))
    eps = Fraction(data.draw(st.integers(0, 12)), 6)
    dist = [list(r) for r in smp.dist]
    assert exact_cover_number(smp, eps, eps_mass) == brute_exact_cover(masses, dist, eps, eps_mass)
    assert greedy_cover_upper(smp, eps, eps_mass) == fraction_greedy_cover(masses, dist, eps, eps_mass)


def test_cover_monotone_in_eps():
    smp = _random_metric_sample(43, 0, max_points=8)
    values = [exact_cover_number(smp, eps, Fraction(0)) for eps in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4))]
    assert values == sorted(values, reverse=True)
    masses = [exact_cover_number(smp, Fraction(1, 10), em) for em in (Fraction(0), Fraction(1, 10), Fraction(1, 2))]
    assert masses == sorted(masses, reverse=True)


def test_comparable_metrics_bound():
    # if d2 <= a d1 + delta on the whole sample then N(d2, a eps + delta) <= N(d1, eps)
    for i in range(25):
        smp = _random_metric_sample(44, i, max_points=8)
        a = Fraction(2)
        delta = Fraction(1, 20)
        n = len(smp)
        d2 = tuple(
            tuple(min(a * smp.dist[x][y] + (delta if x != y else 0), Fraction(1)) for y in range(n))
            for x in range(n)
        )
        smp2 = MetricSample(smp.masses, d2)
        for eps in (Fraction(1, 10), Fraction(1, 4)):
            n1 = exact_cover_number(smp, eps, eps)
            n2 = exact_cover_number(smp2, a * eps + delta, a * eps + delta)
            assert n2 <= n1


def test_cover_bracket_examples():
    smp = four_point_sample()
    # with mass slack the separation count bounds nothing, so the lower bound is the trivial 1
    assert cover_bracket(smp, Fraction(1, 5), Fraction(1, 5)) == (1, 3, 3)
    assert cover_bracket(smp, Fraction(1, 5), Fraction(0)) == (3, 3, 3)
    single = sample_from_points([0], [Fraction(1)], lambda a, b: Fraction(0))
    assert cover_bracket(single, Fraction(1, 2), Fraction(1)) == (0, 0, 0)


def test_cover_bracket_leaves_an_inconsistent_bound_to_the_verdict(monkeypatch):
    # a greedy bound one too small is returned as it is, for the cover-sandwich verdict to fail
    greedy = covernum.greedy_cover_upper
    monkeypatch.setattr(covernum, "greedy_cover_upper", lambda *args: greedy(*args) - 1)
    assert cover_bracket(four_point_sample(), Fraction(1, 5), Fraction(0)) == (3, 3, 2)


def test_metric_sample_validation():
    with pytest.raises(UsageError):
        MetricSample((Fraction(1), Fraction(1)), ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))))
    # distances are compared as integer pairs, so a float is refused, not rounded
    for masses, dist in (((1, 1), ((0, 0.5), (0.5, 0))), ((1.0, 1), ((0, 1), (1, 0)))):
        with pytest.raises(UsageError, match="exact rationals"):
            MetricSample(masses, dist)
    sample_from_points([0, 1], [Fraction(1, 2)] * 2, lambda a, b: Fraction(1, 3))


def test_cover_bracket_is_its_three_bounds():
    for i in range(20):
        smp = _random_metric_sample(45, i, max_points=8)
        eps = Fraction(1 + rng.uniform_int(45, "eps", i, lo=0, hi=40), 100)
        exact, upper = exact_cover_number(smp, eps, eps), greedy_cover_upper(smp, eps, eps)
        assert cover_bracket(smp, eps, eps) == (1, exact, upper)
        exact, upper = exact_cover_number(smp, eps, Fraction(0)), greedy_cover_upper(smp, eps, Fraction(0))
        assert cover_bracket(smp, eps, Fraction(0)) == (max_separated_lower(smp, eps), exact, upper)


# ---------------------------------------------------------------------------
# Growth fits


def test_growth_fit_slow_synthetic():
    fit = growth_fit([(n, 2.0 ** (n**1.5)) for n in (4, 16, 64)], "slow")
    assert abs(fit.exponent - 1.5) < 1e-9
    assert abs(fit.limsup_exponent - 1.5) < 1e-9


def test_growth_fit_exp_synthetic():
    fit = growth_fit([(8, 2.0**8), (16, 2.0**16), (32, 2.0**32)], "exp")
    assert abs(fit.exponent - 1.0) < 1e-9


def test_growth_fit_polynomial_slow_scale():
    pts = [(2**k, float((2**k) ** 2)) for k in range(4, 13)]
    full = growth_fit(pts, "slow")
    assert full.exponent > 0
    suffix_slopes = [growth_fit(pts[s:], "slow").exponent for s in range(0, len(pts) - 1)]
    assert all(suffix_slopes[i] >= suffix_slopes[i + 1] for i in range(len(suffix_slopes) - 1))
    assert suffix_slopes[-1] < 0.5


def test_growth_fit_scaled_monotonicity_bound():
    # multiplying values by c shifts the fitted exponent by at most the
    # per-sample log-log shift scaled by the regression weight mass
    pts = [(n, 2.0 ** (n**1.2)) for n in (4, 8, 16, 32)]
    c = 7.0
    base = growth_fit(pts, "slow")
    scaled = growth_fit([(n, c * v) for n, v in pts], "slow")
    xs = [math.log(n) for n, _ in pts]
    mx = sum(xs) / len(xs)
    sxx = sum((x - mx) ** 2 for x in xs)
    weight_mass = sum(abs(x - mx) for x in xs) / sxx
    shift_bound = max(
        abs(math.log(math.log(c * v)) - math.log(math.log(v))) for _, v in pts
    ) * weight_mass
    assert abs(scaled.exponent - base.exponent) <= shift_bound + 1e-12


def test_growth_fit_rejects_bad_input():
    with pytest.raises(UsageError):
        growth_fit([(4, 2.0), (4, 3.0)], "slow")
    with pytest.raises(UsageError):
        growth_fit([(4, 0.5), (8, 2.0)], "slow")
    with pytest.raises(UsageError):
        growth_fit([(4, 2.0)], "slow")
    with pytest.raises(UsageError):
        growth_fit([(4, 2.0), (8, 4.0)], "weird")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, float("1e400")])
@pytest.mark.parametrize("scale", ["slow", "exp"])
def test_growth_fit_refuses_non_finite_values(value, scale):
    with pytest.raises(UsageError, match="finite"):
        growth_fit([(4, 10.0), (8, value)], scale)


def test_growth_fit_refuses_exp_abscissae_past_float_range():
    # float(10**400) overflows, and (10**200)**2 leaves float range inside the regression
    for n in (10**400, 10**200):
        with pytest.raises(UsageError, match="float range"):
            growth_fit([(4, 10.0), (n, 20.0)], "exp")
    # the slow scale takes log n from the exact int, so the same rows fit
    assert math.isfinite(growth_fit([(4, 10.0), (10**400, 20.0)], "slow").exponent)


def test_alpha_fit_examples():
    full = alpha_fit([(n, (2 * n + 1) ** 2) for n in (2, 4, 8)])
    assert abs(full.limsup_exponent - 1.0) < 1e-12
    ones = alpha_fit([(n, 1) for n in (2, 4, 8)])
    assert ones.limsup_exponent == 0.0
    single = alpha_fit([(27, 361)])
    assert single.exponent is None
    assert abs(single.limsup_exponent - math.log(361) / math.log(3025)) < 1e-12
    assert abs(alpha_pointwise(361, 27) - 0.734762707033463) < 1e-12


def test_alpha_fit_keeps_exact_counts_past_float_range():
    small = alpha_fit([(2, 25), (56, 1369)])
    assert small.samples == ((2, 25), (56, 1369)) and all(type(c) is int for _, c in small.samples)
    assert small.limsup_exponent == max(math.log(25) / math.log(25), math.log(1369) / math.log(113**2))
    n = 10**200
    huge = alpha_fit([(2, 1), (n, (2 * n + 1) ** 2)])
    assert huge.samples[1][1] == (2 * n + 1) ** 2
    assert abs(huge.limsup_exponent - 1.0) < 1e-12


def test_alpha_fit_rejects_zero_counts():
    with pytest.raises(UsageError):
        alpha_fit([(2, 0)])


# ---------------------------------------------------------------------------
# Bowen checks


def exact_bowen(action, n, x, y):
    return bowen_distance(partial(exact_act, action), exact_torus_dist, n, x, y)


def test_torus_points_pinned():
    # each coordinate is a 53-bit dyadic: its float64 value times 2^64
    (point,) = toys.sample_torus_points(1, 2024)
    assert point[0] == Fraction(0.18362555317817453) * 2**64
    last = toys.sample_torus_points(8, 2024)[7]
    assert last == (Fraction(0.34652107397894427) * 2**64, Fraction(0.8201141670670827) * 2**64)


def test_bowen_distance_n0_is_base():
    tr = toys.TranslationAction()
    pts = toys.sample_torus_points(4, 1)
    assert exact_bowen(tr, 0, pts[0], pts[1]) == exact_torus_dist(pts[0], pts[1])


def test_bowen_translation_isometry():
    tr = toys.TranslationAction()
    pts = toys.sample_torus_points(6, 2)
    for i in range(3):
        d0 = exact_torus_dist(pts[i], pts[i + 3])
        assert exact_bowen(tr, 3, pts[i], pts[i + 3]) == d0


def test_bowen_endo_lipschitz_bound():
    # ||M^k|| is the Fibonacci number F(2k + 2), so the orbit constant is F(6n + 2)
    endo = toys.ToralEndoAction()
    fib = [0, 1]
    while len(fib) < 39:
        fib.append(fib[-1] + fib[-2])
    assert [endo.orbit_lipschitz(n) for n in range(7)] == [fib[6 * n + 2] for n in range(7)]
    assert endo.orbit_lipschitz(6) == 39_088_169
    pts = toys.sample_torus_points(40, 3)
    n = 3
    lip = endo.orbit_lipschitz(n)
    dn = endo.pair_bowen(pts, n)
    for i in range(0, 38, 2):
        d0 = exact_torus_dist(pts[i], pts[i + 1])
        assert dn(i, i + 1) <= lip * d0
    # the diagonal pairs meet the bound, by the per-site oracle too
    step = 1 << 37
    shifted = [((x + step) % 2**64, (y + step) % 2**64) for x, y in pts[:4]]
    diagonal = [endo.pair_bowen([x, y], n)(0, 1) for x, y in zip(pts, shifted)]
    assert diagonal == [exact_bowen(endo, n, x, y) for x, y in zip(pts, shifted)] == [lip * step] * 4


@pytest.mark.parametrize("n", [0, 1, 2, 4, 16, 32])
def test_pair_bowen_equals_the_exact_oracle(n):
    # the orbit applied site by site to both points, so no step relies on
    # the difference identity d_n(x, y) = d_n(x - y, 0)
    pts = toys.sample_torus_points(5, 11)
    for action in (toys.TranslationAction(), toys.ToralEndoAction()):
        dn = action.pair_bowen(pts, n)
        assert [dn(0, j) for j in range(1, 5)] == [exact_bowen(action, n, pts[0], pts[j]) for j in range(1, 5)]


def test_toys_keep_units_and_wrap():
    # units 1 and 2^64 - 1 lie 2 units apart, the short way round through 0
    across = [(1, 0), (2**64 - 1, 0)]
    assert toys.torus_dist_rows(1 - (2**64 - 1), 0) == toys.torus_dist_rows(2**64 - 1 - 1, 0) == 2
    # the translations fix the difference mod 2^64: d_n stays d_0
    assert toys.TranslationAction().pair_bowen(across, 3)(0, 1) == 2
    # M^-3 = [[5, -8], [-8, 13]] reduces mod 2^64 too: from the pair (0, 1),
    # (0, 0) its column (-8, 13) sets d_1 = 13 units, where M^3's gives 8
    unit = [(0, 1), (0, 0)]
    assert toys.ToralEndoAction().matrix_power(-3) == ((5, -8), (-8, 13))
    assert toys.ToralEndoAction().pair_bowen(unit, 1)(0, 1) == 13
    assert toys.ToralEndoAction().pair_bowen(across, 1)(0, 1) == 2 * 13


def bowen_separation(points, dn, eps):
    """The Bowen first fit as the runners call it: u = 0 masks, then d_n inside them."""
    return bowen_first_fit_separated(toys.close_masks(points, eps), lambda i, j: dn(i, j) >= toys.units(eps))


def test_bowen_sep_check_cells():
    pts = toys.sample_torus_points(60, 4)
    endo = toys.ToralEndoAction()
    eps_list = [0.1, 0.05]
    close = {eps: toys.close_masks(pts, eps) for eps in eps_list}
    cells = list(toys.bowen_separations(endo, pts, close, [0, 1, 2]))
    assert [(n, eps) for n, eps, _ in cells] == [(n, eps) for n in (0, 1, 2) for eps in eps_list]
    assert all(math.log2(max(sep, 1)) <= bowen_bound_log2(n, eps, endo.generator_lipschitz, 4.0) for n, eps, sep in cells)
    # eps halved: separation count non-decreasing
    by_n = {}
    for n, eps, sep in cells:
        by_n.setdefault(n, {})[eps] = sep
    for n, row in by_n.items():
        assert row[0.05] >= row[0.1]


def test_bowen_single_point_sample():
    pts = toys.sample_torus_points(1, 5)
    tr = toys.TranslationAction()
    for n in (0, 2):
        assert bowen_separation(pts, tr.pair_bowen(pts, n), 0.1) == 1


@pytest.mark.parametrize("action", [toys.TranslationAction(), toys.ToralEndoAction()], ids=["translation", "endo"])
@pytest.mark.parametrize("n", [0, 1, 2, 4, 16])
def test_bowen_first_fit_matches_per_pair_oracle(action, n):
    # n = 16 is a box of 1089 sites; the endomorphism's orbit reaches M^48
    # there, past the float toy's reach, so the exact oracle decides it
    pts = toys.sample_torus_points(16, 6)
    eps_list = (0.15, 0.45, 0.49)
    for size in (0, 1, len(pts)):
        dn = action.pair_bowen(pts[:size], n)
        got = [bowen_separation(pts[:size], dn, eps) for eps in eps_list]
        if n <= 6:
            want = brute_bowen_first_fit(partial(act, action), torus_dist, n, float_points(pts[:size]), eps_list)
        else:
            cuts = [Fraction(eps) * 2**64 for eps in eps_list]
            want = brute_bowen_first_fit(partial(exact_act, action), exact_torus_dist, n, pts[:size], cuts)
        assert got == want, size


def test_bowen_pair_distance_stays_inside_the_masks():
    pts = toys.sample_torus_points(8, 7)
    for action in (toys.TranslationAction(), toys.ToralEndoAction()):
        dn = action.pair_bowen(pts, 2)
        full = [dn(0, j) for j in range(1, 8)]
        assert full == [exact_bowen(action, 2, pts[0], pts[j]) for j in range(1, 8)]
        # the u = 0 masks miss no pair below the cap: a pair outside them is
        # at d_n >= cap, so skipping it decides no candidate differently
        for cap in (min(full), max(full), max(full) + 2**58):
            mask = toys.close_masks(pts, Fraction(cap, 2**64))[0]
            assert all(mask >> j & 1 for j, d in enumerate(full, start=1) if d < cap)


def test_close_masks_are_the_pairs_below_eps():
    pts = toys.sample_torus_points(40, 9)
    for eps in (0.05, 0.2, 0.5):
        masks = toys.close_masks(pts, eps)
        below = [[Fraction(exact_torus_dist(p, q), 2**64) < Fraction(eps) for q in pts] for p in pts]
        assert masks == [sum(1 << j for j in range(40) if below[i][j]) for i in range(40)]
        # the float toy draws the same masks
        fpts = float_points(pts)
        assert masks == [sum(1 << j for j in range(40) if torus_dist(fpts[i], fpts[j]) < eps) for i in range(40)]


@st.composite
def torus_samples(draw):
    """(points, cut): up to six points whose coordinates sit at, inside and
    just past cut of 0, of 2^64 - 1 and of a drawn anchor, repeats included,
    with cut drawn small (0 included: no pair, not even a point with itself)
    or where 2 cut is just below, at or above 2^64."""
    half = 2**63
    cut = draw(st.one_of(st.sampled_from([0, 1, 2, half - 1, half, half + 1]), st.integers(1, 2**64)))
    anchors = [0, 2**64 - 1, draw(st.integers(0, 2**64 - 1))]
    offset = st.one_of(st.sampled_from([0, 1, cut - 1, cut, cut + 1]), st.integers(0, cut))
    near = st.builds(lambda a, o, s: (a + s * o) % 2**64, st.sampled_from(anchors), offset, st.sampled_from([1, -1]))
    pool = draw(st.lists(st.one_of(near, st.integers(0, 2**64 - 1)), min_size=1, max_size=4))
    coord = st.sampled_from(pool)
    return draw(st.lists(st.tuples(coord, coord), max_size=6)), cut


@settings(derandomize=True, deadline=None, max_examples=300)
@given(sample=torus_samples())
@example(sample=([], 2**63))
@example(sample=([(0, 2**64 - 1)], 1))
@example(sample=([(0, 0), (2**63, 2**63)], 2**63))
@example(sample=([(0, 0), (2**63, 2**63)], 2**63 + 1))
@example(sample=([(1, 2**64 - 1), (2**64 - 1, 1)], 3))
def test_close_masks_match_a_brute_pair_scan_at_the_wrap(sample):
    points, cut = sample
    eps = Fraction(cut, 2**64)
    assert toys.units(eps) == cut
    want = [sum(1 << j for j, q in enumerate(points) if exact_torus_dist(p, q) < cut) for p in points]
    assert toys.close_masks(points, eps) == want


@pytest.mark.parametrize("n", [0, 1, 6, 32])
def test_endo_pair_bowen_matches_the_oracle_at_the_wrap(n):
    # the difference at 0, one unit either side of it and the antipode, then drawn ones
    endo = toys.ToralEndoAction()
    special = [0, 1, 2**63, 2**64 - 1]
    drawn = [(rng.stream_u64(31, "dx", i), rng.stream_u64(31, "dy", i)) for i in range(4)]
    (base,) = toys.sample_torus_points(1, 13)
    for dx, dy in [*product(special, repeat=2), *drawn]:
        pair = [((base[0] + dx) % 2**64, (base[1] + dy) % 2**64), base]
        assert endo.pair_bowen(pair, n)(0, 1) == exact_bowen(endo, n, *pair), (dx, dy)


def test_close_masks_hold_no_pair_table():
    # an all-pairs table over 2,000 points holds 4 million entries; the arc
    # masks hold one sorted prefix of 2,000-bit masks per coordinate
    pts = toys.sample_torus_points(2000, 10)
    tracemalloc.start()
    try:
        masks = toys.close_masks(pts, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(masks) == 2000 and all(m >> i & 1 for i, m in enumerate(masks))
    assert peak <= 4 * 2**20


def test_bowen_first_fit_propagates_metric_type_error():
    # a TypeError raised inside the pair distance is a real fault and must
    # reach the caller
    def dn(i, j):
        raise TypeError("fault inside the metric")

    with pytest.raises(TypeError, match="fault inside the metric"):
        bowen_first_fit_separated([0b111] * 3, lambda i, j: dn(i, j) >= 0.1)


def test_bowen_first_fit_asks_only_close_pairs_in_chosen_order():
    # candidate 3 is close to the chosen 1 and 2, not to 0: it asks about 1
    # first, and 1 is not separated from it, so 2 is never asked about
    asked = []

    def separated(i, j):
        asked.append((i, j))
        return j != 1

    close = [0b0001, 0b0011, 0b0101, 0b1110]
    assert bowen_first_fit_separated(close, separated) == 3
    assert asked == [(1, 0), (2, 0), (3, 1)]


def test_bowen_bound_log2_monotone():
    assert bowen_bound_log2(4, 0.1, 2.0, 2.0) >= bowen_bound_log2(2, 0.1, 2.0, 2.0)


def test_bowen_endo_lipschitz_bound_large_sample():
    # d_n <= C d on 10^3 random pairs at n = 6, for C the per-orbit constant,
    # compared as integers in units of 2^-64
    endo = toys.ToralEndoAction()
    pts = toys.sample_torus_points(2000, 8)
    n = 6
    lip = endo.orbit_lipschitz(n)
    dn = endo.pair_bowen(pts, n)
    for i in range(0, 2000, 2):
        d0 = exact_torus_dist(pts[i], pts[i + 1])
        assert dn(i, i + 1) <= lip * d0


def test_sandwich_needs_positive_masses():
    # the lower end separates positive-mass points only: a zero-mass point
    # needs no cover, so the first fit passes it over and the lower end
    # stays a lower bound
    pair = sample_from_points([0, 1], [Fraction(1), Fraction(0)], lambda a, b: Fraction(1))
    assert cover_bracket(pair, Fraction(1, 2), Fraction(0)) == (1, 1, 1)
    assert max_separated_lower(pair, Fraction(3, 4)) == 1
    trio = sample_from_points([0, 1, 2], [Fraction(1), Fraction(0), Fraction(0)], lambda a, b: Fraction(1))
    assert cover_bracket(trio, Fraction(1, 2), Fraction(0)) == (1, 1, 1)
    # a zero-mass point first in index order, at 0 between 2/5 and -2/5 on a
    # line, no longer blocks the two positive points it is near
    line = sample_from_points([Fraction(0), Fraction(2, 5), Fraction(-2, 5)], [0, 1, 1], lambda a, b: abs(a - b))
    assert cover_bracket(line, Fraction(1, 2), Fraction(0)) == (2, 2, 2)
    empty = sample_from_points([0, 1], [Fraction(0), Fraction(0)], lambda a, b: Fraction(1))
    assert cover_bracket(empty, Fraction(1, 2), Fraction(0)) == (0, 0, 0)


@st.composite
def rational_samples(draw):
    """(masses, dist, eps, eps_mass): up to five points, zero masses included,
    distances at, a hair off and away from eps and eps/2, on denominators
    past 10^30."""
    big = draw(st.integers(10**30, 10**40))
    ratio = st.builds(Fraction, st.integers(1, 3 * big), st.sampled_from([big, big + 1, 3 * big]))
    eps = draw(st.one_of(ratio, st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)])))
    hair = Fraction(1, big * draw(st.integers(1, 9)))
    near = [eps, eps / 2, eps + hair, eps - hair, eps / 2 + hair, eps / 2 - hair]
    entry = st.one_of(st.sampled_from(near), ratio)
    n = draw(st.integers(1, 5))
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = max(draw(entry), Fraction(0))
    masses = [Fraction(draw(st.integers(0, 3)), draw(st.sampled_from([1, 7, big]))) for _ in range(n)]
    eps_mass = draw(st.sampled_from([Fraction(0), Fraction(1, 3), hair]))
    return masses, dist, eps, eps_mass


@settings(derandomize=True, deadline=None, max_examples=150)
@given(sample=rational_samples())
def test_cover_bracket_matches_the_fraction_reference(sample):
    # integer cross-multiplication against Fraction comparisons, masks and bounds alike
    masses, dist, eps, eps_mass = sample
    smp = MetricSample(tuple(masses), tuple(map(tuple, dist)))
    for radius in (eps, eps / 2):
        assert covernum._within(smp, radius, range(len(smp))) == fraction_within(dist, radius)
    assert cover_bracket(smp, eps, eps_mass) == fraction_cover_bracket(masses, dist, eps, eps_mass)


def test_cover_bracket_compares_no_fraction_per_entry(monkeypatch):
    # building a sample and bracketing its cover number compare its
    # distances as integers: the Fraction comparisons made do not grow with
    # the matrix, here 9 entries against 144
    def comparisons(n):
        coords = [(rng.uniform_int(46, "x", n, j, lo=0, hi=100), rng.uniform_int(46, "y", n, j, lo=0, hi=100)) for j in range(n)]
        smp = sample_from_points(coords, [Fraction(1, n)] * n, lambda a, b: Fraction(abs(a[0] - b[0]) + abs(a[1] - b[1]), 200))
        calls = {"__le__": 0, "__lt__": 0, "__eq__": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                original = getattr(Fraction, name)

                def counted(a, b, name=name, original=original):
                    calls[name] += 1
                    return original(a, b)

                patch.setattr(Fraction, name, counted)
            MetricSample(smp.masses, smp.dist)
            cover_bracket(smp, Fraction(1, 10), Fraction(0))
        return calls

    few, many = comparisons(3), comparisons(12)
    assert few == many and sum(many.values()) <= 2, (few, many)
