import math
from fractions import Fraction

import pytest

from slowent import rng, toys
from slowent.covernum import (
    CoverEstimate,
    CoverTooLarge,
    MetricSample,
    alpha_fit,
    alpha_pointwise,
    bowen_bound_log2,
    bowen_first_fit_separated,
    bowen_sep_check,
    cover_estimate,
    exact_cover_number,
    greedy_cover_upper,
    growth_fit,
    max_separated_lower,
    sample_from_points,
)
from slowent.lattice import UsageError

from oracles import bowen_distance, brute_bowen_first_fit, brute_exact_cover


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
    assert exact_cover_number(single, Fraction(1, 2)) == 1
    assert exact_cover_number(single, Fraction(1, 2), Fraction(1)) == 0
    trio = sample_from_points([0, 1, 2], [Fraction(1, 3)] * 3, lambda a, b: Fraction(1))
    assert exact_cover_number(trio, Fraction(1, 2), Fraction(0)) == 3


def test_exact_cover_refuses_large_instances():
    n = 25
    smp = sample_from_points(list(range(n)), [Fraction(1, n)] * n, lambda a, b: Fraction(1))
    with pytest.raises(CoverTooLarge):
        exact_cover_number(smp, Fraction(1, 2))


def test_greedy_examples():
    smp = four_point_sample()
    assert greedy_cover_upper(smp, Fraction(1, 5), Fraction(1, 5)) == 3
    trio = sample_from_points([0, 1, 2], [Fraction(1, 3)] * 3, lambda a, b: Fraction(1))
    assert greedy_cover_upper(trio, Fraction(1, 2)) == 3
    dup = sample_from_points(list(range(7)), [Fraction(1, 7)] * 7, lambda a, b: Fraction(0))
    assert greedy_cover_upper(dup, Fraction(1, 100)) == 1


def test_max_separated_examples():
    smp = four_point_sample()
    # point 2 rejected (d(1,2) < 1/5), points 1, 3, 4 kept
    assert max_separated_lower(smp, Fraction(1, 5)) == 3
    trio = sample_from_points([0, 1, 2], [Fraction(1, 3)] * 3, lambda a, b: Fraction(1))
    assert max_separated_lower(trio, Fraction(1, 2)) == 3
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
    for i in range(60):
        smp = _random_metric_sample(42, i, max_points=12)
        eps = Fraction(1 + rng.uniform_int(42, "eps", i, lo=0, hi=40), 100)
        exact = exact_cover_number(smp, eps, Fraction(0))
        lower = max_separated_lower(smp, eps + Fraction(1, 10**6))
        upper = greedy_cover_upper(smp, eps, Fraction(0))
        assert lower <= exact <= upper


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
        smp2 = MetricSample(smp.ids, smp.masses, d2)
        for eps in (Fraction(1, 10), Fraction(1, 4)):
            n1 = exact_cover_number(smp, eps, eps)
            n2 = exact_cover_number(smp2, a * eps + delta, a * eps + delta)
            assert n2 <= n1


def test_cover_estimate_invariant():
    smp = four_point_sample()
    est = cover_estimate(smp, Fraction(1, 5), Fraction(1, 5))
    assert est.exact == 3
    assert est.lower <= est.exact <= est.upper
    with pytest.raises(UsageError):
        CoverEstimate(3, 2, None)
    with pytest.raises(UsageError):
        CoverEstimate(1, 3, 5)


def test_metric_sample_validation():
    with pytest.raises(UsageError):
        MetricSample((0, 1), (Fraction(1), Fraction(1)), ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))))
    sample_from_points([0, 1], [Fraction(1, 2)] * 2, lambda a, b: Fraction(1, 3))


def test_determinism_of_estimates():
    smp = four_point_sample()
    a = cover_estimate(smp, Fraction(1, 5), Fraction(1, 5))
    b = cover_estimate(smp, Fraction(1, 5), Fraction(1, 5))
    assert a == b


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


def test_bowen_distance_n0_is_base():
    tr = toys.TranslationAction()
    pts = toys.sample_torus_points(4, 1)
    d = bowen_distance(tr, toys.torus_dist, 0, pts[0], pts[1])
    assert abs(d - toys.torus_dist(pts[0], pts[1])) < 1e-12


def test_bowen_translation_isometry():
    tr = toys.TranslationAction()
    pts = toys.sample_torus_points(6, 2)
    for i in range(3):
        d0 = toys.torus_dist(pts[i], pts[i + 3])
        dn = bowen_distance(tr, toys.torus_dist, 3, pts[i], pts[i + 3])
        assert abs(dn - d0) < 1e-9


def test_bowen_endo_lipschitz_bound():
    endo = toys.ToralEndoAction()
    pts = toys.sample_torus_points(40, 3)
    lip = endo.lipschitz
    n = 3
    dn = endo.pair_bowen(pts, n)
    for i in range(0, 38, 2):
        d0 = toys.torus_dist(pts[i], pts[i + 1])
        assert dn(i, i + 1) <= (lip**n) * d0 + 1e-9


def test_bowen_sep_check_cells():
    pts = toys.sample_torus_points(60, 4)
    endo = toys.ToralEndoAction()
    cells = bowen_sep_check(lambda n: endo.pair_bowen(pts, n), 60, [0, 1, 2], [0.1, 0.05], endo.generator_lipschitz, 4.0)
    assert all(c.ok for c in cells)
    # eps halved: separation count non-decreasing
    by_n = {}
    for c in cells:
        by_n.setdefault(c.n, {})[c.eps] = c.separation
    for n, row in by_n.items():
        assert row[0.05] >= row[0.1]


def test_bowen_single_point_sample():
    pts = toys.sample_torus_points(1, 5)
    tr = toys.TranslationAction()
    for n in (0, 2):
        dn = tr.pair_bowen(pts, n)
        assert bowen_first_fit_separated(dn, 1, 0.1) == 1


@pytest.mark.parametrize("action", [toys.TranslationAction(), toys.ToralEndoAction()], ids=["translation", "endo"])
@pytest.mark.parametrize("n", [0, 1, 2, 4, 16])
def test_bowen_first_fit_matches_per_pair_oracle(action, n):
    # n = 16 is a box of 1089 offsets; the endomorphism's orbit reaches M^48 there
    pts = toys.sample_torus_points(16, 6)
    if n == 16 and isinstance(action, toys.ToralEndoAction):
        with pytest.raises(UsageError):
            action.pair_bowen(pts, n)
        return
    eps_list = (0.15, 0.45, 0.49)
    for size in (0, 1, len(pts)):
        dn = action.pair_bowen(pts[:size], n)
        got = [bowen_first_fit_separated(dn, size, eps) for eps in eps_list]
        assert got == brute_bowen_first_fit(action, toys.torus_dist, n, pts[:size], eps_list), size


def test_endo_orbit_box_stops_before_float_precision_runs_out():
    # n = 6 reaches M^18 (entries up to 24,157,817 < 2^26), n = 7 reaches M^21
    pts = toys.sample_torus_points(2, 3)
    endo = toys.ToralEndoAction()
    assert endo.pair_bowen(pts, 6)(0, 1) > 0
    with pytest.raises(UsageError):
        endo.pair_bowen(pts, 7)
    with pytest.raises(UsageError):
        endo.matrix_power(-20)


def test_bowen_pair_distance_takes_one_point_or_an_array():
    pts = toys.sample_torus_points(8, 7)
    for action in (toys.TranslationAction(), toys.ToralEndoAction()):
        dn = action.pair_bowen(pts, 2)
        full = [dn(0, j) for j in range(1, 8)]
        assert all(isinstance(d, float) for d in full)
        assert list(dn(0, range(1, 8))) == full
        # with a cap, no value exceeds the true one, and every value is >= cap
        # exactly when every true value is
        for cap in (min(full), max(full), max(full) + 0.01):
            capped = dn(0, list(range(1, 8)), cap)
            assert all(c <= d for c, d in zip(capped, full))
            assert (min(capped) >= cap) == (min(full) >= cap)


def test_bowen_first_fit_propagates_metric_type_error():
    # every call passes the cap, so a TypeError raised inside the metric is
    # a real fault and must not be mistaken for a signature without cap
    def dn(i, j, cap=None):
        if cap is not None:
            raise TypeError("fault inside the metric")
        return 1.0

    with pytest.raises(TypeError, match="fault inside the metric"):
        bowen_first_fit_separated(dn, 3, 0.1)


def test_bowen_bound_log2_monotone():
    assert bowen_bound_log2(4, 0.1, 2.0, 2.0) >= bowen_bound_log2(2, 0.1, 2.0, 2.0)


def test_bowen_endo_lipschitz_bound_large_sample():
    # d_n <= C^n d on 10^3 random pairs at n = 6, the largest box whose
    # orbit keeps 26 fractional bits (n = 10 reached M^30)
    endo = toys.ToralEndoAction()
    pts = toys.sample_torus_points(2000, 8)
    lip = endo.lipschitz
    n = 6
    dn = endo.pair_bowen(pts, n)
    bound_factor = lip**n
    for i in range(0, 2000, 2):
        d0 = toys.torus_dist(pts[i], pts[i + 1])
        assert dn(i, i + 1) <= bound_factor * d0 + 1e-9


def test_sandwich_needs_positive_masses():
    # a zero-mass point is separated but exempt from coverage, so the
    # separation count may exceed the exact cover number there
    smp = sample_from_points(
        [0, 1], [Fraction(1), Fraction(0)], lambda a, b: Fraction(1)
    )
    assert exact_cover_number(smp, Fraction(1, 2), Fraction(0)) == 1
    assert max_separated_lower(smp, Fraction(3, 4)) == 2
