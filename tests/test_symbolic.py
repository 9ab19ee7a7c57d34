import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowent import cutstack as cs
from slowent import rng
from slowent.lattice import SYMBOL_NAMES, Box, Pattern, UsageError, pattern_distance, sup_norm
from slowent.symbolic import (
    A_SYMBOL,
    B_SYMBOL,
    OverlayName,
    SlidingBlockCode,
    apply_code,
    binary_entropy,
    erasure_code,
    gv_rate_deficit,
    hamming_ball_volume,
    hamming_cover_lower,
    overlay_name,
    separated_words_first_fit,
)

from oracles import brute_separated_words, pattern_from_text, symbol_at


def translate_pattern(p, offset, radius):
    """Restriction of the offset-shifted pattern to Q_radius."""
    box = Box(radius)
    cells = {(x - offset[0], y - offset[1]): s for (x, y), s in p.cells.items()}
    return Pattern(box, p.default_symbol, {v: s for v, s in cells.items() if v in box})


def overlay_from_word(base, word):
    """Overlay with bits read off an integer word over the sorted 1-cells."""
    return OverlayName(base, {u: (word >> i) & 1 for i, u in enumerate(sorted(base.cells))})


def test_identity_code_restricts():
    p = Pattern(Box(3), 0, {(0, 0): 1, (2, -1): 1})
    identity = SlidingBlockCode({sym: sym for sym in SYMBOL_NAMES}, input_default=0)
    assert apply_code(identity, p) == p


def test_apply_code_radius_check():
    code = erasure_code()
    with pytest.raises(UsageError):
        apply_code(
            code,
            Pattern(Box(0), 1, {}),
        )


def test_erasure_code_on_overlay(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)], seed=5)
    ov = overlay_name(p, 5)
    flat = ov.flatten()
    assert apply_code(erasure_code(), flat) == cs.name01(p, 5)


def test_apply_code_shift_equivariance():
    code = erasure_code()
    for i in range(100):
        cells = {}
        for k in range(rng.uniform_int(31, "n", i, lo=0, hi=6)):
            x = rng.uniform_int(31, "x", i, k, lo=-4, hi=4)
            y = rng.uniform_int(31, "y", i, k, lo=-4, hi=4)
            cells[(x, y)] = A_SYMBOL if rng.stream_u64(31, "s", i, k) & 1 else B_SYMBOL
        p = Pattern(Box(4), 0, cells)
        u = (rng.uniform_int(31, "ux", i, lo=-2, hi=2), rng.uniform_int(31, "uy", i, lo=-2, hi=2))
        lhs = translate_pattern(apply_code(code, p), u, 2)
        rhs = apply_code(code, translate_pattern(p, u, 2))
        assert lhs == rhs


@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_box_pattern_and_code_match_definitions(data):
    # Box membership: the sup-norm definition, on sites of the wrong length too
    r = data.draw(st.integers(0, 3))
    u = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3)))
    assert (u in Box(r)) == (len(u) == 2 and sup_norm(u) <= r)

    # Pattern equality: a sorted-items comparison, whatever the insertion order
    sites = list(Box(r).sites())
    symbols = st.sampled_from((1, A_SYMBOL, B_SYMBOL))
    p = Pattern(Box(r), 0, data.draw(st.dictionaries(st.sampled_from(sites), symbols, max_size=9)))
    q_cells = dict(data.draw(st.permutations(list(p.cells.items()))))
    q_cells.update(data.draw(st.dictionaries(st.sampled_from(sites), symbols, max_size=2)))
    q = Pattern(Box(r + data.draw(st.integers(0, 1))), data.draw(st.sampled_from((0, 4))), q_cells)

    def canonical(x):
        return x.box.radius, x.default_symbol, sorted(x.cells.items())

    assert (p == q) == (canonical(p) == canonical(q))

    # erasure: a, b -> 1 and 0 -> 0, site by site over the whole box
    erased = apply_code(erasure_code(), p)
    assert erased.box == p.box
    expected = {v: 0 if symbol_at(p, v) == 0 else 1 for v in p.box.sites()}
    assert {v: symbol_at(erased, v) for v in p.box.sites()} == expected


def test_overlay_name_consistency(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)], seed=9)
    small = overlay_name(p, 3)
    big = overlay_name(p, 27)
    assert small.base == cs.name01(p, 3)
    for v, bit in small.bits.items():
        assert big.bits[v] == bit
    again = overlay_name(p, 3)
    assert again.bits == small.bits


def test_overlay_independent_across_points(sched_default):
    a = cs.sample_point(sched_default, 3, seed=100)
    b = cs.sample_point(sched_default, 3, seed=101)
    assert a.overlay_seed != b.overlay_seed


def test_overlay_fairness(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)], seed=13)
    name = overlay_name(p, 27)
    draws = 0
    ones = 0
    # extend the sample with bits from more points to reach a solid count
    for i in range(300):
        q = cs.sample_point(sched_default, 3, seed=rng.derive_seed(50, "fair", i))
        ov = overlay_name(q, 9)
        for b in ov.bits.values():
            draws += 1
            ones += b
    sigma = math.sqrt(draws * 0.25)
    assert abs(ones - draws / 2) <= 5 * sigma


def test_overlay_validation():
    base = Pattern(Box(1), 0, {(0, 0): 1})
    with pytest.raises(UsageError):
        OverlayName(base, {})
    with pytest.raises(UsageError):
        OverlayName(base, {(0, 0): 7})


@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_unchecked_outputs_pass_the_cell_check(data):
    # flatten and apply_code build their results without Pattern's cell
    # check; the checked constructor accepts them and builds equal patterns
    box = Box(2)
    ones = data.draw(st.sets(st.sampled_from(list(box.sites())), max_size=12))
    base = Pattern(box, 0, dict.fromkeys(ones, 1))
    flat = OverlayName(base, {u: data.draw(st.integers(0, 1)) for u in ones}).flatten()
    recolor = SlidingBlockCode({0: B_SYMBOL, 1: 1, A_SYMBOL: B_SYMBOL, B_SYMBOL: 0}, input_default=0)
    for q in (flat, apply_code(erasure_code(), flat), apply_code(recolor, flat)):
        assert Pattern(q.box, q.default_symbol, dict(q.cells)) == q


def test_overlay_distance_examples():
    # the name metric of the partition {0 | a, b} is the pattern metric on flattened overlay names
    base = Pattern(Box(2), 0, {(x, y): 1 for x in (-2, 0, 2) for y in (0, 1)})
    same = overlay_from_word(base, 0b101010)
    assert pattern_distance(same.flatten(), same.flatten()) == 0
    other = overlay_from_word(base, 0b101011)
    assert pattern_distance(same.flatten(), other.flatten()) == Fraction(1, 6)
    # shared base of c cells, bits differing on j cells -> j/c
    third = overlay_from_word(base, 0b010101)
    assert pattern_distance(same.flatten(), third.flatten()) == 1


def test_overlay_distance_disjoint_bases(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)])
    base1 = cs.name01(p, 3)
    base2 = Pattern(Box(3), 0, {(x + 1, y): 1 for (x, y) in base1.cells if abs(x + 1) <= 3})
    d = pattern_distance(overlay_from_word(base1, 0).flatten(), overlay_from_word(base2, 0).flatten())
    assert d == 1


def test_overlay_distance_dominates_base_metric(sched_default):
    from slowent.partitions import recurrence_metric

    for i in range(50):
        x = cs.sample_point(sched_default, 3, seed=rng.derive_seed(60, "a", i))
        y = cs.sample_point(sched_default, 3, seed=rng.derive_seed(60, "b", i))
        ox, oy = overlay_name(x, 6), overlay_name(y, 6)
        base = recurrence_metric(set(ox.base.cells), set(oy.base.cells))
        assert pattern_distance(ox.flatten(), oy.flatten()) >= base


def test_hamming_cover_lower_values():
    assert hamming_cover_lower(20, Fraction(1, 10)) == (1 << 20) // 21
    assert hamming_cover_lower(20, Fraction(1, 10)) == 49932
    # d = 1: every pair of distinct colorings qualifies
    assert hamming_cover_lower(12, Fraction(1, 100)) == 1 << 12
    assert hamming_ball_volume(20, 1) == 21


def test_hamming_cover_lower_monotone():
    values = [hamming_cover_lower(16, eps) for eps in (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4))]
    assert values == sorted(values, reverse=True)
    for v in values:
        assert 1 <= v <= 1 << 16


def test_hamming_cover_lower_validation():
    with pytest.raises(UsageError):
        hamming_cover_lower(0, Fraction(1, 8))
    with pytest.raises(UsageError):
        hamming_cover_lower(8, Fraction(1, 2))


def test_separated_words_first_fit_realizes_bound():
    for s, eps in ((10, Fraction(1, 5)), (12, Fraction(1, 4))):
        d = math.ceil(eps * s)
        family = separated_words_first_fit(s, d)
        assert family >= hamming_cover_lower(s, eps)


def test_separated_words_subset_mode():
    words = [0b0000, 0b0001, 0b0011, 0b1111]
    assert separated_words_first_fit(4, 2, words) == 3


@settings(derandomize=True, deadline=None)
@given(length=st.integers(1, 10), min_distance=st.integers(1, 4), data=st.data())
def test_separated_words_matches_brute(length, min_distance, data):
    word = st.integers(0, (1 << length) - 1)
    words = data.draw(st.lists(word, max_size=60))
    words += data.draw(st.lists(st.sampled_from(words), max_size=10)) if words else []
    assert separated_words_first_fit(length, min_distance, words) == brute_separated_words(min_distance, words)


@pytest.mark.parametrize("length", range(1, 9))
def test_separated_words_cube_matches_brute(length):
    for d in range(1, 5):
        cube = range(1 << length)
        assert separated_words_first_fit(length, d) == brute_separated_words(d, cube)


def test_separated_words_rejects_bad_input():
    with pytest.raises(UsageError):
        separated_words_first_fit(4, 2, [0, -1])
    with pytest.raises(UsageError):
        separated_words_first_fit(4, 2, [3, 16])
    with pytest.raises(UsageError):
        separated_words_first_fit(4, 0, [1, 1])
    with pytest.raises(UsageError):
        separated_words_first_fit(4, 0)


def test_gv_rate_deficit_tends_to_entropy():
    eps = Fraction(1, 8)
    d_small = gv_rate_deficit(64, eps)
    h = binary_entropy(float(eps))
    assert 0 < d_small < 2 * h


def test_overlay_serializes_with_letter_symbols(sched_default):
    from slowent.lattice import pattern_to_text

    p = cs.point_from_address(sched_default, [(0, 0)], seed=3)
    flat = overlay_name(p, 3).flatten()
    text = pattern_to_text(flat)
    assert " a" in text or " b" in text
    assert pattern_from_text(text) == flat
