import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowent import cutstack as cs
from slowent import expcli
from slowent import rng
from slowent.lattice import SYMBOL_NAMES, Box, Pattern, UsageError, pattern_distance, sup_norm
from slowent.symbolic import (
    A_SYMBOL,
    B_SYMBOL,
    ERASURE,
    apply_code,
    binary_entropy,
    gv_rate_deficit,
    hamming_ball_volume,
    hamming_cover_lower,
    overlay_name,
    separated_words_first_fit,
)

from oracles import brute_separated_words, in_box, pattern_from_text, site_set_metric, symbol_at


def translate_pattern(p, offset, radius):
    """Restriction of the offset-shifted pattern to Q_radius."""
    box = Box(radius)
    cells = {(x - offset[0], y - offset[1]): s for (x, y), s in p.cells.items()}
    return Pattern(box, p.default_symbol, {v: s for v, s in cells.items() if in_box(v, box)})


def overlay_from_word(base, word):
    """Overlay name over {0, a, b} with letters read off an integer word over the sorted 1-cells."""
    return Pattern(base.box, 0, {u: A_SYMBOL + ((word >> i) & 1) for i, u in enumerate(sorted(base.cells))})


def bits(name):
    """The fair bit of each letter cell of an overlay name: 0 for a, 1 for b."""
    return {u: sym - A_SYMBOL for u, sym in name.cells.items()}


def test_identity_code_restricts():
    p = Pattern(Box(3), 0, {(0, 0): 1, (2, -1): 1})
    identity = {sym: sym for sym in SYMBOL_NAMES}
    assert apply_code(identity, p) == p


def test_apply_code_refuses_unmapped_symbols():
    # as the default and in a cell
    with pytest.raises(UsageError, match="symbol 4"):
        apply_code(ERASURE, Pattern(Box(0), 4, {}))
    with pytest.raises(UsageError, match="symbol 4"):
        apply_code(ERASURE, Pattern(Box(1), 0, {(1, 0): A_SYMBOL, (0, 1): 4}))
    # every symbol of the table maps, the default included
    assert apply_code(ERASURE, Pattern(Box(0), 1, {})) == Pattern(Box(0), 1, {})


def test_erasure_code_on_overlay(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)], seed=5)
    _, overlay = overlay_name(p, 5)
    assert apply_code(ERASURE, overlay) == cs.name01(p, 5)


def test_apply_code_shift_equivariance():
    code = ERASURE
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
    # Box membership, as the cell check applies it: the sup-norm definition, on sites of the wrong length too
    r = data.draw(st.integers(0, 3))
    u = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3)))
    assert in_box(u, Box(r)) == (len(u) == 2 and sup_norm(u) <= r)
    try:
        Pattern(Box(r), 0, {u: 1})
        accepted = True
    except UsageError:
        accepted = False
    assert accepted == (len(u) == 2 and sup_norm(u) <= r)

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
    erased = apply_code(ERASURE, p)
    assert erased.box == p.box
    expected = {v: 0 if symbol_at(p, v) == 0 else 1 for v in p.box.sites()}
    assert {v: symbol_at(erased, v) for v in p.box.sites()} == expected


def test_overlay_name_consistency(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)], seed=9)
    _, small = overlay_name(p, 3)
    assert apply_code(ERASURE, small) == cs.name01(p, 3)
    # radius 45 reads columns from three blocks of 64, radius 27 from one
    for n in (27, 45):
        _, big = overlay_name(p, n)
        for v, bit in bits(small).items():
            assert bits(big)[v] == bit
    _, again = overlay_name(p, 3)
    assert bits(again) == bits(small)


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_overlay_base_is_name01_in_cell_order(spec):
    # one window serves both names: the base is name01's pattern and the
    # overlay's letters sit on its cells in the same order
    sched = expcli.schedule_from_spec(spec)
    for i in range(3):
        p = cs.sample_point(sched, 3, seed=rng.derive_seed(70, "base", i))
        for n in (0, 1, 27):
            base, overlay = overlay_name(p, n)
            name = cs.name01(p, n)
            assert base == name and list(base.cells) == list(name.cells)
            assert list(overlay.cells) == list(name.cells)


def test_overlay_independent_across_points(sched_default):
    a = cs.sample_point(sched_default, 3, seed=100)
    b = cs.sample_point(sched_default, 3, seed=101)
    assert a.overlay_seed != b.overlay_seed


def test_overlay_fairness(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)], seed=13)
    _, name = overlay_name(p, 27)
    draws = 0
    ones = 0
    # extend the sample with bits from more points to reach a solid count
    for i in range(300):
        q = cs.sample_point(sched_default, 3, seed=rng.derive_seed(50, "fair", i))
        _, ov = overlay_name(q, 9)
        for b in bits(ov).values():
            draws += 1
            ones += b
    sigma = math.sqrt(draws * 0.25)
    assert abs(ones - draws / 2) <= 5 * sigma


def test_overlay_validation(sched_default):
    # an overlay name carries a letter exactly on the base 1-cells, and only a or b
    for i in range(20):
        p = cs.sample_point(sched_default, 3, seed=rng.derive_seed(40, "ov", i))
        _, name = overlay_name(p, 9)
        assert name.default_symbol == 0
        assert name.cells.keys() == cs.name01(p, 9).cells.keys()
        assert set(name.cells.values()) <= {A_SYMBOL, B_SYMBOL}


@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_unchecked_outputs_pass_the_cell_check(sched_default, data):
    # overlay_name and apply_code build their results without Pattern's cell
    # check; the checked constructor accepts them and builds equal patterns
    box = Box(2)
    ones = data.draw(st.sets(st.sampled_from(list(box.sites())), max_size=12))
    flat = Pattern(box, 0, {u: A_SYMBOL + data.draw(st.integers(0, 1)) for u in ones})
    p = cs.sample_point(sched_default, 3, seed=data.draw(st.integers(0, 2**64 - 1)))
    base, name = overlay_name(p, data.draw(st.integers(0, 12)))
    recolor = {0: B_SYMBOL, 1: 1, A_SYMBOL: B_SYMBOL, B_SYMBOL: 0}
    for q in (base, name, apply_code(ERASURE, name), apply_code(ERASURE, flat), apply_code(recolor, flat)):
        assert Pattern(q.box, q.default_symbol, dict(q.cells)) == q


def test_overlay_distance_examples():
    # the name metric of the partition {0 | a, b} is the pattern metric on flattened overlay names
    base = Pattern(Box(2), 0, {(x, y): 1 for x in (-2, 0, 2) for y in (0, 1)})
    same = overlay_from_word(base, 0b101010)
    assert pattern_distance(same, same) == 0
    other = overlay_from_word(base, 0b101011)
    assert pattern_distance(same, other) == Fraction(1, 6)
    # shared base of c cells, bits differing on j cells -> j/c
    third = overlay_from_word(base, 0b010101)
    assert pattern_distance(same, third) == 1


def test_overlay_distance_disjoint_bases(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)])
    base1 = cs.name01(p, 3)
    base2 = Pattern(Box(3), 0, {(x + 1, y): 1 for (x, y) in base1.cells if abs(x + 1) <= 3})
    d = pattern_distance(overlay_from_word(base1, 0), overlay_from_word(base2, 0))
    assert d == 1


def test_overlay_distance_dominates_base_metric(sched_default):
    from slowent.partitions import recurrence_metric
    from slowent.recurrence import recurrence_set

    for i in range(50):
        x = cs.sample_point(sched_default, 3, seed=rng.derive_seed(60, "a", i))
        y = cs.sample_point(sched_default, 3, seed=rng.derive_seed(60, "b", i))
        (_, ox), (_, oy) = overlay_name(x, 6), overlay_name(y, 6)
        base = site_set_metric(set(ox.cells), set(oy.cells))
        assert base == recurrence_metric(recurrence_set(x, 6), recurrence_set(y, 6))
        assert pattern_distance(ox, oy) >= base


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


@pytest.mark.parametrize("length", [*range(1, 13), 16])
def test_separated_words_cube_matches_brute(length):
    # the cube mode doubles a lexicode; the list-mode scan over the whole
    # cube in numeric order is its oracle, and the pairwise brute force
    # checks both where it is affordable; d runs past length + 1 at the
    # short lengths, where the ball covers the cube and the family is 1
    cube = range(1 << length)
    for d in range(1, max(5, length + 2) if length <= 12 else 6):
        family = separated_words_first_fit(length, d)
        assert family == separated_words_first_fit(length, d, cube), d
        if length <= 8:
            assert family == brute_separated_words(d, cube), d


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
    _, flat = overlay_name(p, 3)
    text = pattern_to_text(flat)
    assert " a" in text or " b" in text
    assert pattern_from_text(text) == flat
